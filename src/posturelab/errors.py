"""Exception types shared across the package.

Two families matter for the CLI exit-code contract: DataError (malformed or
insufficient input, exit 2) and NumericError (a computation that cannot
proceed, exit 3). choose is the one rejection of an unknown name.
"""
from __future__ import annotations


class PostureLabError(Exception):
    """Base class for all errors raised by this package."""


class DataError(PostureLabError):
    """Input data is malformed, inconsistent, or insufficient."""


class NumericError(PostureLabError):
    """A numeric computation cannot produce a valid result."""


class MissingJoint(DataError):
    def __init__(self, name: str, line: int | None = None):
        self.name = name
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"missing joint {name!r}{where}")


class NonFiniteCoordinate(DataError):
    def __init__(self, joint: str, axis: str, line: int | None = None):
        self.joint = joint
        self.axis = axis
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"non-finite {axis} coordinate for joint {joint!r}{where}")


class UnknownLabel(DataError):
    def __init__(self, name: str, line: int | None = None):
        self.name = name
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown posture label {name!r}{where}")


class ParseError(DataError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class EmptyTrainingSet(DataError):
    pass


class DimensionMismatch(DataError):
    pass


class SingleClass(DataError):
    pass


class ClassTooSmall(DataError):
    pass


class LengthMismatch(DataError):
    pass


class EmptyInput(DataError):
    pass


class FingerprintMismatch(DataError):
    pass


class VersionMismatch(DataError):
    def __init__(self, found, expected, advice: str = ""):
        self.found = found
        self.expected = expected
        advice = f"; {advice}" if advice else ""
        super().__init__(f"file version {found!r}, reader supports {expected!r}{advice}")


class CorruptModel(DataError):
    pass


class DegenerateNormalizer(NumericError):
    pass


class ZeroLengthSegment(NumericError):
    pass


class DegenerateCovariance(NumericError):
    pass


class NonConvergence(NumericError):
    pass


def choose(what: str, value, choices) -> str:
    """value if it is a str among the names choices holds; else a ValueError listing them."""
    if isinstance(value, str) and value in choices:
        return value
    raise ValueError(f"unknown {what} {value!r}; choose from {tuple(choices)}")
