"""Exception types shared across the package.

Two families matter for the CLI exit-code contract: DataError (malformed or
insufficient input, exit 2) and NumericError (a computation that cannot
proceed, exit 3). choose is the one rejection of an unknown name; integer,
real, boolean and count reject a value that is no integer, no finite number,
no bool or no count (a seed is a count). typed_fields reads a dataclass's
annotated fields; same_kind casts an array within its dtype's kind, and
read_only holds the array fields of a dataclass one way: read-only, typed.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import fields
from numbers import Real
from typing import get_args, get_origin, get_type_hints

import numpy as np


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
    def __init__(self, joint: str, axis: str, line: int | None = None,
                 record: int | None = None):
        self.joint = joint
        self.axis = axis
        self.line = line
        self.record = record
        where = f" (line {line})" if line is not None else ""
        which = f"record {record}: " if record is not None else ""
        super().__init__(f"{which}non-finite {axis} coordinate for joint {joint!r}{where}")


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


def integer(what: str, value) -> int:
    """value if it is an int and not a bool; else a ValueError naming what."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {value!r}")


def finite_real(value) -> bool:
    """True for a real number (not a string, not a bool) of finite float magnitude."""
    return (isinstance(value, Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def real(what: str, value, positive: bool = False):
    """value if finite_real holds for it and, where asked, it is positive;
    else a ValueError naming what."""
    if finite_real(value) and (value > 0 or not positive):
        return value
    raise ValueError(f"{what} must be {'finite and positive' if positive else 'a finite number'}, "
                     f"got {value!r}")


def boolean(what: str, value) -> bool:
    """value if it is a bool; else a ValueError naming what."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be true or false, got {value!r}")


def count(what: str, value) -> int:
    """value if it is a non-negative integer; else a ValueError naming what."""
    if integer(what, value) < 0:
        raise ValueError(f"{what} must not be negative, got {value}")
    return value


def array_dtype(tp) -> np.dtype | None:
    """The dtype of an npt.NDArray[...] annotation; None for any other type."""
    return np.dtype(get_args(get_args(tp)[1])[0]) if get_origin(tp) is np.ndarray else None


@functools.cache  # get_type_hints re-evaluates string annotations per call
def typed_fields(cls) -> tuple[tuple[str, object], ...]:
    """(name, annotated type) of each field of the dataclass cls, in field order."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


@functools.cache
def _array_fields(cls) -> dict[str, np.dtype]:
    """Name -> dtype of each npt.NDArray[...] field of the dataclass cls."""
    return {name: dtype for name, tp in typed_fields(cls)
            if (dtype := array_dtype(tp)) is not None}


def same_kind(what: str, value, dtype) -> np.ndarray:
    """value as an array of dtype, cast within the dtype's kind (labels [0.5]
    are no int64); else a ValueError naming what."""
    arr = np.asarray(value)
    if not np.can_cast(arr.dtype, dtype, "same_kind"):
        raise ValueError(f"{what} holds {arr.dtype} values, which do not cast to {np.dtype(dtype)}")
    return arr.astype(dtype, copy=False)


def read_only(obj, **shapes: tuple[int, ...]) -> None:
    """Hold each npt.NDArray[...] field of the frozen dataclass obj as a read-only,
    C-ordered array of its dtype that shares memory with no writable array:
    kept if it is one, else copied. A cast must stay within the dtype's kind
    (same_kind); a field named in shapes must have that shape, else a
    DimensionMismatch."""
    for name, dtype in _array_fields(type(obj)).items():
        arr = base = np.asarray(getattr(obj, name))
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base  # numpy points a view's base at the array that owns the memory
        if base is not None or arr.dtype != dtype or not arr.flags.c_contiguous:
            arr = np.array(same_kind(name, arr, dtype), order="C")
            arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
        if name in shapes and arr.shape != shapes[name]:
            raise DimensionMismatch(f"{name} has shape {arr.shape}, expected {shapes[name]}")
