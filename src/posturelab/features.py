"""Geometric features of a skeleton: normalized pairwise joint distances and
joint angles, individually or concatenated.

All features are invariant to rigid motion; distances are additionally made
scale-invariant by dividing by the spine segment length (SpineShoulder to
SpineMid), a proxy for the person's height.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import DegenerateNormalizer, NumericError, ZeroLengthSegment, choose
from .skeleton import (
    ADJACENT_ANGLE_TRIPLES,
    BONES,
    JOINT_NAMES,
    NUM_JOINTS,
    JointId,
    Skeleton,
)

NORMALIZER_FLOOR_M = 1e-6  # below sensor resolution; treat as a data error
SEGMENT_FLOOR = 1e-9

NUM_DISTANCE_FEATURES = NUM_JOINTS * (NUM_JOINTS - 1) // 2  # 300
_BLOCK = 64  # records per extract_matrix step: ~4 MB per all_triples temporary

# Lexicographic (i, j) pairs with i < j; row order of the distance features.
_PAIR_I, _PAIR_J = np.triu_indices(NUM_JOINTS, k=1)


class AngleMode(str, Enum):
    ADJACENT = "adjacent"
    ALL_TRIPLES = "all_triples"

    @classmethod
    def _missing_(cls, value):
        choose("angle mode", value, [m.value for m in cls])  # raises: value is no mode


# (endpoint, vertex, endpoint) joint rows per mode; a triple i < j < k has vertex j.
_ANGLE_TRIPLES = {
    AngleMode.ADJACENT: np.array(ADJACENT_ANGLE_TRIPLES).T,
    AngleMode.ALL_TRIPLES: np.array(list(combinations(range(NUM_JOINTS), 3))).T,
}

# Feature set name -> (use_distances, use_angles)
FEATURE_SETS = {"distances": (True, False), "angles": (False, True), "combined": (True, True)}


@dataclass(frozen=True)
class FeatureConfig:
    """Which feature families to extract and how angles are enumerated."""

    use_distances: bool = True
    use_angles: bool = True
    angle_mode: AngleMode = AngleMode.ADJACENT

    def __post_init__(self):
        if not (self.use_distances or self.use_angles):
            raise ValueError("at least one feature family must be enabled")
        object.__setattr__(self, "angle_mode", AngleMode(self.angle_mode))

    @property
    def length(self) -> int:
        n = NUM_DISTANCE_FEATURES if self.use_distances else 0
        if self.use_angles:
            n += _ANGLE_TRIPLES[self.angle_mode].shape[1]
        return n

    @property
    def name(self) -> str:
        families = (self.use_distances, self.use_angles)
        return next(name for name, sets in FEATURE_SETS.items() if sets == families)

    @staticmethod
    def from_name(features: str, angle_mode: str = angle_mode) -> "FeatureConfig":
        """The config of a FEATURE_SETS name; in the class body, angle_mode is
        the field's default."""
        families = FEATURE_SETS[choose("feature set", features, FEATURE_SETS)]
        return FeatureConfig(*families, angle_mode)


@functools.cache  # per frame it would rebuild and re-hash the same string
def config_fingerprint(cfg: FeatureConfig) -> str:
    """Stable hash of (feature config, joint order, bone topology).

    Models refuse feature vectors whose fingerprint differs from the one they
    were trained with.
    """
    h = hashlib.sha256()
    h.update(
        f"distances={int(cfg.use_distances)};angles={int(cfg.use_angles)};"
        f"mode={cfg.angle_mode.value};".encode()
    )
    h.update(",".join(JOINT_NAMES).encode())
    h.update(";".join(f"{int(a)}-{int(b)}" for a, b in BONES).encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class FeatureVector:
    """A fixed-length feature vector plus the fingerprint of its layout."""

    values: np.ndarray
    fingerprint: str

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _spine_lengths(pos: np.ndarray) -> np.ndarray:
    """SpineShoulder-SpineMid lengths; DegenerateNormalizer below 1e-6 m.

    For a stack, the error names the first degenerate record's index. The
    length is a matmul: norm(axis=-1) and einsum differ from the norm of one
    3-vector in the last bit.
    """
    d = pos[..., JointId.SpineShoulder, :] - pos[..., JointId.SpineMid, :]
    length = np.sqrt(d[..., None, :] @ d[..., :, None])[..., 0, 0]
    short = length < NORMALIZER_FLOOR_M
    if not short.any():
        return length
    bad = np.flatnonzero(short)
    record = f"record {bad[0]}: " if length.ndim else ""
    raise DegenerateNormalizer(
        f"{record}spine segment length {length.flat[bad[0]]:.3e} m "
        f"is below {NORMALIZER_FLOOR_M} m"
    )


def _norms(x: np.ndarray) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) of real x without its dispatch: the same
    multiply, add.reduce and sqrt that norm runs for real input, so the same
    bits."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def _angles_at(pos: np.ndarray, ia, iv, ib) -> tuple[np.ndarray, int]:
    """Angles at vertex joints iv toward endpoint joints ia and ib.

    Degenerate entries (a ray at or below the segment floor) yield 0 and are
    counted instead of raising, so one bad joint cannot discard a whole vector.
    """
    vertex = pos.take(iv, axis=-2)  # take gathers what [..., iv, :] does, faster
    u = pos.take(ia, axis=-2) - vertex
    v = pos.take(ib, axis=-2) - vertex
    nu = _norms(u)
    nv = _norms(v)
    ok = (nu > SEGMENT_FLOOR) & (nv > SEGMENT_FLOOR)
    denom = np.where(ok, nu * nv, 1.0)
    cosine = np.einsum("...ij,...ij->...i", u, v) / denom
    np.minimum(np.maximum(cosine, -1.0, out=cosine), 1.0, out=cosine)  # clip, undispatched
    angles = np.where(ok, np.arccos(cosine), 0.0)
    return angles, int(np.count_nonzero(~ok))


def _values(pos: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Feature values of positions (..., 25, 3), one skeleton or a stack, with
    the same bits for a record either way: distances, then angles."""
    parts = []
    if cfg.use_distances:
        diffs = pos.take(_PAIR_I, axis=-2) - pos.take(_PAIR_J, axis=-2)
        parts.append(_norms(diffs) / _spine_lengths(pos)[..., None])
    if cfg.use_angles:
        parts.append(_angles_at(pos, *_ANGLE_TRIPLES[cfg.angle_mode])[0])
    return np.concatenate(parts, axis=-1)


def _finite(values: np.ndarray) -> np.ndarray:
    """values, or NumericError naming the first record (row) with a non-finite
    entry: finite coordinates so large that the geometry overflows."""
    finite = np.isfinite(values)
    if finite.all():
        return values
    bad = np.flatnonzero(~finite.all(axis=-1))
    record = f"record {bad[0]}: " if values.ndim > 1 else ""
    raise NumericError(f"{record}feature values overflow; the coordinates are too large")


def normalizer(skel: Skeleton) -> float:
    """Length of the SpineShoulder-SpineMid segment (the scale reference).

    Raises DegenerateNormalizer when shorter than 1e-6 m.
    """
    return float(_spine_lengths(skel.positions))


def pairwise_distances(skel: Skeleton) -> np.ndarray:
    """All 300 normalized joint-pair distances.

    Entry order is the lexicographic order of index pairs (i, j), i < j.
    """
    return _values(skel.positions, FeatureConfig(True, False))


def joint_angle(a, b, c) -> float:
    """Angle at vertex ``b`` between rays b->a and b->c, in [0, pi].

    Raises ZeroLengthSegment if either ray is shorter than 1e-9.
    """
    pos = np.array([a, b, c], dtype=np.float64)
    angles, degenerate = _angles_at(pos, [0], [1], [2])
    if degenerate:
        raise ZeroLengthSegment(
            f"a ray at the angle vertex is not longer than {SEGMENT_FLOOR}"
        )
    return float(angles[0])


def angle_features(
    skel: Skeleton, mode: AngleMode = AngleMode.ADJACENT
) -> tuple[np.ndarray, int]:
    """Angle features plus the count of degenerate (zeroed) entries.

    ADJACENT: the 29 angles between bone segments meeting at each joint.
    ALL_TRIPLES: one angle per joint triple {i < j < k}, vertex at j; 2300
    entries in lexicographic triple order.
    """
    return _angles_at(skel.positions, *_ANGLE_TRIPLES[AngleMode(mode)])


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def extract(skel: Skeleton, cfg: FeatureConfig) -> FeatureVector:
    """Feature vector for one skeleton under ``cfg``: distances, then angles."""
    return FeatureVector(_finite(_values(skel.positions, cfg)), config_fingerprint(cfg))


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def extract_matrix(skeletons, cfg: FeatureConfig) -> tuple[np.ndarray, str]:
    """(n, d) matrix whose row i equals extract(skeletons[i], cfg).values.

    The matrix is C-ordered: the standardizer's column sums depend on it.
    """
    fingerprint = config_fingerprint(cfg)
    pos = np.array([s.positions for s in skeletons]).reshape(-1, NUM_JOINTS, 3)
    if cfg.use_distances:
        _spine_lengths(pos)  # names a degenerate record by its stack index
    X = np.empty((len(pos), cfg.length))
    for lo in range(0, len(pos), _BLOCK):
        X[lo : lo + _BLOCK] = _values(pos[lo : lo + _BLOCK], cfg)
    return _finite(X), fingerprint
