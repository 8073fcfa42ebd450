"""Geometric features of a skeleton: normalized pairwise joint distances and
joint angles, individually or concatenated.

All features are invariant to rigid motion; distances are additionally made
scale-invariant by dividing by the spine segment length (SpineShoulder to
SpineMid), a proxy for the person's height. An angle feature is the angle's
cosine, clipped to [-1, 1].

Every feature reads one table of joint-pair differences pos[i] - pos[j]
(i < j) and their lengths: a distance is a column's length over the spine
column's, and an angle's two rays are two columns. Every product of
3-vectors is the elementwise _dots and every length its square root, so no
BLAS kernel or SIMD dispatch decides a feature bit, and the normalized spine
distance is exactly 1.0 for every record, in extract and extract_matrix alike.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np
import numpy.typing as npt

from .errors import (DegenerateNormalizer, DimensionMismatch, NumericError, ZeroLengthSegment,
                     boolean, choose, read_only)
from .skeleton import (
    ADJACENT_ANGLE_TRIPLES,
    BONES,
    JOINT_NAMES,
    NUM_JOINTS,
    JointId,
    Skeleton,
    check_finite,
)

NORMALIZER_FLOOR_M = 1e-6  # below sensor resolution; treat as a data error
SEGMENT_FLOOR = 1e-9

NUM_DISTANCE_FEATURES = NUM_JOINTS * (NUM_JOINTS - 1) // 2  # 300
_BLOCK = 64  # records per extract_matrix step: ~4 MB per all_triples temporary

# Lexicographic (i, j) pairs with i < j; row order of the distance features.
_PAIR_I, _PAIR_J = np.triu_indices(NUM_JOINTS, k=1)
# _PAIR_OF[i, j]: the distance feature of joints i and j, in either order.
_PAIR_OF = np.zeros((NUM_JOINTS, NUM_JOINTS), dtype=np.int64)
_PAIR_OF[_PAIR_I, _PAIR_J] = _PAIR_OF[_PAIR_J, _PAIR_I] = np.arange(NUM_DISTANCE_FEATURES)
_SPINE = _PAIR_OF[JointId.SpineMid, JointId.SpineShoulder]


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
        families = [boolean(name, getattr(self, name)) for name in ("use_distances", "use_angles")]
        if not any(families):
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
    """Stable hash of (feature config, angle encoding, joint order, bone
    topology).

    Models refuse feature vectors whose fingerprint differs from the one they
    were trained with. The angles field names the encoding, so a model of
    angles in radians (hashed as "angles=1") refuses cosine features.
    """
    h = hashlib.sha256()
    angles = "cosine" if cfg.use_angles else "0"
    h.update(
        f"distances={int(cfg.use_distances)};angles={angles};"
        f"mode={cfg.angle_mode.value};".encode()
    )
    h.update(",".join(JOINT_NAMES).encode())
    h.update(";".join(f"{int(a)}-{int(b)}" for a, b in BONES).encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class FeatureVector:
    """A fixed-length feature vector plus the fingerprint of its layout."""

    values: npt.NDArray[np.float64]
    fingerprint: str

    def __post_init__(self):
        read_only(self)


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot products (u₀v₀ + u₁v₁) + u₂v₂ of 3-vectors u and v (k, 3, ...)."""
    p = u * v
    return (p[:, 0] + p[:, 1]) + p[:, 2]


def _layout(distances: bool, triples=None):
    """(i, j, distances, rays): the table's pair columns, all 300 with
    distances, else only the rays; and each (endpoint a, vertex v, endpoint b)
    triple's two ray columns and sign. The column of pair {a, v} is
    pos[a] - pos[v] or its negation, so the sign is +1 iff (a < v) == (b < v)."""
    if triples is None:
        return _PAIR_I, _PAIR_J, distances, None
    ia, iv, ib = triples
    rays = _PAIR_OF[ia, iv], _PAIR_OF[ib, iv]
    columns = np.arange(NUM_DISTANCE_FEATURES) if distances else np.unique(rays)
    sign = np.where((ia < iv) == (ib < iv), 1.0, -1.0)
    return _PAIR_I[columns], _PAIR_J[columns], distances, (*np.searchsorted(columns, rays), sign)


# Each config's layout; joint_angle's is its one triple (a, b, c), rows 0-2.
_LAYOUTS = {FeatureConfig(d, a, mode): _layout(d, _ANGLE_TRIPLES[mode] if a else None)
            for d, a in FEATURE_SETS.values() for mode in AngleMode}
_ONE_ANGLE = _layout(False, np.array([[0], [1], [2]]))


def _check(ok: np.ndarray, first: int, error, message) -> None:
    """Nothing if ok holds, one bool or one per record of a stack counted from
    first; else error(message(k)), naming a stack's first failing record k."""
    if not ok.all():
        k = np.flatnonzero(~ok)[0]
        raise error(f"record {first + k}: {message(k)}" if ok.ndim else message(k))


def _table(joints: np.ndarray, i, j, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The differences joints[i] - joints[j] (k, 3, ...) of positions (25, 3,
    ...) and their lengths (k, ...); NumericError for a non-finite length. A
    finite length is at most sqrt(DBL_MAX), so a product of two is finite."""
    diffs = joints.take(i, axis=0) - joints.take(j, axis=0)
    lengths = np.sqrt(_dots(diffs, diffs))
    if not lengths.max() < np.inf:  # NaN fails too
        _check(np.isfinite(lengths).all(axis=0), first, NumericError,
               lambda k: "feature values overflow; the coordinates are too large")
    return diffs, lengths


def _spine(lengths: np.ndarray, first: int = 0) -> np.ndarray:
    """The spine column of 300-pair lengths; below 1e-6 m a DegenerateNormalizer."""
    spine = lengths[_SPINE]
    _check(spine >= NORMALIZER_FLOOR_M, first, DegenerateNormalizer, lambda k:
           f"spine segment length {spine.flat[k]:.3e} m is below {NORMALIZER_FLOOR_M} m")
    return spine


def _cosines(diffs, lengths, rays, out) -> np.ndarray:
    """Writes the signed cosines of table columns ra and rb, clipped to [-1, 1],
    to out; returns the mask of the entries not degenerate. A degenerate entry
    (a ray at or below the segment floor) reads +0.0, a right angle's cosine, so
    one bad joint cannot discard a whole vector; so does every exact zero."""
    ra, rb, sign = rays
    divisors = np.where(lengths > SEGMENT_FLOOR, lengths, np.inf)  # a degenerate ray: ±0
    denom = divisors.take(ra, axis=0) * divisors.take(rb, axis=0)
    np.multiply(denom.T, sign, out=denom.T)  # the triples' axis is last in .T
    cosine = _dots(diffs.take(ra, axis=0), diffs.take(rb, axis=0)) / denom
    np.minimum(np.maximum(cosine, -1.0, out=cosine), 1.0, out=cosine)  # clip, undispatched
    np.add(cosine, 0.0, out=out)  # -0.0 + 0.0 is +0.0; every other value keeps its bits
    return np.isfinite(denom)


@np.errstate(over="ignore", invalid="ignore")  # _table reports an overflow
def _values(pos: np.ndarray, layout, out: np.ndarray, first: int = 0) -> np.ndarray | None:
    """Writes the features of positions (25, 3), or of a stack (n, 25, 3) made
    joint-major so that a pair's gather copies one block, to out (d) or (n, d)
    with the same bits either way: distances, then angles. Returns the angles'
    non-degenerate mask; a stack's errors count its records from first."""
    i, j, distances, rays = layout
    joints = np.ascontiguousarray(np.moveaxis(pos, 0, -1)) if pos.ndim == 3 else pos
    diffs, lengths = _table(joints, i, j, first)
    if distances:
        np.divide(lengths, _spine(lengths, first), out=out.T[:NUM_DISTANCE_FEATURES])
    if rays is not None:
        return _cosines(diffs, lengths, rays, out.T[NUM_DISTANCE_FEATURES * distances :])


@np.errstate(over="ignore", invalid="ignore")  # _table reports an overflow
def normalizer(skel: Skeleton) -> float:
    """Length of the SpineShoulder-SpineMid segment (the scale reference).

    Raises DegenerateNormalizer when shorter than 1e-6 m.
    """
    return float(_spine(_table(skel.positions, _PAIR_I, _PAIR_J)[1]))


def pairwise_distances(skel: Skeleton) -> np.ndarray:
    """All 300 normalized joint-pair distances.

    Entry order is the lexicographic order of index pairs (i, j), i < j.
    """
    values = np.empty(NUM_DISTANCE_FEATURES)
    _values(skel.positions, _LAYOUTS[FeatureConfig(True, False)], values)
    return values


def joint_angle(a, b, c) -> float:
    """Angle at vertex ``b`` between rays b->a and b->c, in [0, pi]: the
    arccos of the cosine that the angle features hold.

    Raises ZeroLengthSegment if either ray is shorter than 1e-9, and
    DimensionMismatch unless each point is three numbers.
    """
    try:
        pos = np.array([a, b, c], dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        pos = np.empty(0)
    if pos.shape != (3, 3):
        raise DimensionMismatch(f"points must be three numbers each, got {a!r}, {b!r}, {c!r}")
    check_finite(pos, "abc")
    cosines = np.empty(1)
    if not _values(pos, _ONE_ANGLE, cosines).all():
        raise ZeroLengthSegment(f"a ray at the angle vertex is not longer than {SEGMENT_FLOOR}")
    return float(np.arccos(cosines[0]))


def angle_features(
    skel: Skeleton, mode: AngleMode = AngleMode.ADJACENT
) -> tuple[np.ndarray, int]:
    """Angle features, the cosines of the angles in [-1, 1], plus the count
    of degenerate entries, which read 0 (a right angle).

    ADJACENT: the 29 angles between bone segments meeting at each joint.
    ALL_TRIPLES: one angle per joint triple {i < j < k}, vertex at j; 2300
    entries in lexicographic triple order.
    """
    cfg = FeatureConfig(False, True, mode)
    cosines = np.empty(cfg.length)
    degenerate = ~_values(skel.positions, _LAYOUTS[cfg], cosines)
    return cosines, int(np.count_nonzero(degenerate))


def extract(skel: Skeleton, cfg: FeatureConfig) -> FeatureVector:
    """Feature vector for one skeleton under ``cfg``: distances, then angles."""
    values = np.empty(cfg.length)
    _values(skel.positions, _LAYOUTS[cfg], values)
    values.setflags(write=False)  # a fresh array: FeatureVector holds it uncopied
    return FeatureVector(values, config_fingerprint(cfg))


def extract_matrix(skeletons, cfg: FeatureConfig) -> tuple[np.ndarray, str]:
    """(n, d) matrix whose row i equals extract(skeletons[i], cfg).values, of
    an (n, 25, 3) positions stack or a sequence of Skeletons. A non-finite
    coordinate, a degenerate spine or an overflow names its record.

    The matrix is C-ordered: the standardizer's column sums depend on it.
    """
    pos = np.asarray(skeletons, dtype=np.float64)
    if pos.shape != (0,) and pos.shape[1:] != (NUM_JOINTS, 3):  # (0,): no records
        raise DimensionMismatch(f"expected an (n, {NUM_JOINTS}, 3) stack, got {pos.shape}")
    pos = pos.reshape(-1, NUM_JOINTS, 3)
    check_finite(pos)
    X = np.empty((len(pos), cfg.length))
    for lo in range(0, len(pos), _BLOCK):
        _values(pos[lo : lo + _BLOCK], _LAYOUTS[cfg], X[lo : lo + _BLOCK], lo)
    return X, config_fingerprint(cfg)
