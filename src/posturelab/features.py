"""Geometric features of a skeleton: normalized pairwise joint distances and
joint angles, individually or concatenated.

All features are invariant to rigid motion; distances are additionally made
scale-invariant by dividing by the spine segment length (SpineShoulder to
SpineMid), a proxy for the person's height. An angle feature is the angle's
cosine, clipped to [-1, 1].

Every product of 3-vectors is the elementwise _dots, and every length is its
square root, so neither a BLAS kernel nor numpy's SIMD dispatch decides a
feature bit, and the normalized (SpineMid, SpineShoulder) distance is exactly
1.0 for every record, from extract and from extract_matrix alike.
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
# The distance features of each mode's two rays (endpoint a to vertex, endpoint
# b to vertex): |a - v| and |v - a| have the same bits, so a ray's norm is the
# norm of its pair's difference.
_RAY_PAIRS = {mode: (_PAIR_OF[ia, iv], _PAIR_OF[ib, iv])
              for mode, (ia, iv, ib) in _ANGLE_TRIPLES.items()}

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
    """Dot products of 3-vectors u and v (..., 3): (u₀v₀ + u₁v₁) + u₂v₂,
    elementwise."""
    p = u * v  # keeps the memory order: for a swapped planes view, three rows
    return (p[..., 0] + p[..., 1]) + p[..., 2]


def _lengths(d: np.ndarray) -> np.ndarray:
    """Lengths of 3-vectors d (..., 3): sqrt((x² + y²) + z²)."""
    return np.sqrt(_dots(d, d))


def _spine_lengths(pos: np.ndarray) -> np.ndarray:
    """SpineShoulder-SpineMid lengths of positions (..., 25, 3), the bits of that
    pair's distance; below 1e-6 m a DegenerateNormalizer, which names a stack's
    first degenerate record."""
    length = _lengths(pos[..., JointId.SpineShoulder, :] - pos[..., JointId.SpineMid, :])
    short = length < NORMALIZER_FLOOR_M
    if not short.any():
        return length
    bad = np.flatnonzero(short)
    record = f"record {bad[0]}: " if length.ndim else ""
    raise DegenerateNormalizer(
        f"{record}spine segment length {length.flat[bad[0]]:.3e} m "
        f"is below {NORMALIZER_FLOOR_M} m"
    )


def _cosines_at(pos: np.ndarray, ia, iv, ib, norms=None) -> tuple[np.ndarray, np.ndarray]:
    """Cosines of the angles at vertex joints iv toward endpoint joints ia and
    ib, clipped to [-1, 1], and the mask of the entries that are not degenerate.

    norms, when given, are the rays' lengths with the bits _lengths gives them.
    Degenerate entries (a ray at or below the segment floor) yield 0, the
    cosine of a right angle, instead of raising, so one bad joint cannot
    discard a whole vector.
    """
    vertex = pos.take(iv, axis=-2)  # take gathers what [..., iv, :] does, faster
    u = pos.take(ia, axis=-2) - vertex
    v = pos.take(ib, axis=-2) - vertex
    nu, nv = (_lengths(u), _lengths(v)) if norms is None else norms
    ok = (nu > SEGMENT_FLOOR) & (nv > SEGMENT_FLOOR)
    denom = np.where(ok, nu * nv, 1.0)
    cosine = _dots(u, v) / denom
    np.minimum(np.maximum(cosine, -1.0, out=cosine), 1.0, out=cosine)  # clip, undispatched
    return np.where(ok, cosine, 0.0), ok


def _values(pos: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """Feature values of positions (..., 25, 3), one skeleton or a stack, with
    the same bits for a record either way: distances, then angles.

    The pair differences are taken on the x, y and z planes (..., 3, 300).
    With distances, the angle rays' norms are these lengths."""
    parts, norms = [], None
    if cfg.use_distances:
        planes = pos.swapaxes(-1, -2)
        diffs = planes.take(_PAIR_I, axis=-1) - planes.take(_PAIR_J, axis=-1)
        lengths = _lengths(diffs.swapaxes(-1, -2))
        parts.append(lengths / _spine_lengths(pos)[..., None])
        if cfg.use_angles:
            norms = [lengths.take(rays, axis=-1) for rays in _RAY_PAIRS[cfg.angle_mode]]
    if cfg.use_angles:
        parts.append(_cosines_at(pos, *_ANGLE_TRIPLES[cfg.angle_mode], norms)[0])
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
    """Angle at vertex ``b`` between rays b->a and b->c, in [0, pi]: the
    arccos of the cosine that the angle features hold.

    Raises ZeroLengthSegment if either ray is shorter than 1e-9.
    """
    pos = np.array([a, b, c], dtype=np.float64)
    cosines, ok = _cosines_at(pos, [0], [1], [2])
    if not ok.all():
        raise ZeroLengthSegment(
            f"a ray at the angle vertex is not longer than {SEGMENT_FLOOR}"
        )
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
    cosines, ok = _cosines_at(skel.positions, *_ANGLE_TRIPLES[AngleMode(mode)])
    return cosines, int(np.count_nonzero(~ok))


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def extract(skel: Skeleton, cfg: FeatureConfig) -> FeatureVector:
    """Feature vector for one skeleton under ``cfg``: distances, then angles."""
    values = _finite(_values(skel.positions, cfg))
    values.setflags(write=False)  # a fresh array: FeatureVector holds it uncopied
    return FeatureVector(values, config_fingerprint(cfg))


@np.errstate(over="ignore", invalid="ignore")  # _finite reports an overflow
def extract_matrix(skeletons, cfg: FeatureConfig) -> tuple[np.ndarray, str]:
    """(n, d) matrix whose row i equals extract(skeletons[i], cfg).values, of
    an (n, 25, 3) positions stack or a sequence of Skeletons. A non-finite
    coordinate of the stack is a NonFiniteCoordinate naming its record.

    The matrix is C-ordered: the standardizer's column sums depend on it.
    """
    fingerprint = config_fingerprint(cfg)
    pos = np.asarray(skeletons, dtype=np.float64)
    if pos.shape != (0,) and pos.shape[1:] != (NUM_JOINTS, 3):  # (0,): no records
        raise DimensionMismatch(f"expected an (n, {NUM_JOINTS}, 3) stack, got {pos.shape}")
    pos = pos.reshape(-1, NUM_JOINTS, 3)
    check_finite(pos)
    if cfg.use_distances:
        _spine_lengths(pos)  # names a degenerate record by its stack index
    X = np.empty((len(pos), cfg.length))
    for lo in range(0, len(pos), _BLOCK):
        X[lo : lo + _BLOCK] = _values(pos[lo : lo + _BLOCK], cfg)
    return _finite(X), fingerprint
