"""Geometric features of a skeleton: normalized pairwise joint distances and
joint angles, individually or concatenated.

All features are invariant to rigid motion; distances are additionally made
scale-invariant by dividing by the spine segment length (SpineShoulder to
SpineMid), a proxy for the person's height.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np

from .errors import DegenerateNormalizer, ZeroLengthSegment
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
NUM_ADJACENT_ANGLES = len(ADJACENT_ANGLE_TRIPLES)  # 29
NUM_TRIPLE_ANGLES = NUM_JOINTS * (NUM_JOINTS - 1) * (NUM_JOINTS - 2) // 6  # 2300

# Lexicographic (i, j) pairs with i < j; row order of the distance features.
_PAIR_I, _PAIR_J = np.triu_indices(NUM_JOINTS, k=1)

# Lexicographic {i < j < k} triples, vertex fixed at the middle index j.
_TRIPLES = np.array(list(combinations(range(NUM_JOINTS), 3)), dtype=np.intp)

_ADJ_A = np.array([int(a) for a, _, _ in ADJACENT_ANGLE_TRIPLES], dtype=np.intp)
_ADJ_V = np.array([int(v) for _, v, _ in ADJACENT_ANGLE_TRIPLES], dtype=np.intp)
_ADJ_B = np.array([int(b) for _, _, b in ADJACENT_ANGLE_TRIPLES], dtype=np.intp)


class AngleMode(str, Enum):
    ADJACENT = "adjacent"
    ALL_TRIPLES = "all_triples"


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
            n += (
                NUM_ADJACENT_ANGLES
                if self.angle_mode is AngleMode.ADJACENT
                else NUM_TRIPLE_ANGLES
            )
        return n

    @property
    def name(self) -> str:
        if self.use_distances and self.use_angles:
            return "combined"
        return "distances" if self.use_distances else "angles"

    @staticmethod
    def from_name(features: str, angle_mode: str = "adjacent") -> "FeatureConfig":
        mode = AngleMode(angle_mode)
        if features == "distances":
            return FeatureConfig(True, False, mode)
        if features == "angles":
            return FeatureConfig(False, True, mode)
        if features == "combined":
            return FeatureConfig(True, True, mode)
        raise ValueError(f"unknown feature set {features!r}")


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
    """A fixed-length feature vector plus the fingerprint of its layout.

    degenerate_angles counts angle entries that fell back to 0 because a
    segment of the triple had (near-)zero length.
    """

    values: np.ndarray
    fingerprint: str
    degenerate_angles: int = 0

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def normalizer(skel: Skeleton) -> float:
    """Length of the SpineShoulder-SpineMid segment (the scale reference).

    Raises DegenerateNormalizer when shorter than 1e-6 m.
    """
    d = float(
        np.linalg.norm(skel[JointId.SpineShoulder] - skel[JointId.SpineMid])
    )
    if d < NORMALIZER_FLOOR_M:
        raise DegenerateNormalizer(
            f"spine segment length {d:.3e} m is below {NORMALIZER_FLOOR_M} m"
        )
    return d


def pairwise_distances(skel: Skeleton) -> np.ndarray:
    """All 300 normalized joint-pair distances.

    Entry order is the lexicographic order of index pairs (i, j), i < j.
    """
    scale = normalizer(skel)
    pos = skel.positions
    diffs = pos[_PAIR_I] - pos[_PAIR_J]
    return np.linalg.norm(diffs, axis=1) / scale


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


def _angles_at(pos: np.ndarray, ia, iv, ib) -> tuple[np.ndarray, int]:
    """Vectorized angles for vertex rows iv toward endpoint rows ia and ib.

    Degenerate entries (a ray at or below the segment floor) yield 0 and are
    counted instead of raising, so one bad joint cannot discard a whole vector.
    """
    u = pos[ia] - pos[iv]
    v = pos[ib] - pos[iv]
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    ok = (nu > SEGMENT_FLOOR) & (nv > SEGMENT_FLOOR)
    denom = np.where(ok, nu * nv, 1.0)
    cosine = np.clip(np.einsum("ij,ij->i", u, v) / denom, -1.0, 1.0)
    angles = np.where(ok, np.arccos(cosine), 0.0)
    return angles, int(np.count_nonzero(~ok))


def angle_features(
    skel: Skeleton, mode: AngleMode = AngleMode.ADJACENT
) -> tuple[np.ndarray, int]:
    """Angle features plus the count of degenerate (zeroed) entries.

    ADJACENT: the 29 angles between bone segments meeting at each joint.
    ALL_TRIPLES: one angle per joint triple {i < j < k}, vertex at j; 2300
    entries in lexicographic triple order.
    """
    mode = AngleMode(mode)
    pos = skel.positions
    if mode is AngleMode.ADJACENT:
        return _angles_at(pos, _ADJ_A, _ADJ_V, _ADJ_B)
    return _angles_at(pos, _TRIPLES[:, 0], _TRIPLES[:, 1], _TRIPLES[:, 2])


def _values(skel: Skeleton, cfg: FeatureConfig) -> tuple[np.ndarray, int]:
    """Feature values of one skeleton and its count of degenerate angles."""
    parts = []
    degenerate = 0
    if cfg.use_distances:
        parts.append(pairwise_distances(skel))
    if cfg.use_angles:
        angles, degenerate = angle_features(skel, cfg.angle_mode)
        parts.append(angles)
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return values, degenerate


def extract(skel: Skeleton, cfg: FeatureConfig) -> FeatureVector:
    """Feature vector for one skeleton under ``cfg``: distances, then angles."""
    values, degenerate = _values(skel, cfg)
    return FeatureVector(values, config_fingerprint(cfg), degenerate)


def extract_matrix(skeletons, cfg: FeatureConfig) -> tuple[np.ndarray, str]:
    """Stack feature vectors for many skeletons into an (n, d) matrix."""
    fingerprint = config_fingerprint(cfg)
    if not skeletons:
        return np.empty((0, cfg.length)), fingerprint
    return np.vstack([_values(s, cfg)[0] for s in skeletons]), fingerprint
