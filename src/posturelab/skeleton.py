"""25-joint body model: joint identifiers, bone topology, posture labels.

Joint and label index orders are frozen constants: feature vector layout and
confusion matrix layout depend on them, as does the dataset file format
(exact joint/label spellings are the wire contract).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np
import numpy.typing as npt

from .errors import MissingJoint, NonFiniteCoordinate, UnknownLabel, finite_real, read_only


class JointId(IntEnum):
    """The 25 tracked joints of the Kinect v2 body model, in canonical order."""

    SpineBase = 0
    SpineMid = 1
    Neck = 2
    Head = 3
    ShoulderLeft = 4
    ElbowLeft = 5
    WristLeft = 6
    HandLeft = 7
    ShoulderRight = 8
    ElbowRight = 9
    WristRight = 10
    HandRight = 11
    HipLeft = 12
    KneeLeft = 13
    AnkleLeft = 14
    FootLeft = 15
    HipRight = 16
    KneeRight = 17
    AnkleRight = 18
    FootRight = 19
    SpineShoulder = 20
    HandTipLeft = 21
    ThumbLeft = 22
    HandTipRight = 23
    ThumbRight = 24


NUM_JOINTS = 25

JOINT_NAMES: tuple[str, ...] = tuple(j.name for j in JointId)

# Spanning tree over the 25 joints, rooted at SpineBase. 24 (parent, child)
# bones; the standard Kinect v2 hierarchy.
BONES: tuple[tuple[JointId, JointId], ...] = (
    (JointId.SpineBase, JointId.SpineMid),
    (JointId.SpineMid, JointId.SpineShoulder),
    (JointId.SpineShoulder, JointId.Neck),
    (JointId.Neck, JointId.Head),
    (JointId.SpineShoulder, JointId.ShoulderLeft),
    (JointId.ShoulderLeft, JointId.ElbowLeft),
    (JointId.ElbowLeft, JointId.WristLeft),
    (JointId.WristLeft, JointId.HandLeft),
    (JointId.HandLeft, JointId.HandTipLeft),
    (JointId.WristLeft, JointId.ThumbLeft),
    (JointId.SpineShoulder, JointId.ShoulderRight),
    (JointId.ShoulderRight, JointId.ElbowRight),
    (JointId.ElbowRight, JointId.WristRight),
    (JointId.WristRight, JointId.HandRight),
    (JointId.HandRight, JointId.HandTipRight),
    (JointId.WristRight, JointId.ThumbRight),
    (JointId.SpineBase, JointId.HipLeft),
    (JointId.HipLeft, JointId.KneeLeft),
    (JointId.KneeLeft, JointId.AnkleLeft),
    (JointId.AnkleLeft, JointId.FootLeft),
    (JointId.SpineBase, JointId.HipRight),
    (JointId.HipRight, JointId.KneeRight),
    (JointId.KneeRight, JointId.AnkleRight),
    (JointId.AnkleRight, JointId.FootRight),
)


class PostureLabel(IntEnum):
    """The five posture classes, in the frozen confusion-matrix order."""

    Standing = 0
    Bending = 1
    Sitting = 2
    Walking = 3
    Crouching = 4


NUM_CLASSES = 5

LABEL_NAMES: tuple[str, ...] = tuple(c.name for c in PostureLabel)


def label_from_name(name: str, line: int | None = None) -> PostureLabel:
    try:
        return PostureLabel[name]
    except KeyError:
        raise UnknownLabel(name, line) from None


def class_indices(labels: np.ndarray) -> np.ndarray:
    """labels as int64 class indices; a label that is not an integer in 0-4
    (-1, 5 or 1.7) is an UnknownLabel."""
    known = np.zeros(labels.shape, dtype=bool)
    if labels.dtype.kind in "iu":
        known = (labels >= 0) & (labels < NUM_CLASSES)
    if not known.all():
        raise UnknownLabel(labels[~known][0].item())
    return labels.astype(np.int64, copy=False)


def joint_neighbors(j: JointId) -> tuple[JointId, ...]:
    """Neighbors of ``j`` in the bone tree, sorted by canonical index."""
    out = []
    for a, b in BONES:
        if a == j:
            out.append(b)
        elif b == j:
            out.append(a)
    return tuple(sorted(out))


def bone_pairs_at_joint(j: JointId) -> tuple[tuple[JointId, JointId], ...]:
    """All unordered pairs of bone-tree neighbors meeting at ``j``.

    Pairs come out lower-index-first, enumerated in lexicographic order.
    A leaf joint yields an empty tuple.
    """
    return tuple(combinations(joint_neighbors(j), 2))


# The 29 (endpoint, vertex, endpoint) triples of adjacent bone segments, per
# vertex joint in canonical order, neighbor pairs in the bone_pairs_at_joint
# order. This sequence fixes the layout of the adjacent-segment angle features.
ADJACENT_ANGLE_TRIPLES: tuple[tuple[JointId, JointId, JointId], ...] = tuple(
    (a, j, b) for j in JointId for a, b in bone_pairs_at_joint(j)
)


def check_finite(positions: np.ndarray) -> None:
    """NonFiniteCoordinate naming the first non-finite coordinate (C order)
    of positions (25, 3), or of an (n, 25, 3) stack and then its record too."""
    finite = np.isfinite(positions)
    if not finite.all():
        *record, joint, axis = map(int, np.unravel_index(np.argmin(finite), finite.shape))
        raise NonFiniteCoordinate(JointId(joint).name, "xyz"[axis],
                                  record=record[0] if record else None)


@dataclass(frozen=True)
class Skeleton:
    """One observed pose: 25 finite 3D joint positions (meters, camera frame).

    The positions array is (25, 3) float64 in canonical joint order and is
    read-only (errors.read_only), so skeletons are safe to share across tasks.
    A non-finite coordinate is a NonFiniteCoordinate.
    """

    positions: npt.NDArray[np.float64]

    def __post_init__(self):
        read_only(self, positions=(NUM_JOINTS, 3))
        check_finite(self.positions)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The positions: a sequence of skeletons converts as an (n, 25, 3) stack."""
        return np.array(self.positions, dtype=dtype, copy=copy)

    def __getitem__(self, j: JointId) -> np.ndarray:
        return self.positions[int(j)]

    @np.errstate(over="ignore", invalid="ignore")  # Skeleton reports a non-finite result
    def transformed(
        self,
        rotation: np.ndarray | None = None,
        translation: Sequence[float] | np.ndarray | None = None,
        scale: float = 1.0,
    ) -> "Skeleton":
        """Apply scale, then rotation, then translation to every joint."""
        pos = self.positions * float(scale)
        if rotation is not None:
            pos = pos @ np.asarray(rotation, dtype=np.float64).T
        if translation is not None:
            pos = pos + np.asarray(translation, dtype=np.float64)
        return Skeleton(pos)


def validate_skeleton(
    raw: Mapping[str, Iterable[float]], line: int | None = None
) -> Skeleton:
    """Build a Skeleton from a name -> (x, y, z) mapping.

    Total: either returns a Skeleton satisfying its invariants or raises a
    typed error; extra keys beyond the 25 canonical names are ignored.

    Raises:
        MissingJoint: a canonical joint name is absent.
        NonFiniteCoordinate: a coordinate is NaN/inf or not a number (a bool is
            none), or not 3 of them.
    """
    pos = np.empty((NUM_JOINTS, 3), dtype=np.float64)
    for j in JointId:
        if j.name not in raw:
            raise MissingJoint(j.name, line)
        coords = raw[j.name]
        coords = () if isinstance(coords, str) or not isinstance(coords, Iterable) else list(coords)
        if len(coords) != 3:
            raise NonFiniteCoordinate(j.name, "xyz", line)
        for axis, value in zip("xyz", coords):
            if not finite_real(value):
                raise NonFiniteCoordinate(j.name, axis, line)
        pos[int(j)] = coords
    return Skeleton(pos)
