import math

import numpy as np
import pytest

from posturelab.errors import MissingJoint, NonFiniteCoordinate
from posturelab.skeleton import (
    ADJACENT_ANGLE_TRIPLES,
    BONES,
    JOINT_NAMES,
    LABEL_NAMES,
    NUM_JOINTS,
    JointId,
    PostureLabel,
    Skeleton,
    bone_pairs_at_joint,
    joint_neighbors,
    validate_skeleton,
)


def full_joint_map(value=(0.0, 0.0, 0.0)):
    return {name: list(value) for name in JOINT_NAMES}


class TestJointModel:
    def test_canonical_order_is_frozen(self):
        assert len(JOINT_NAMES) == 25
        assert JOINT_NAMES[0] == "SpineBase"
        assert JOINT_NAMES[20] == "SpineShoulder"
        assert JOINT_NAMES[24] == "ThumbRight"
        assert [int(j) for j in JointId] == list(range(25))

    def test_label_order_is_frozen(self):
        assert LABEL_NAMES == ("Standing", "Bending", "Sitting", "Walking", "Crouching")
        assert int(PostureLabel.Crouching) == 4

    def test_bones_form_spanning_tree(self):
        assert len(BONES) == 24
        # union-find over the bone edges: 24 edges joining 25 nodes with no
        # cycle means a spanning tree
        parent = list(range(NUM_JOINTS))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in BONES:
            ra, rb = find(int(a)), find(int(b))
            assert ra != rb, f"cycle introduced by bone {a}-{b}"
            parent[ra] = rb
        assert len({find(i) for i in range(NUM_JOINTS)}) == 1


class TestBonePairs:
    def test_leaf_joint_has_no_pairs(self):
        assert bone_pairs_at_joint(JointId.Head) == ()

    def test_degree_two_joint(self):
        assert bone_pairs_at_joint(JointId.SpineMid) == (
            (JointId.SpineBase, JointId.SpineShoulder),
        )

    def test_spine_shoulder_pairs_match_enumeration(self):
        nbrs = joint_neighbors(JointId.SpineShoulder)
        assert nbrs == (
            JointId.SpineMid,
            JointId.Neck,
            JointId.ShoulderLeft,
            JointId.ShoulderRight,
        )
        expected = [
            (nbrs[i], nbrs[k])
            for i in range(len(nbrs))
            for k in range(i + 1, len(nbrs))
        ]
        assert list(bone_pairs_at_joint(JointId.SpineShoulder)) == expected
        assert len(expected) == 6  # C(4, 2)

    def test_pairs_are_lower_index_first(self):
        for j in JointId:
            for a, b in bone_pairs_at_joint(j):
                assert int(a) < int(b)

    def test_adjacent_angle_count_is_29(self):
        # independent enumeration: sum over joints of C(degree, 2)
        degree = {j: 0 for j in JointId}
        for a, b in BONES:
            degree[a] += 1
            degree[b] += 1
        total = sum(d * (d - 1) // 2 for d in degree.values())
        assert total == 29
        assert len(ADJACENT_ANGLE_TRIPLES) == total


class TestValidateSkeleton:
    def test_well_formed_input(self):
        raw = full_joint_map()
        raw["Head"] = [0.1, 1.7, 0.2]
        skel = validate_skeleton(raw)
        assert isinstance(skel, Skeleton)
        assert np.allclose(skel[JointId.Head], [0.1, 1.7, 0.2])

    def test_extra_keys_are_ignored(self):
        raw = full_joint_map()
        raw["NotAJoint"] = [1, 2, 3]
        validate_skeleton(raw)

    def test_missing_joint(self):
        raw = full_joint_map()
        del raw["Head"]
        with pytest.raises(MissingJoint) as exc:
            validate_skeleton(raw)
        assert exc.value.name == "Head"

    def test_nan_coordinate(self):
        raw = full_joint_map()
        raw["Head"] = [0.0, 0.0, math.nan]
        with pytest.raises(NonFiniteCoordinate) as exc:
            validate_skeleton(raw)
        assert exc.value.joint == "Head"
        assert exc.value.axis == "z"

    def test_infinite_coordinate(self):
        raw = full_joint_map()
        raw["FootLeft"] = [math.inf, 0.0, 0.0]
        with pytest.raises(NonFiniteCoordinate):
            validate_skeleton(raw)

    def test_wrong_arity(self):
        raw = full_joint_map()
        raw["Neck"] = [1.0, 2.0]
        with pytest.raises(NonFiniteCoordinate):
            validate_skeleton(raw)

    def test_non_numeric_coordinate(self):
        raw = full_joint_map()
        raw["Neck"] = [1.0, "oops", 2.0]
        with pytest.raises(NonFiniteCoordinate):
            validate_skeleton(raw)

    def test_positions_are_immutable(self):
        skel = validate_skeleton(full_joint_map())
        with pytest.raises(ValueError):
            skel.positions[0, 0] = 1.0


class TestSkeletonInvariant:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_names_the_first(self, value):
        pos = np.zeros((NUM_JOINTS, 3))
        pos[JointId.KneeRight, 1] = pos[JointId.FootRight, 0] = value
        with pytest.raises(NonFiniteCoordinate) as exc:
            Skeleton(pos)
        assert (exc.value.joint, exc.value.axis) == ("KneeRight", "y")
        assert str(exc.value) == "non-finite y coordinate for joint 'KneeRight'"


# transformed arguments whose result overflows, or is 0 * inf: the position, the
# arguments, and the first coordinate (C order) that is not finite
OVERFLOWING_TRANSFORMS = {
    "scale-overflows": (2.0, dict(scale=1e308), "x"),
    "scale-times-zero": (0.0, dict(scale=math.inf), "x"),
    "rotation-overflows": (1e308, dict(rotation=np.diag([1.0, 2.0, 1.0])), "y"),
    "translation-overflows": (1e308, dict(translation=(0.0, 0.0, 1e308)), "z"),
}


@pytest.mark.parametrize("value, kwargs, axis", OVERFLOWING_TRANSFORMS.values(),
                         ids=OVERFLOWING_TRANSFORMS)
def test_transformed_reports_a_non_finite_result_without_a_warning(value, kwargs, axis):
    # the suite turns a RuntimeWarning into an error, so a warning would fail here
    with pytest.raises(NonFiniteCoordinate) as exc:
        Skeleton(np.full((NUM_JOINTS, 3), value)).transformed(**kwargs)
    assert (exc.value.joint, exc.value.axis) == ("SpineBase", axis)
