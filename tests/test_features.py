import math
import re
from itertools import combinations

import numpy as np
import pytest

from conftest import feature_stack, random_rotation, random_skeleton
from posturelab import features
from posturelab.dataset import SynthSpec, synth_generate
from posturelab.errors import (
    DataError, DegenerateNormalizer, DimensionMismatch, NonFiniteCoordinate, NumericError,
    ZeroLengthSegment,
)
from posturelab.features import (
    AngleMode,
    FeatureConfig,
    angle_features,
    config_fingerprint,
    extract,
    extract_matrix,
    joint_angle,
    normalizer,
    pairwise_distances,
)
from posturelab.poses import template_skeleton
from posturelab.skeleton import (
    ADJACENT_ANGLE_TRIPLES,
    NUM_JOINTS,
    JointId,
    PostureLabel,
    Skeleton,
)


def reference_cosines(pos: np.ndarray, triples) -> tuple[np.ndarray, np.ndarray]:
    """The angle features of positions (..., 25, 3) by vertex-ray arithmetic,
    apart from the pair table: u = pos[a] - pos[v], w = pos[b] - pos[v], then
    ((u₀w₀ + u₁w₁) + u₂w₂) / (|u|·|w|), clipped, and 0 where a ray is at most
    1e-9 long; and the mask of the entries that are not."""
    a, v, b = np.array(list(triples)).T
    u, w = pos[..., a, :] - pos[..., v, :], pos[..., b, :] - pos[..., v, :]

    def dot(x, y):
        return (x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1]) + x[..., 2] * y[..., 2]

    nu, nw = np.sqrt(dot(u, u)), np.sqrt(dot(w, w))
    ok = (nu > 1e-9) & (nw > 1e-9)
    cosine = np.clip(dot(u, w) / np.where(ok, nu * nw, 1.0), -1.0, 1.0)
    return np.where(ok, cosine, 0.0), ok


def skeleton_with(**overrides) -> Skeleton:
    pos = np.zeros((NUM_JOINTS, 3))
    # default spine segment keeps the normalizer valid
    pos[JointId.SpineShoulder] = [0.0, 1.0, 0.0]
    for name, xyz in overrides.items():
        pos[JointId[name]] = xyz
    return Skeleton(pos)


class TestNormalizer:
    def test_unit_segment(self):
        s = skeleton_with(SpineShoulder=[0, 1, 0], SpineMid=[0, 0, 0])
        assert normalizer(s) == 1.0

    def test_3_4_5_triangle(self):
        s = skeleton_with(SpineShoulder=[0, 0.3, 0.4], SpineMid=[0, 0, 0])
        assert normalizer(s) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate(self):
        s = skeleton_with(SpineShoulder=[0, 0, 0], SpineMid=[0, 0, 0])
        with pytest.raises(DegenerateNormalizer):
            normalizer(s)


class TestPairwiseDistances:
    def test_length_and_order(self, rng):
        d = pairwise_distances(random_skeleton(rng))
        assert d.shape == (300,)
        assert np.all(d >= 0)

    def test_3_4_5_entry(self):
        s = skeleton_with(
            SpineShoulder=[0, 1, 0],
            SpineMid=[0, 0, 0],
            Head=[3, 4, 0],
            FootLeft=[0, 0, 0],
        )
        d = pairwise_distances(s)
        i, j = np.triu_indices(NUM_JOINTS, k=1)
        entry = np.flatnonzero((i == int(JointId.Head)) & (j == int(JointId.FootLeft)))
        assert d[entry[0]] == pytest.approx(5.0, abs=1e-12)

    def test_uniform_scaling_cancels(self, rng):
        s = random_skeleton(rng)
        scaled = s.transformed(scale=2.0, translation=[0.3, -0.1, 0.9])
        base = pairwise_distances(s)
        # scaling about any center: scale, then translate
        got = pairwise_distances(scaled)
        rel = np.abs(got - base) / np.maximum(np.abs(base), 1e-300)
        assert rel.max() < 1e-9

    def test_brute_force_oracle_100_skeletons(self, rng):
        for _ in range(100):
            s = random_skeleton(rng)
            d = pairwise_distances(s)
            scale = normalizer(s)
            expected = []
            for i in range(NUM_JOINTS):
                for j in range(i + 1, NUM_JOINTS):
                    diff = s.positions[i] - s.positions[j]
                    expected.append(math.sqrt(float(diff @ diff)) / scale)
            expected = np.array(expected)
            rel = np.abs(d - expected) / np.maximum(np.abs(expected), 1e-300)
            assert rel.max() <= 1e-12

    @pytest.mark.parametrize("stack", ["feature_stack", "synth seed 1"])
    def test_normalized_spine_distance_is_exactly_one(self, stack):
        """The normalizer is the bits of its own pair's distance, on any BLAS."""
        skeletons = (feature_stack() if stack == "feature_stack"
                     else synth_generate(SynthSpec(seed=1)).skeletons())
        spine = list(combinations(range(NUM_JOINTS), 2)).index(
            (int(JointId.SpineMid), int(JointId.SpineShoulder)))
        cfg = FeatureConfig(True, False)
        X, _ = extract_matrix(skeletons, cfg)
        assert np.count_nonzero(X[:, spine] != 1.0) == 0
        assert sum(extract(s, cfg).values[spine] != 1.0 for s in skeletons) == 0


class TestJointAngle:
    def test_orthogonal(self):
        assert joint_angle([1, 0, 0], [0, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2)

    def test_coincident_rays(self):
        assert joint_angle([1, 0, 0], [0, 0, 0], [2, 0, 0]) == 0.0

    def test_opposite_rays(self):
        assert joint_angle([1, 0, 0], [0, 0, 0], [-1, 0, 0]) == pytest.approx(math.pi)

    def test_zero_length_segment(self):
        with pytest.raises(ZeroLengthSegment):
            joint_angle([0, 0, 0], [0, 0, 0], [1, 0, 0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_names_point_and_axis(self, value):
        with pytest.raises(NonFiniteCoordinate) as exc:
            joint_angle([1, 0, 0], [0, 0, value], [0, 1, value])
        assert (exc.value.joint, exc.value.axis) == ("b", "z")
        assert str(exc.value) == "non-finite z coordinate for joint 'b'"

    @pytest.mark.parametrize("points", [
        ([1, 0, 0], [0, 0, 0], [0, 1]),
        ([1, 0, 0], [0, 0, 0, 0], [0, 1, 0]),
        ([[1, 0, 0]], [[0, 0, 0]], [[0, 1, 0]]),
        (1.0, 0.0, 2.0),
        ("abc", [0, 0, 0], [0, 1, 0]),
        (None, [0, 0, 0], [0, 1, 0]),
    ])
    def test_point_that_is_not_three_numbers(self, points):
        with pytest.raises(DimensionMismatch, match="three numbers"):
            joint_angle(*points)

    def test_clamped_at_collinear(self, rng):
        # normalized dot products can exceed 1 by float error: nearly-parallel
        # long rays must never produce NaN
        for _ in range(200):
            v = rng.normal(size=3) * 100
            angle = joint_angle(v, [0, 0, 0], v * 3.0000000001)
            assert math.isfinite(angle)
            assert 0 <= angle <= math.pi

    def test_agrees_bitwise_with_angle_features(self, rng):
        # the angle features hold the cosine whose arccos joint_angle returns
        for _ in range(20):
            s = random_skeleton(rng)
            vals, _ = angle_features(s)
            pos = s.positions
            for (a, v, b), cosine in zip(ADJACENT_ANGLE_TRIPLES, vals):
                assert joint_angle(pos[a], pos[v], pos[b]) == np.arccos(cosine)


class TestAngleFeatures:
    def test_adjacent_length(self, rng):
        vals, bad = angle_features(random_skeleton(rng), AngleMode.ADJACENT)
        assert vals.shape == (29,)
        assert bad == 0
        assert np.all((vals >= -1) & (vals <= 1))  # cosines of angles in [0, pi]

    def test_all_triples_length(self, rng):
        vals, bad = angle_features(random_skeleton(rng), AngleMode.ALL_TRIPLES)
        assert vals.shape == (2300,)
        assert np.all((vals >= -1) & (vals <= 1))

    def test_t_pose_trunk_shoulder_is_right_angle(self):
        # vertical trunk, purely lateral shoulder: the adjacent-segment angle
        # at SpineShoulder between SpineMid and ShoulderLeft is exactly pi/2,
        # whose cosine (a zero dot product over positive lengths) is exactly 0
        s = skeleton_with(
            SpineMid=[0, 0, 0],
            SpineShoulder=[0, 0.5, 0],
            ShoulderLeft=[0.3, 0.5, 0],
        )
        vals, _ = angle_features(s)
        idx = ADJACENT_ANGLE_TRIPLES.index(
            (JointId.SpineMid, JointId.SpineShoulder, JointId.ShoulderLeft)
        )
        assert vals[idx] == 0.0

    def test_standing_template_has_no_collinear_adjacent_segments(self):
        # the template's built-in bends keep every adjacent angle more than
        # 1e-3 rad from 0 and from pi, so its cosine is below cos(1e-3) in size
        vals, bad = angle_features(template_skeleton(PostureLabel.Standing))
        assert bad == 0
        assert np.abs(vals).max() < math.cos(1e-3)

    def test_degenerate_triple_yields_zero_and_count(self):
        # Head coincides with Neck: every triple with vertex at one of them
        # and the other as endpoint is degenerate and reads 0, a right angle
        s = skeleton_with(Head=[0.5, 0.5, 0.5], Neck=[0.5, 0.5, 0.5])
        vals, bad = angle_features(s, AngleMode.ALL_TRIPLES)
        assert bad >= 1
        # pick the triple (Neck, Head, ShoulderLeft): vertex Head, ray to Neck
        triples = list(combinations(range(NUM_JOINTS), 3))
        idx = triples.index((int(JointId.Neck), int(JointId.Head), int(JointId.ShoulderLeft)))
        assert vals[idx] == 0.0

    def test_vertex_is_middle_index(self):
        # triple (SpineBase, SpineMid, Neck) with all three collinear iff the
        # angle is measured at SpineMid: rays (0, -1, 0) and (0, 3, 0), whose
        # cosine -3 / (1 * 3) is exactly -1
        s = skeleton_with(
            SpineBase=[0, -1, 0],
            SpineMid=[0, 0, 0],
            Neck=[0, 3, 0],
            SpineShoulder=[0, 1, 0],
        )
        vals, _ = angle_features(s, AngleMode.ALL_TRIPLES)
        triples = list(combinations(range(NUM_JOINTS), 3))
        idx = triples.index(
            (int(JointId.SpineBase), int(JointId.SpineMid), int(JointId.Neck))
        )
        assert vals[idx] == -1.0


class TestExtract:
    def test_lengths_per_config(self, rng):
        s = random_skeleton(rng)
        assert extract(s, FeatureConfig(True, False)).values.shape == (300,)
        assert extract(s, FeatureConfig(False, True)).values.shape == (29,)
        assert extract(s, FeatureConfig(True, True)).values.shape == (329,)
        cfg = FeatureConfig(True, True, AngleMode.ALL_TRIPLES)
        assert extract(s, cfg).values.shape == (2600,)
        assert cfg.length == 2600

    @pytest.mark.parametrize("features_set", ["distances", "angles", "combined"])
    @pytest.mark.parametrize("mode", ["adjacent", "all_triples"])
    def test_matrix_rows_equal_extract_with_one_fingerprint(
        self, rng, monkeypatch, features_set, mode
    ):
        calls = []

        def counting(cfg):
            calls.append(cfg)
            return config_fingerprint(cfg)

        monkeypatch.setattr(features, "config_fingerprint", counting)
        # 130 rows cross two 64-row blocks of extract_matrix into a partial third;
        # Head == Neck zeroes their distance and the angles on that ray, in row 129
        skeletons = [random_skeleton(rng) for _ in range(130)]
        pos = skeletons[129].positions.copy()
        pos[JointId.Head] = pos[JointId.Neck]
        skeletons[129] = Skeleton(pos)
        cfg = FeatureConfig.from_name(features_set, mode)
        X, fp = extract_matrix(skeletons, cfg)
        assert len(calls) == 1
        assert fp == config_fingerprint(cfg)
        for row, s in zip(X, skeletons):
            assert np.array_equal(row, extract(s, cfg).values)
        assert np.flatnonzero((X == 0.0).any(axis=1)).tolist() == [129]

    @pytest.mark.parametrize("mode", ["adjacent", "all_triples"])
    def test_combined_is_distances_then_angles_bit_for_bit(self, rng, mode):
        # combined reads all 300 pair columns of the table, angles alone only
        # the rays' columns; both read a ray's norm and sign from its column.
        # Row 3 has Head on Neck.
        skeletons = [random_skeleton(rng) for _ in range(20)]
        pos = skeletons[3].positions.copy()
        pos[JointId.Head] = pos[JointId.Neck]
        skeletons[3] = Skeleton(pos)
        configs = [FeatureConfig.from_name(name, mode) for name in ("distances", "angles")]
        combined = FeatureConfig.from_name("combined", mode)
        for s in skeletons:
            parts = np.concatenate([extract(s, cfg).values for cfg in configs])
            assert extract(s, combined).values.tobytes() == parts.tobytes()
        X, _ = extract_matrix(skeletons, combined)
        parts = np.hstack([extract_matrix(skeletons, cfg)[0] for cfg in configs])
        assert X.tobytes() == parts.tobytes()
        # the zero ray degenerates exactly the triples with Head and Neck on one ray
        triples = {"adjacent": ADJACENT_ANGLE_TRIPLES,
                   "all_triples": combinations(range(NUM_JOINTS), 3)}[mode]
        head_neck = {int(JointId.Head), int(JointId.Neck)}
        expected = sum(head_neck in ({a, v}, {b, v}) for a, v, b in triples)
        _, degenerate = angle_features(skeletons[3], mode)
        assert degenerate == expected > 0
        assert np.count_nonzero(X[3, 300:] == 0.0) == degenerate

    @pytest.mark.parametrize("mode", ["adjacent", "all_triples"])
    def test_cosines_match_vertex_ray_reference_bit_for_bit(self, rng, mode):
        # an oracle apart from the pair table: rays gathered at each vertex
        triples = {"adjacent": ADJACENT_ANGLE_TRIPLES,
                   "all_triples": list(combinations(range(NUM_JOINTS), 3))}[mode]
        pos = np.stack([random_skeleton(rng).positions for _ in range(70)])
        pos[3, JointId.Head] = pos[3, JointId.Neck]  # rays of length 0
        pos[4, JointId.Neck, 0] = 0.0  # a ray exactly 1e-9 long
        pos[4, JointId.Head] = pos[4, JointId.Neck] + [1e-9, 0.0, 0.0]
        # exact right angles at SpineMid, between a column and a negated
        # column whose dot product cancels to zero: it reads +0.0
        pos[5, [JointId.SpineMid, JointId.SpineBase, JointId.SpineShoulder, JointId.Neck]] = [
            [0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, -0.5, 0.0], [1.0, -1.0, 0.0]]
        expected, ok = reference_cosines(pos, triples)
        assert np.sqrt(np.sum((pos[4, JointId.Head] - pos[4, JointId.Neck]) ** 2)) == 1e-9
        assert not ok[3].all() and not ok[4].all() and ok[5].all()
        assert np.count_nonzero(expected[5] == 0.0) >= 1
        angles = FeatureConfig.from_name("angles", mode)
        combined = FeatureConfig.from_name("combined", mode)
        assert extract_matrix(pos, angles)[0].tobytes() == expected.tobytes()
        assert extract_matrix(pos, combined)[0][:, 300:].tobytes() == expected.tobytes()
        for row in range(8):
            cosines, degenerate = angle_features(Skeleton(pos[row]), mode)
            assert cosines.tobytes() == expected[row].tobytes()
            assert degenerate == np.count_nonzero(~ok[row])

    @pytest.mark.parametrize("features_set", ["distances", "angles", "combined"])
    @pytest.mark.parametrize("mode", ["adjacent", "all_triples"])
    def test_matrix_of_no_skeletons(self, features_set, mode):
        cfg = FeatureConfig.from_name(features_set, mode)
        X, _ = extract_matrix([], cfg)
        assert X.shape == (0, cfg.length)

    def test_matrix_rejects_records_that_are_not_25_by_3(self, rng):
        pos = np.stack([random_skeleton(rng).positions for _ in range(25)])
        for bad in (pos[:, :24], pos.reshape(25, 75), pos[0]):
            with pytest.raises(DimensionMismatch, match=re.escape(f"got {bad.shape}")):
                extract_matrix(bad, FeatureConfig())

    def test_matrix_is_c_ordered(self, rng):
        cfg = FeatureConfig()
        X, _ = extract_matrix([random_skeleton(rng) for _ in range(70)], cfg)
        assert X.flags.c_contiguous

    @pytest.mark.parametrize("features_set", ["distances", "angles", "combined"])
    def test_skeletons_convert_as_their_positions_stack(self, rng, features_set):
        cfg = FeatureConfig.from_name(features_set)
        skeletons = [random_skeleton(rng) for _ in range(70)]
        stack = np.stack([s.positions for s in skeletons])
        assert np.asarray(skeletons).tobytes() == stack.tobytes()
        assert np.asarray(skeletons[0], copy=False) is skeletons[0].positions
        assert np.asarray(skeletons[0], copy=True).flags.writeable
        X, fingerprint = extract_matrix(skeletons, cfg)
        Y, stack_fingerprint = extract_matrix(stack, cfg)
        assert X.tobytes() == Y.tobytes() and fingerprint == stack_fingerprint

    def test_degenerate_spine_in_stack_names_record(self, rng):
        skeletons = [random_skeleton(rng) for _ in range(80)]
        pos = skeletons[70].positions.copy()
        pos[JointId.SpineShoulder] = pos[JointId.SpineMid]
        skeletons[70] = Skeleton(pos)
        with pytest.raises(DegenerateNormalizer, match=r"^record 70: spine segment"):
            extract_matrix(skeletons, FeatureConfig())
        # angles alone need no spine length
        extract_matrix(skeletons, FeatureConfig(False, True))

    @pytest.mark.parametrize("features_set", ["distances", "angles", "combined"])
    @pytest.mark.parametrize("mode", ["adjacent", "all_triples"])
    def test_overflow_in_stack_names_record(self, rng, features_set, mode):
        # every joint far out, or one: a ray of length 1e160 whose norm
        # squared overflows, which must not read as a cosine of 0
        cfg = FeatureConfig.from_name(features_set, mode)
        skeletons = [random_skeleton(rng) for _ in range(80)]
        one_joint = skeletons[70].positions.copy()
        one_joint[JointId.Head] = [1e160, 0.5, 0.5]
        for bad in (skeletons[70].positions * 1e308, one_joint):
            skeletons[70] = Skeleton(bad)
            with np.errstate(all="raise"):  # no overflow may escape as a warning
                with pytest.raises(NumericError, match=r"^record 70: feature values overflow"):
                    extract_matrix(skeletons, cfg)
                with pytest.raises(NumericError, match=r"^feature values overflow"):
                    extract(skeletons[70], cfg)

    def test_overflow_in_one_skeleton_helpers(self):
        s = Skeleton(np.random.default_rng(0).normal(size=(NUM_JOINTS, 3)) * 1e160)
        helpers = [normalizer, pairwise_distances, angle_features,
                   lambda s: angle_features(s, AngleMode.ALL_TRIPLES)]
        with np.errstate(all="raise"):  # no overflow may escape as a warning
            for helper in helpers:
                with pytest.raises(NumericError, match=r"^feature values overflow"):
                    helper(s)
            with pytest.raises(NumericError, match=r"^feature values overflow"):
                joint_angle([1e200, 1e200, 0], [0, 0, 0], [1e200, 0, 0])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_coordinate_in_stack_names_record_joint_and_axis(self, rng, value):
        pos = np.stack([random_skeleton(rng).positions for _ in range(80)])
        pos[70, JointId.Head, 2] = pos[75, JointId.Neck, 0] = value
        for cfg in (FeatureConfig(), FeatureConfig(False, True)):
            with pytest.raises(DataError) as exc:
                extract_matrix(pos, cfg)
            assert type(exc.value) is NonFiniteCoordinate
            assert (exc.value.record, exc.value.joint, exc.value.axis) == (70, "Head", "z")
            assert str(exc.value) == "record 70: non-finite z coordinate for joint 'Head'"

    def test_config_requires_a_family(self):
        with pytest.raises(ValueError):
            FeatureConfig(False, False)

    def test_deterministic(self, rng):
        s = random_skeleton(rng)
        cfg = FeatureConfig()
        a = extract(s, cfg)
        b = extract(s, cfg)
        assert np.array_equal(a.values, b.values)
        assert a.fingerprint == b.fingerprint

    def test_fingerprint_separates_configs(self):
        fp = {
            config_fingerprint(FeatureConfig(True, False)),
            config_fingerprint(FeatureConfig(False, True)),
            config_fingerprint(FeatureConfig(True, True)),
            config_fingerprint(FeatureConfig(True, True, AngleMode.ALL_TRIPLES)),
        }
        assert len(fp) == 4

    def test_rigid_invariance(self, rng):
        cfg = FeatureConfig()
        for _ in range(50):
            s = random_skeleton(rng)
            moved = s.transformed(
                rotation=random_rotation(rng), translation=rng.uniform(-3, 3, 3)
            )
            base = extract(s, cfg).values
            got = extract(moved, cfg).values
            assert np.abs(got - base).max() < 1e-9

    def test_scale_invariance(self, rng):
        cfg = FeatureConfig()
        for _ in range(50):
            s = random_skeleton(rng)
            lam = float(rng.uniform(0.5, 2.0))
            base = extract(s, cfg).values
            got = extract(s.transformed(scale=lam), cfg).values
            rel = np.abs(got - base) / np.maximum(np.abs(base), 1e-12)
            assert rel.max() < 1e-9

    def test_all_triples_invariance_sample(self, rng):
        cfg = FeatureConfig(True, True, AngleMode.ALL_TRIPLES)
        for _ in range(20):
            s = random_skeleton(rng)
            moved = s.transformed(
                rotation=random_rotation(rng),
                translation=rng.uniform(-3, 3, 3),
                scale=float(rng.uniform(0.5, 2.0)),
            )
            base = extract(s, cfg).values
            got = extract(moved, cfg).values
            dist = slice(0, 300)
            ang = slice(300, None)
            rel = np.abs(got[dist] - base[dist]) / np.maximum(np.abs(base[dist]), 1e-12)
            assert rel.max() < 1e-9
            assert np.abs(got[ang] - base[ang]).max() < 1e-9
