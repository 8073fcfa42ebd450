import dataclasses
import json

import numpy as np
import numpy.typing as npt
import pytest

from conftest import payload, unpayload
from posturelab.classifiers import (
    CLASSIFIER_NAMES,
    ClassifierSpec,
    Knn1Model,
    Standardizer,
    predict_batch,
    train_classifier,
)
from posturelab.dataset import (
    MODEL_VERSION,
    LabeledDataset,
    ModelFile,
    SynthSpec,
    _decode,
    encode,
    load_dataset,
    load_model,
    record_lines,
    save_dataset,
    save_model,
    synth_generate,
)
from posturelab.errors import (
    CorruptModel,
    DataError,
    MissingJoint,
    NonFiniteCoordinate,
    ParseError,
    UnknownLabel,
    VersionMismatch,
)
from posturelab.features import FeatureConfig, config_fingerprint, extract, extract_matrix
from posturelab.skeleton import JOINT_NAMES, validate_skeleton


def write_dataset(tmp_path, name="ds.jsonl", **spec_kwargs):
    spec = SynthSpec(**spec_kwargs)
    ds = synth_generate(spec)
    path = tmp_path / name
    save_dataset(ds, path, generator=spec.to_dict())
    return ds, path


class TestDatasetFile:
    def test_round_trip_preserves_records_and_order(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=4)
        loaded = load_dataset(path)
        assert len(loaded) == len(ds)
        assert loaded.fingerprint == ds.fingerprint
        assert record_lines(loaded) == record_lines(ds)

    def test_unknown_label_carries_line_number(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["label"] = "Jumping"
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(UnknownLabel) as exc:
            load_dataset(path)
        assert exc.value.line == 2

    def test_missing_joint_carries_line_number(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[3])
        del rec["joints"]["ThumbLeft"]
        lines[3] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MissingJoint) as exc:
            load_dataset(path)
        assert exc.value.name == "ThumbLeft"
        assert exc.value.line == 4

    def test_non_finite_coordinate_carries_line(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec["joints"]["Head"][2] = None
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(NonFiniteCoordinate) as exc:
            load_dataset(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("key", ["orientation_deg", "distance_m"])
    @pytest.mark.parametrize("value", ["north", None, float("nan"), float("inf"), True])
    def test_non_finite_metadata_carries_line(self, tmp_path, key, value):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        rec[key] = value
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 3
        assert key in str(exc.value)

    @pytest.mark.parametrize("value", [None, 7, ["p01"]])
    def test_participant_must_be_a_string(self, tmp_path, value):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {4: lambda rec: rec.update(participant=value)})
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 4
        assert str(exc.value) == f"line 4: participant must be a string, got {json.dumps(value)}"

    @pytest.mark.parametrize("value", [True, 7, ["Standing"]])
    def test_label_must_be_a_string(self, tmp_path, value):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {2: lambda rec: rec.update(label=value)})
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"line 2: label must be a string, got {json.dumps(value)}"

    def test_absent_participant_reads_empty(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {2: lambda rec: rec.pop("participant")})
        assert load_dataset(path).participants[0] == ""

    def test_bad_json_is_a_parse_error(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        text = path.read_text().splitlines()
        text[5] = "{not json"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 6

    @pytest.mark.parametrize(
        "header, reason",
        [
            (None, "empty dataset file"),
            ({"format": "other-dataset", "version": 1}, "not a posturelab dataset file"),
            ({"joint_checksum": "0" * 16}, "joint-order checksum mismatch"),
        ],
        ids=["empty-file", "other-format", "joint-checksum"],
    )
    def test_bad_header_is_a_line_1_parse_error(self, tmp_path, header, reason):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        if header is None:
            lines = []
        else:
            lines[0] = json.dumps({**json.loads(lines[0]), **header})
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(ParseError, match=f"^line 1: {reason}$"):
            load_dataset(path)

    def test_blank_lines_are_skipped_and_keep_the_line_count(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        lines[2:2] = ["", "  \t "]  # lines 3 and 4; the second record moves to line 5
        path.write_text("\n".join(lines) + "\n")
        loaded = load_dataset(path)
        assert loaded.fingerprint == ds.fingerprint
        lines[5] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="^line 6: bad record"):
            load_dataset(path)

    def test_wrong_header_version(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 0
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(VersionMismatch):
            load_dataset(path)

    def test_missing_label_allowed_for_prediction_inputs(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["label"] = None
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        loaded = load_dataset(path)
        assert loaded.labels[0] == -1
        assert json.loads(record_lines(loaded)[0])["label"] is None

    def test_fingerprint_tracks_record_bytes(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["joints"]["Head"][0] += 1e-9
        lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        assert load_dataset(path).fingerprint != ds.fingerprint


# Edits of a record line that the loader rejects with a ParseError: id -> edit
OTHER_BAD_LINES = {
    "bad-json": lambda line: line[:-1],
    "byte-order-mark": lambda line: "\ufeff" + line,
    "non-finite-distance": lambda line: json.dumps({**json.loads(line), "distance_m": float("nan")}),
    "numeric-participant": lambda line: json.dumps({**json.loads(line), "participant": 7}),
}


def rewrite_records(path, edits):
    """Apply edit(record) to the records on the given 1-based file lines."""
    lines = path.read_text().splitlines()
    for lineno, edit in edits.items():
        rec = json.loads(lines[lineno - 1])
        edit(rec)
        lines[lineno - 1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


class TestColumns:
    def test_layout(self):
        ds = synth_generate(SynthSpec(seed=3, per_class=4))
        assert ds.positions.shape == (20, 25, 3) and ds.positions.dtype == np.float64
        assert ds.positions.flags.c_contiguous
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [k for k in range(5) for _ in range(4)]
        assert all(type(p) is str for p in ds.participants)
        assert ds.orientations_deg.dtype == ds.distances_m.dtype == np.float64
        assert ds.orientations_deg.shape == ds.distances_m.shape == (20,)

    @pytest.mark.parametrize(
        "column", ["positions", "labels", "participants", "orientations_deg", "distances_m"]
    )
    def test_columns_are_read_only(self, tmp_path, column):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        for dataset in (ds, load_dataset(path)):
            with pytest.raises(ValueError):
                getattr(dataset, column)[0] = getattr(dataset, column)[1]

    def test_skeletons_are_views_of_positions(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        for dataset in (ds, load_dataset(path)):
            for i, skel in enumerate(dataset.skeletons()):
                assert np.shares_memory(skel.positions, dataset.positions)
                assert np.array_equal(skel.positions, dataset.positions[i])

    def test_loaded_columns_equal_generated(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=5)
        loaded = load_dataset(path)
        for column in ("positions", "labels", "participants", "orientations_deg", "distances_m"):
            assert np.array_equal(getattr(loaded, column), getattr(ds, column)), column

    @pytest.mark.parametrize("participants", [[1] * 2, [1.5] * 2, [None] * 2, [b"p00"] * 2,
                                              ["p00", 1]],
                             ids=["1", "1.5", "None", "p00", "p00-1"])
    def test_participants_must_be_strings(self, participants):
        # a participant that is no string would save, and its file then fail to load
        with pytest.raises(DataError) as exc:
            LabeledDataset(np.zeros((2, 25, 3)), [0, 1], participants, [0.0, 0.0], [1.0, 1.0])
        wrong = next(p for p in participants if not isinstance(p, str))
        assert str(exc.value) == f"participant must be a string, got {wrong!r}"

    def test_a_dataset_that_builds_saves_and_loads(self, tmp_path):
        ds = LabeledDataset(np.ones((2, 25, 3)), [0, 1], ["1", "2"], [0.0, 0.0], [1.0, 1.0])
        save_dataset(ds, tmp_path / "ds.jsonl")
        assert load_dataset(tmp_path / "ds.jsonl").fingerprint == ds.fingerprint

    def test_unlabeled_record_reads_minus_one(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {4: lambda rec: rec.update(label=None)})
        loaded = load_dataset(path)
        assert loaded.labels[2] == -1 and loaded.labels.min() == -1
        with pytest.raises(DataError, match="record 2 has no label"):
            loaded.label_indices()

    def test_header_only_file_is_an_empty_dataset(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=1)
        path.write_text(path.read_text().splitlines()[0] + "\n")
        loaded = load_dataset(path)
        assert len(loaded) == 0 and loaded.positions.shape == (0, 25, 3)
        assert record_lines(loaded) == []


COLUMNS = ("positions", "labels", "participants", "orientations_deg", "distances_m")


def _with(ds, column: str, edit):
    values = getattr(ds, column).copy()
    edit(values)
    return dataclasses.replace(ds, **{column: values})


def _next_float(values, index):
    values[index] = np.nextafter(values[index], np.inf)


# Edits of a dataset's content: id -> edit(ds) returning a new dataset
CONTENT_EDITS = {
    "positions": lambda ds: _with(ds, "positions", lambda v: _next_float(v, (5, 3, 1))),
    "labels": lambda ds: _with(ds, "labels", lambda v: v.__setitem__(5, (v[5] + 1) % 5)),
    "participants": lambda ds: _with(ds, "participants", lambda v: v.__setitem__(5, v[5] + "x")),
    "orientations_deg": lambda ds: _with(ds, "orientations_deg", lambda v: _next_float(v, 5)),
    "distances_m": lambda ds: _with(ds, "distances_m", lambda v: _next_float(v, 5)),
    "record-order": lambda ds: dataclasses.replace(
        ds, **{c: getattr(ds, c)[::-1].copy() for c in COLUMNS}
    ),
}


class TestFingerprint:
    def test_is_not_a_constructor_argument(self):
        ds = synth_generate(SynthSpec(seed=3, per_class=2))
        with pytest.raises(TypeError):
            LabeledDataset(*(getattr(ds, c) for c in COLUMNS), ds.fingerprint)

    def test_value_is_pinned(self):
        # reports and model files record it: a change to its recipe shows here
        assert synth_generate(SynthSpec(seed=3, per_class=2)).fingerprint == "e77cd44d9278100d"

    def test_reformatted_file_keeps_it(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=4)
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            rec = json.loads(line)
            for key in ("orientation_deg", "distance_m"):  # 90.0 -> 90
                assert rec[key].is_integer()
                rec[key] = int(rec[key])
            rec["joints"] = dict(reversed(rec["joints"].items()))
            rec = dict(reversed(rec.items()))
            lines[i] = "  " + json.dumps(rec, separators=(" , ", " : ")) + " "
        respelled = tmp_path / "respelled.jsonl"
        respelled.write_text("\n".join(lines) + "\n")
        assert respelled.read_bytes() != path.read_bytes()
        loaded = load_dataset(respelled)
        assert "fingerprint" not in loaded.__dict__  # computed on first use only
        assert loaded.fingerprint == ds.fingerprint == load_dataset(path).fingerprint

    def test_equal_columns_give_equal_fingerprints(self):
        ds = synth_generate(SynthSpec(seed=3, per_class=4))
        copied = dataclasses.replace(ds, **{c: getattr(ds, c).copy() for c in COLUMNS})
        assert copied.fingerprint == ds.fingerprint

    @pytest.mark.parametrize("edit", CONTENT_EDITS)
    def test_a_content_change_changes_it(self, edit):
        ds = synth_generate(SynthSpec(seed=3, per_class=4))
        assert CONTENT_EDITS[edit](ds).fingerprint != ds.fingerprint

    def test_record_lines_are_byte_stable_across_save_load_save(self, tmp_path):
        spec = SynthSpec(seed=3, per_class=4)
        ds = synth_generate(spec)
        labels = ds.labels.copy()
        labels[2] = -1  # an unlabeled record too
        ds = dataclasses.replace(ds, labels=labels)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_dataset(ds, first, generator=spec.to_dict())
        save_dataset(load_dataset(first), second, generator=spec.to_dict())
        assert second.read_bytes() == first.read_bytes()
        assert first.read_text().splitlines()[1:] == record_lines(ds)
        assert load_dataset(second).fingerprint == ds.fingerprint


# Joint values both validate_skeleton and the loader reject: value -> axis named
BAD_JOINT_VALUES = {
    "string-joint": ("123", "xyz"),
    "string-coordinate": (["1.5", 2, 3], "x"),
    "number-joint": (5, "xyz"),
    "nested-coordinates": ([[1.0], [2.0], [3.0]], "x"),
    "four-coordinates": ([1.0, 2.0, 3.0, 4.0], "xyz"),
    "null-coordinate": ([1.0, None, 3.0], "y"),
    "huge-integer": ([1.0, 2.0, 10**400], "z"),
    "object-coordinate": ([1.0, 2.0, {"m": 3}], "z"),
    "bool-among-floats": ([True, 1.0, 2.0], "x"),
    "false-among-integers": ([0, False, 2], "y"),
    "bool-only": ([True, False, True], "x"),
}


class TestBadJoints:
    @pytest.mark.parametrize("value, axis", BAD_JOINT_VALUES.values(), ids=BAD_JOINT_VALUES)
    def test_validate_skeleton_rejects(self, value, axis):
        raw = {name: [0.0, float(i), 1.0] for i, name in enumerate(JOINT_NAMES)}
        raw["Head"] = value
        with pytest.raises(NonFiniteCoordinate) as exc:
            validate_skeleton(raw, line=7)
        assert (exc.value.joint, exc.value.axis, exc.value.line) == ("Head", axis, 7)

    @pytest.mark.parametrize("value, axis", BAD_JOINT_VALUES.values(), ids=BAD_JOINT_VALUES)
    def test_loader_rejects(self, tmp_path, value, axis):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {4: lambda rec: rec["joints"].update(Head=value)})
        with pytest.raises(NonFiniteCoordinate) as exc:
            load_dataset(path)
        assert (exc.value.joint, exc.value.axis, exc.value.line) == ("Head", axis, 4)

    def test_integer_coordinates_load_as_floats(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {2: lambda rec: rec["joints"].update(Head=[1, 2, 3])})
        loaded = load_dataset(path)
        assert loaded.positions.dtype == np.float64
        assert loaded.positions[0, 3].tolist() == [1.0, 2.0, 3.0]

    def test_first_bad_line_is_reported(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {
            3: lambda rec: rec["joints"]["Head"].__setitem__(1, None),
            5: lambda rec: rec.update(label="Jumping"),
        })
        with pytest.raises(NonFiniteCoordinate) as exc:
            load_dataset(path)
        assert exc.value.line == 3

    def test_record_of_bools_is_rejected(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {3: lambda rec: rec.update(
            joints={name: [i % 2 == 0, True, False] for i, name in enumerate(JOINT_NAMES)})})
        with pytest.raises(NonFiniteCoordinate) as exc:
            load_dataset(path)
        assert (exc.value.joint, exc.value.axis, exc.value.line) == ("SpineBase", "x", 3)

    @pytest.mark.parametrize("bool_line, label_line, line", [(3, 5, 3), (5, 3, 3)])
    def test_first_bad_line_is_reported_for_a_bool(self, tmp_path, bool_line, label_line, line):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {
            bool_line: lambda rec: rec["joints"]["Head"].__setitem__(1, True),
            label_line: lambda rec: rec.update(label="Jumping"),
        })
        with pytest.raises(DataError) as exc:
            load_dataset(path)
        assert exc.value.line == line
        assert type(exc.value) is (NonFiniteCoordinate if line == bool_line else UnknownLabel)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("other", OTHER_BAD_LINES)
    @pytest.mark.parametrize("coordinate_line, other_line", [(3, 5), (5, 3)])
    def test_first_bad_line_is_reported_for_a_non_finite_coordinate(
            self, tmp_path, value, other, coordinate_line, other_line):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        lines[other_line - 1] = OTHER_BAD_LINES[other](lines[other_line - 1])
        path.write_text("\n".join(lines[:other_line]) + "\n")
        with pytest.raises(ParseError) as alone:  # the other line's error, the only one
            load_dataset(path)
        path.write_text("\n".join(lines) + "\n")
        rewrite_records(path, {  # json.dumps writes NaN, Infinity and -Infinity
            coordinate_line: lambda rec: rec["joints"]["Head"].__setitem__(1, value)})
        with pytest.raises(DataError) as exc:
            load_dataset(path)
        if coordinate_line < other_line:
            assert type(exc.value) is NonFiniteCoordinate
            assert (exc.value.joint, exc.value.axis, exc.value.line) == ("Head", "y", 3)
        else:
            assert (type(exc.value), str(exc.value)) == (ParseError, str(alone.value))

    @pytest.mark.parametrize("bool_line, nan_line", [(3, 5), (5, 3)])
    def test_first_of_a_bool_and_a_nan_coordinate_is_reported(self, tmp_path, bool_line, nan_line):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {
            bool_line: lambda rec: rec["joints"]["Head"].__setitem__(0, True),
            nan_line: lambda rec: rec["joints"]["Neck"].__setitem__(2, float("nan")),
        })
        with pytest.raises(NonFiniteCoordinate) as exc:
            load_dataset(path)
        first = ("Head", "x") if bool_line == 3 else ("Neck", "z")
        assert (exc.value.joint, exc.value.axis, exc.value.line) == (*first, 3)

    def test_bool_spelled_outside_the_joints_loads(self, tmp_path):
        # noise-free records hold exact zeros, and the lines spell true/false
        ds, path = write_dataset(tmp_path, seed=3, per_class=2, noise_std_m=0.0)
        rewrite_records(path, {line: lambda rec: rec.update(participant="true-false", extra=True)
                               for line in range(2, 12)})
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.positions, ds.positions)
        assert loaded.participants[:10].tolist() == ["true-false"] * 10

    def test_joints_must_be_a_map(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        rewrite_records(path, {3: lambda rec: rec.update(joints=5)})
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 3


class TestSynthGenerate:
    def test_paper_sized_protocol(self):
        ds = synth_generate(SynthSpec(seed=0, per_class=208))
        assert len(ds) == 1040
        labels = ds.label_indices()
        for k in range(5):
            assert (labels == k).sum() == 208

    def test_same_seed_is_byte_identical(self, tmp_path):
        a = synth_generate(SynthSpec(seed=11, per_class=6))
        b = synth_generate(SynthSpec(seed=11, per_class=6))
        assert a.fingerprint == b.fingerprint
        assert record_lines(a) == record_lines(b)
        c = synth_generate(SynthSpec(seed=12, per_class=6))
        assert c.fingerprint != a.fingerprint

    def test_noise_free_features_constant_within_class(self):
        spec = SynthSpec(seed=5, per_class=24, noise_std_m=0.0)
        ds = synth_generate(spec)
        X, _ = extract_matrix(ds.skeletons(), FeatureConfig())
        y = ds.label_indices()
        for k in range(5):
            rows = X[y == k]
            spread = np.abs(rows - rows[0]).max()
            assert spread < 1e-9, f"class {k} features vary by {spread}"

    def test_noise_free_single_pose_is_exactly_constant(self):
        spec = SynthSpec(
            seed=5, per_class=10, noise_std_m=0.0,
            orientations_deg=(0.0,), distances_m=(2.0,), scale_range=(1.0, 1.0),
        )
        ds = synth_generate(spec)
        X, _ = extract_matrix(ds.skeletons(), FeatureConfig())
        y = ds.label_indices()
        for k in range(5):
            rows = X[y == k]
            assert np.array_equal(rows, np.tile(rows[0], (len(rows), 1)))

    def test_metadata_draws_come_from_spec_sets(self):
        spec = SynthSpec(seed=9, per_class=30)
        ds = synth_generate(spec)
        assert set(ds.orientations_deg.tolist()) <= set(spec.orientations_deg)
        assert set(ds.distances_m.tolist()) <= set(spec.distances_m)
        assert all(p.startswith("p") for p in ds.participants)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(per_class=0)
        with pytest.raises(ValueError):
            SynthSpec(noise_std_m=-0.1)
        with pytest.raises(ValueError):
            SynthSpec(scale_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            SynthSpec(scale_range=(1.2, 1.0))
        with pytest.raises(ValueError):
            SynthSpec(participants=0)
        with pytest.raises(ValueError):
            SynthSpec(orientations_deg=())
        with pytest.raises(ValueError):
            SynthSpec(distances_m=())
        with pytest.raises(ValueError):
            SynthSpec(noise_std_m=float("nan"))
        with pytest.raises(ValueError):
            SynthSpec(noise_std_m=float("inf"))
        with pytest.raises(ValueError):
            ClassifierSpec("svm_cubic", kernel_scale=0.0)
        with pytest.raises(ValueError):
            ClassifierSpec("svm_quadratic", kernel_scale=float("nan"))

    def test_header_generator_layout(self, tmp_path):
        _, path = write_dataset(
            tmp_path, seed=5, per_class=1, orientations_deg=(90, 0), distances_m=(2.5,),
            noise_std_m=0, scale_range=(0.9, 1.1), participants=4,
        )
        header = path.read_text().splitlines()[0]
        assert (
            '"generator":{"distances_m":[2.5],"noise_std_m":0.0,'
            '"orientations_deg":[0.0,90.0],"participants":4,"per_class":1,'
            '"scale_range":[0.9,1.1],"seed":5}'
        ) in header


class TestModelFile:
    def fitted_model(self, name="svm_quadratic", seed=7):
        ds = synth_generate(SynthSpec(seed=seed, per_class=8))
        cfg = FeatureConfig()
        X, fp = extract_matrix(ds.skeletons(), cfg)
        model = train_classifier(X, ds.label_indices(), ClassifierSpec(name, seed=seed), fp)
        return ds, cfg, X, model

    @pytest.mark.parametrize("name", ["lda", "qda", "knn1", "svm_quadratic"])
    def test_round_trip_predictions_identical(self, tmp_path, name, rng):
        ds, cfg, X, model = self.fitted_model(name)
        path = tmp_path / "model.json"
        save_model(ModelFile(model, cfg, ds.fingerprint), path)
        loaded = load_model(path)
        assert loaded.feature_config == cfg
        assert loaded.dataset_fingerprint == ds.fingerprint
        queries = X + rng.normal(scale=0.05, size=X.shape)
        assert np.array_equal(
            predict_batch(model, queries), predict_batch(loaded.model, queries)
        )

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    def test_round_trip_is_byte_stable(self, tmp_path, name):
        ds, cfg, X, model = self.fitted_model(name)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(ModelFile(model, cfg, ds.fingerprint), p1)
        save_model(ModelFile(load_model(p1).model, cfg, ds.fingerprint), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    def test_scorer_is_cached_and_never_saved(self, tmp_path, name):
        ds, cfg, X, model = self.fitted_model(name)
        before, after = tmp_path / "before.json", tmp_path / "after.json"
        save_model(ModelFile(model, cfg, ds.fingerprint), before)
        assert "scorer" not in vars(model)
        labels = predict_batch(model, X)
        scorer = vars(model)["scorer"]  # built by the first prediction
        assert np.array_equal(predict_batch(model, X), labels)
        assert model.scorer is scorer
        save_model(ModelFile(model, cfg, ds.fingerprint), after)
        assert before.read_bytes() == after.read_bytes()

    @pytest.mark.parametrize("name", ["lda", "qda", "knn1", "svm_quadratic"])
    def test_every_array_field_refuses_a_write(self, tmp_path, name):
        ds, cfg, X, model = self.fitted_model(name)
        path = tmp_path / "model.json"
        save_model(ModelFile(model, cfg, ds.fingerprint), path)
        for built in (model, load_model(path).model):
            parts = [built, built.standardizer, *getattr(built, "machines", ())]
            arrays = [getattr(part, f.name) for part in parts for f in dataclasses.fields(part)]
            arrays = [a for a in arrays if isinstance(a, np.ndarray)]
            # the standardizer's mean and std, then the kind's; each of 10 machines holds 2
            assert len(arrays) == {"lda": 4, "qda": 6, "knn1": 4}.get(name, 2 + 2 * 10)
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array.flat[0] = 1.0

    def test_machine_without_support_vectors_round_trips(self, tmp_path):
        ds, cfg, X, model = self.fitted_model("svm_quadratic")
        first = model.machines[0]
        empty = dataclasses.replace(
            first, support_vectors=np.empty((0, X.shape[1])), dual_coef=np.empty(0)
        )
        model = dataclasses.replace(model, machines=(empty,) + model.machines[1:])
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(ModelFile(model, cfg, ds.fingerprint), p1)
        loaded = load_model(p1).model
        assert loaded.machines[0].support_vectors.shape == (0, X.shape[1])
        assert loaded.machines[0].bias == first.bias
        assert np.array_equal(predict_batch(model, X), predict_batch(loaded, X))
        save_model(ModelFile(loaded, cfg, ds.fingerprint), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "name, corrupt",
        [
            ("lda", lambda p: p.update(coef="not a matrix")),
            ("lda", lambda p: p.update(classes=5)),
            ("knn1", lambda p: p.update(labels={"a": 1})),
            ("svm_quadratic", lambda p: p.update(pairs=[[0, 1, 2]])),
            ("svm_quadratic", lambda p: p["machines"][0].update(bias=[1.0])),
            ("svm_quadratic", lambda p: p["machines"][0].update(kernel="poly")),
            ("svm_quadratic", lambda p: p["machines"][0].update(dual_coef=[])),
            ("svm_quadratic", lambda p: p["machines"][0].pop("dual_coef")),
            ("svm_quadratic", lambda p: p["machines"][0]["kernel"].pop("scale")),
            ("svm_quadratic", lambda p: p["machines"][0].update(
                dual_coef=payload(unpayload(p["machines"][0]["dual_coef"])[:, None]))),
        ],
        ids=[
            "array-as-string",
            "tuple-as-int",
            "array-as-object",
            "pair-of-three",
            "float-as-list",
            "kernel-as-string",
            "support-vectors-without-coefficients",
            "missing-machine-key",
            "missing-kernel-key",
            "dual-coefficients-as-a-column",
        ],
    )
    def test_malformed_params_are_corrupt(self, tmp_path, name, corrupt):
        ds, cfg, X, model = self.fitted_model(name)
        path = tmp_path / "model.json"
        save_model(ModelFile(model, cfg, ""), path)
        doc = json.loads(path.read_text())
        corrupt(doc["params"])
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_support_vectors_of_wrong_width_are_a_data_error(self, tmp_path):
        ds, cfg, X, model = self.fitted_model("svm_quadratic")
        path = tmp_path / "model.json"
        save_model(ModelFile(model, cfg, ""), path)
        doc = json.loads(path.read_text())
        machine = doc["params"]["machines"][3]
        machine["support_vectors"] = payload(unpayload(machine["support_vectors"])[:, :-1])
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="support vectors"):
            predict_batch(load_model(path).model, X)

    def test_standardizer_length_mismatch_is_corrupt(self, tmp_path):
        ds, cfg, X, model = self.fitted_model("lda")
        path = tmp_path / "model.json"
        save_model(ModelFile(model, cfg, ""), path)
        doc = json.loads(path.read_text())
        doc["standardizer"]["std"] = payload(unpayload(doc["standardizer"]["std"])[:-1])
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_arrays_round_trip_bit_exact(self, tmp_path):
        # the seven special floats tiled across the config's 329 features
        floats = np.tile([-0.0, 0.0, 5e-324, -2.2e-310, 1.7e308, -1.7e308, 0.1], 47)
        assert floats.size == FeatureConfig().length
        model = Knn1Model(
            standardizer=Standardizer(floats, np.abs(floats) + 1.0),
            fingerprint=config_fingerprint(FeatureConfig()),
            seed=3,
            points=np.stack([floats, floats[::-1]]),
            labels=np.array([4, 0]),
        )
        path = tmp_path / "model.json"
        save_model(ModelFile(model, FeatureConfig()), path)
        loaded = load_model(path).model
        arrays = [(getattr(model, n), getattr(loaded, n)) for n in ("points", "labels")]
        # class labels must be postures, so the int64 extremes go through the codec alone
        ints = np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max])
        tp = npt.NDArray[np.int64]
        arrays.append((ints, _decode(tp, json.loads(json.dumps(encode(tp, ints))))))
        for saved, back in arrays:
            assert back.dtype == saved.dtype and back.shape == saved.shape
            assert back.tobytes() == saved.tobytes()
            assert back.flags.owndata and back.flags.aligned and back.flags.c_contiguous
        for name in ("mean", "std"):
            saved, back = getattr(model.standardizer, name), getattr(loaded.standardizer, name)
            assert back.tobytes() == saved.tobytes()

    def test_arrays_are_payloads_and_the_rest_is_readable(self, tmp_path):
        ds, cfg, X, model = self.fitted_model("svm_quadratic")
        path = tmp_path / "model.json"
        save_model(ModelFile(model, cfg, ds.fingerprint), path)
        doc = json.loads(path.read_text())
        assert doc["version"] == MODEL_VERSION == 3
        assert doc["kind"] == "ovo_svm" and doc["standardizer"]["mean"]["dtype"] == "<f8"
        assert doc["params"]["pairs"] == [list(p) for p in model.pairs]
        machine, fitted = doc["params"]["machines"][0], model.machines[0]
        assert machine["kernel"] == {"kind": "poly", "degree": 2, "scale": fitted.kernel.scale}
        assert machine["bias"] == fitted.bias
        sv = machine["support_vectors"]
        assert sv == payload(fitted.support_vectors)
        assert sv["shape"] == [fitted.support_vectors.shape[0], X.shape[1]]
        assert np.array_equal(unpayload(doc["standardizer"]["std"]), model.standardizer.std)

    def test_version_mismatch(self, tmp_path):
        ds, cfg, X, model = self.fitted_model("knn1")
        path = tmp_path / "model.json"
        save_model(ModelFile(model, cfg, ""), path)
        doc = json.loads(path.read_text())
        doc["version"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_other_format_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "x"}))
        with pytest.raises(CorruptModel, match="^not a posturelab model file$"):
            load_model(path)

    def test_truncated_file_is_corrupt(self, tmp_path):
        ds, cfg, X, model = self.fitted_model("knn1")
        path = tmp_path / "model.json"
        save_model(ModelFile(model, cfg, ""), path)
        path.write_text(path.read_text()[: 300])
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_missing_params_is_corrupt(self, tmp_path):
        ds, cfg, X, model = self.fitted_model("knn1")
        path = tmp_path / "model.json"
        save_model(ModelFile(model, cfg, ""), path)
        doc = json.loads(path.read_text())
        del doc["params"]["points"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_predictions_use_feature_config_from_file(self, tmp_path):
        # a saved model carries everything needed to featurize new skeletons
        ds, cfg, X, model = self.fitted_model("svm_quadratic")
        path = tmp_path / "model.json"
        save_model(ModelFile(model, cfg, ds.fingerprint), path)
        loaded = load_model(path)
        skel = ds.skeletons()[0]
        fv = extract(skel, loaded.feature_config)
        assert fv.fingerprint == loaded.model.fingerprint
