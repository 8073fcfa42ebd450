import dataclasses
import json

import numpy as np
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
    ModelFile,
    SynthSpec,
    load_dataset,
    load_model,
    record_line,
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
from posturelab.features import FeatureConfig, extract, extract_matrix
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
        for a, b in zip(ds.observations, loaded.observations):
            assert a.label == b.label
            assert a.participant_id == b.participant_id
            assert np.array_equal(a.skeleton.positions, b.skeleton.positions)

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
    @pytest.mark.parametrize("value", ["north", None, float("nan"), float("inf")])
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

    def test_bad_json_is_a_parse_error(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        text = path.read_text().splitlines()
        text[5] = "{not json"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 6

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
        assert loaded.observations[0].label is None

    def test_fingerprint_tracks_record_bytes(self, tmp_path):
        ds, path = write_dataset(tmp_path, seed=3, per_class=2)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["joints"]["Head"][0] += 1e-9
        lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        assert load_dataset(path).fingerprint != ds.fingerprint


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
        for obs, p, o, d in zip(ds.observations, ds.participants,
                                ds.orientations_deg, ds.distances_m):
            assert (obs.participant_id, obs.orientation_deg, obs.distance_m) == (p, o, d)

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
        assert loaded.observations == ()


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
        assert [record_line(o) for o in a.observations] == [
            record_line(o) for o in b.observations
        ]
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
        for obs in ds.observations:
            assert obs.orientation_deg in spec.orientations_deg
            assert obs.distance_m in spec.distances_m
            assert obs.participant_id.startswith("p")

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
            ("lda", lambda p: p.update(means="not a matrix")),
            ("lda", lambda p: p.update(classes=5)),
            ("knn1", lambda p: p.update(labels={"a": 1})),
            ("svm_quadratic", lambda p: p.update(pairs=[[0, 1, 2]])),
            ("svm_quadratic", lambda p: p["machines"][0].update(bias=[1.0])),
            ("svm_quadratic", lambda p: p["machines"][0].update(kernel="poly")),
            ("svm_quadratic", lambda p: p["machines"][0].update(dual_coef=[])),
            ("svm_quadratic", lambda p: p["machines"][0].pop("dual_coef")),
            ("svm_quadratic", lambda p: p["machines"][0]["kernel"].pop("scale")),
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
        floats = np.array([-0.0, 0.0, 5e-324, -2.2e-310, 1.7e308, -1.7e308, 0.1])
        ints = np.array([np.iinfo(np.int64).min, -1, 0, np.iinfo(np.int64).max])
        model = Knn1Model(
            standardizer=Standardizer(floats, np.abs(floats) + 1.0),
            fingerprint="fp",
            seed=3,
            points=np.stack([floats, floats[::-1]]),
            labels=ints,
        )
        path = tmp_path / "model.json"
        save_model(ModelFile(model, FeatureConfig()), path)
        loaded = load_model(path).model
        for name in ("points", "labels"):
            saved, back = getattr(model, name), getattr(loaded, name)
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
        assert doc["version"] == MODEL_VERSION == 2
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
        skel = ds.observations[0].skeleton
        fv = extract(skel, loaded.feature_config)
        assert fv.fingerprint == loaded.model.fingerprint
