import base64
import functools
import json
import warnings

import numpy as np
import pytest

from conftest import payload, unpayload
from posturelab import classifiers
from posturelab.classifiers import CLASSIFIER_NAMES
from posturelab.cli import _FLAGS, run
from posturelab.dataset import SynthSpec, load_model, save_dataset, synth_generate
from posturelab.errors import CorruptModel
from posturelab.evaluation import STRATIFY_MODES
from posturelab.features import FEATURE_SETS, AngleMode
from posturelab.skeleton import LABEL_NAMES


@pytest.fixture
def dataset_path(tmp_path):
    path = tmp_path / "ds.jsonl"
    assert run(["synth", "--seed", "7", "--per-class", "20", "--out", str(path)]) == 0
    return path


def _with_data(p: dict, data: bytes) -> dict:
    return {**p, "data": base64.b64encode(data).decode()}


def _with_nan(p: dict) -> dict:
    values = unpayload(p).copy()
    values[1, 2] = np.nan
    return payload(values)


# Edits of a knn1 model file's params, each making one payload invalid:
# id -> (field, payload -> the value written in its place)
CORRUPT_PAYLOADS = {
    "base64-bad-character": ("points", lambda p: {**p, "data": "!" + p["data"]}),
    "base64-newline": ("points", lambda p: {**p, "data": p["data"] + "\n"}),
    "base64-bad-padding": ("points", lambda p: {**p, "data": p["data"][:-1]}),
    "base64-not-a-string": ("points", lambda p: {**p, "data": 12}),
    "byte-count-short": ("points", lambda p: _with_data(p, unpayload(p).tobytes()[:-8])),
    "byte-count-ragged": ("labels", lambda p: _with_data(p, unpayload(p).tobytes()[:-3])),
    "shape-negative": ("points", lambda p: {**p, "shape": [-n for n in p["shape"]]}),
    "shape-bool": ("labels", lambda p: {**p, "shape": p["shape"] + [True]}),
    "shape-float": ("labels", lambda p: {**p, "shape": [float(p["shape"][0])]}),
    "shape-not-a-list": ("labels", lambda p: {**p, "shape": p["shape"][0]}),
    "dtype-big-endian": ("points", lambda p: {**p, "dtype": ">f8"}),
    "dtype-int-for-float": ("points", lambda p: {**p, "dtype": "<i8"}),
    "dtype-float-for-int": ("labels", lambda p: {**p, "dtype": "<f8"}),
    "nan-in-floats": ("points", _with_nan),
    "extra-key": ("points", lambda p: {**p, "order": "C"}),
    "missing-key": ("labels", lambda p: {"dtype": p["dtype"], "data": p["data"]}),
    "list-for-payload": ("points", lambda p: unpayload(p).tolist()),
}


def _with_labels(params: dict, value: int) -> None:
    labels = unpayload(params["labels"]).copy()
    labels[3] = value
    params["labels"] = payload(labels, "<i8")


# Edits of a model file's params that put one class index outside the five
# postures: id -> (classifier, edit(params, index))
CLASS_INDEX_EDITS = {
    "lda-classes": ("lda", lambda params, k: params["classes"].__setitem__(2, k)),
    "qda-classes": ("qda", lambda params, k: params["classes"].__setitem__(2, k)),
    "svm-pairs": ("svm_quadratic", lambda params, k: params["pairs"][4].__setitem__(1, k)),
    "knn1-labels": ("knn1", _with_labels),
}


def _with_array(obj: dict, key: str, change) -> None:
    """Replace the payload obj[key] with change(its array)."""
    obj[key] = payload(change(unpayload(obj[key]).copy()), obj[key]["dtype"])


def _param(key: str, change):
    """Edit of a model file: params[key] becomes change(its array)."""
    return lambda doc: _with_array(doc["params"], key, change)


def _negated_first(a: np.ndarray) -> np.ndarray:
    a[0] = -a[0]
    return a


def _machine(**values):
    """Edit of an SVM model file: the first machine's fields become values."""
    return lambda doc: doc["params"]["machines"][0].update(values)


SHORT, NARROW, EMPTY = (lambda a: a[:-1]), (lambda a: a[:, :-1]), (lambda a: a[:0])
SVM = "svm_quadratic"

# Hand edits that make a model file contradict itself: id -> (classifier,
# edit(doc)). Each must be refused at load as a malformed model file.
MALFORMED_MODELS = {
    "lda-intercept-short": ("lda", _param("intercept", SHORT)),
    "lda-coef-short": ("lda", _param("coef", SHORT)),
    "lda-coef-narrow": ("lda", _param("coef", NARROW)),
    "lda-classes-short": ("lda", lambda d: d["params"]["classes"].pop()),
    "qda-whiteners-short": ("qda", _param("whiteners", SHORT)),
    "qda-log-dets-short": ("qda", _param("log_dets", SHORT)),
    "qda-means-narrow": ("qda", _param("means", NARROW)),
    "knn1-labels-short": ("knn1", _param("labels", SHORT)),
    "knn1-points-narrow": ("knn1", _param("points", NARROW)),
    "knn1-no-points": ("knn1", lambda d: (_param("points", EMPTY)(d), _param("labels", EMPTY)(d))),
    "svm-pairs-short": (SVM, lambda d: d["params"]["pairs"].pop()),
    "svm-no-machines": (SVM, lambda d: d["params"].update(pairs=[], machines=[])),
    "svm-kernel-scale-of-one-machine": (
        SVM, lambda d: d["params"]["machines"][3]["kernel"].update(scale=1.0)),
    "svm-linear-kernel-of-one-machine": (
        SVM, lambda d: d["params"]["machines"][3]["kernel"].update(kind="linear")),
    "svm-pair-of-one-class": (SVM, lambda d: d["params"]["pairs"].__setitem__(0, [1, 1])),
    "svm-support-vectors-wide": (SVM, lambda d: _with_array(
        d["params"]["machines"][3], "support_vectors", lambda a: np.hstack([a, a[:, :1]]))),
    "svm-converged-with-violations": (SVM, _machine(converged=True, kkt_violations=5)),
    "svm-not-converged-without-violations": (SVM, _machine(converged=False, kkt_violations=0)),
    "svm-negative-passes": (SVM, _machine(n_passes=-3)),
    "svm-negative-violations": (SVM, _machine(kkt_violations=-1)),
    "svm-negative-c": (SVM, _machine(c=-1.0)),
    "negative-std": ("lda", lambda d: _with_array(d["standardizer"], "std", _negated_first)),
    "feature-config-changed": ("lda", lambda d: d["feature_config"].update(use_angles=False)),
    "feature-fingerprint-changed": ("knn1", lambda d: d.update(feature_fingerprint="0" * 16)),
    # consistent in itself, but one feature narrower than its feature config
    "lda-narrower-than-features": ("lda", lambda d: (
        _with_array(d["standardizer"], "mean", SHORT), _with_array(d["standardizer"], "std", SHORT),
        _param("coef", SHORT)(d))),
}


# Scalars of the wrong JSON type: id -> (classifier, edit(doc)). An int field
# takes an integer, a float field a number, a bool field a bool; no value is
# coerced into its field's type.
WRONGLY_TYPED_SCALARS = {
    "degree-float": (SVM, lambda d: d["params"]["machines"][0]["kernel"].update(degree=2.5)),
    "degree-bool": (SVM, lambda d: d["params"]["machines"][0]["kernel"].update(degree=True)),
    "degree-string": (SVM, lambda d: d["params"]["machines"][0]["kernel"].update(degree="2")),
    "scale-string": (SVM, lambda d: d["params"]["machines"][0]["kernel"].update(scale="4")),
    "converged-string": (SVM, _machine(converged="false")),
    "converged-int": (SVM, _machine(converged=1)),
    "bias-string": (SVM, _machine(bias="0.5")),
    "bias-bool": (SVM, _machine(bias=True)),
    "n-passes-float": (SVM, _machine(n_passes=3.0)),
    "seed-float": ("lda", lambda d: d.update(seed=1.9)),
    "seed-bool": ("lda", lambda d: d.update(seed=False)),
    "seed-string": ("knn1", lambda d: d.update(seed="0")),
    "class-string": ("lda", lambda d: d["params"]["classes"].__setitem__(0, "0")),
    "use-angles-int": ("qda", lambda d: d["feature_config"].update(use_angles=1)),
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 100-record dataset and a model file of each kind in MALFORMED_MODELS."""
    root = tmp_path_factory.mktemp("trained")
    data = root / "ds.jsonl"
    assert run(["synth", "--seed", "7", "--per-class", "20", "--out", str(data)]) == 0
    return data, {name: _train(root, data, name) for name in ("lda", "qda", "knn1", SVM)}


def _train(tmp_path, dataset_path, name: str):
    path = tmp_path / f"{name}.json"
    argv = ["train", "--data", str(dataset_path), "--model-out", str(path), "--classifier", name]
    assert run(argv) == 0
    return path


def _edit_model(path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


# Spec values each command must reject as a usage error:
# id -> (arguments before --out/--data, config file contents, $POSTURELAB_SEED)
REJECTED_SPEC_VALUES = {
    "synth-per-class-0": (["synth", "--per-class", "0"], None, None),
    "synth-noise-negative": (["synth", "--noise", "-1"], None, None),
    "synth-noise-nan": (["synth", "--noise", "nan"], None, None),
    "synth-participants-0": (["synth", "--participants", "0"], None, None),
    "synth-no-orientations": (["synth", "--orientations", ""], None, None),
    "synth-no-distances": (["synth", "--distances", ","], None, None),
    "synth-orientations-not-numbers": (["synth", "--orientations", "0,x"], None, None),
    "synth-scale-min-above-max": (["synth", "--scale-min", "1.2", "--scale-max", "1"], None, None),
    "synth-seed-env": (["synth"], None, "abc"),
    "evaluate-seed-env": (["evaluate"], None, "abc"),
    "config-features": (["evaluate"], {"features": "bogus"}, None),
    "config-angle-mode-featurize": (["featurize"], {"angle-mode": "bogus"}, None),
    "config-angle-mode-grid": (["grid", "--classifiers", "lda"], {"angle-mode": "bogus"}, None),
    "grid-unknown-classifier": (["grid", "--classifiers", "lda,svm_rbf"], None, None),
    "grid-svm-cell-c-0": (["grid", "--c", "0", "--classifiers", "lda,svm_linear"], None, None),
    "kernel-scale-0": (["evaluate", "--kernel-scale", "0"], None, None),
    "train-fraction-flag": (["evaluate", "--train-fraction", "1.5"], None, None),
    "config-train-fraction": (["evaluate"], {"train-fraction": 1.5}, None),
    "config-stratify": (["evaluate"], {"stratify": "bogus"}, None),
    "config-per-class-null": (["synth"], {"per-class": None}, None),
    "config-noise-object": (["synth"], {"noise": {"a": 1}}, None),
    "config-seed-null": (["synth"], {"seed": None}, None),
    "config-train-fraction-list": (["evaluate"], {"train-fraction": [0.5]}, None),
    "config-seed-list": (["evaluate"], {"seed": [1]}, None),
    "config-format-evaluate": (["evaluate"], {"format": "xml"}, None),
    "config-format-grid": (["grid"], {"format": "csv"}, None),
    "config-classifiers-number": (["grid"], {"classifiers": 3}, None),
    "config-per-class-fraction": (["synth"], {"per-class": 2.9}, None),
    "config-seed-fraction": (["synth"], {"seed": 1.7}, None),
    "config-seed-bool": (["evaluate"], {"seed": True}, None),
    "config-per-class-bool": (["synth"], {"per-class": True}, None),
    "config-participants-fraction": (["synth"], {"participants": 3.5}, None),
    "config-per-class-infinite": (["synth"], {"per-class": float("inf")}, None),
    "config-noise-beyond-float": (["synth"], {"noise": 10**400}, None),
    "config-angle-mode-number": (["featurize"], {"angle-mode": 3}, None),
    "synth-distances-inf": (["synth", "--distances", "inf"], None, None),
    "synth-orientations-nan": (["synth", "--orientations", "nan"], None, None),
    "synth-scale-max-inf": (["synth", "--scale-max", "inf"], None, None),
    "c-inf": (["evaluate", "--c", "inf"], None, None),
    "tol-inf": (["evaluate", "--tol", "inf"], None, None),
    "kernel-scale-inf": (["evaluate", "--kernel-scale", "inf"], None, None),
    "kernel-scale-nan": (["evaluate", "--kernel-scale", "nan"], None, None),
    "lda-c-inf": (["evaluate", "--classifier", "lda", "--c", "inf"], None, None),
    "grid-tol-inf": (["grid", "--classifiers", "lda,svm_linear", "--tol", "inf"], None, None),
    "config-kernel-scale-inf": (["evaluate"], {"kernel-scale": float("inf")}, None),
    "grid-no-classifiers": (["grid", "--classifiers", ","], None, None),
    "config-grid-no-classifiers": (["grid"], {"classifiers": []}, None),
    "grid-flag-prefix": (["grid", "--classifier", "lda"], None, None),
    "synth-seed-negative": (["synth", "--seed", "-1"], None, None),
    "evaluate-seed-negative": (["evaluate", "--seed", "-1"], None, None),
    "config-seed-negative": (["evaluate"], {"seed": -2}, None),
    "grid-seed-env-negative": (["grid"], None, "-3"),
    "config-classifier-list": (["evaluate"], {"classifier": ["lda"]}, None),
    "config-key-typo": (["synth"], {"per-class": 3, "seeed": 5}, None),
    "config-key-underscore": (["evaluate"], {"per_class": 3}, None),
    "config-resubstitution-string": (["evaluate"], {"resubstitution": "yes"}, None),
    "config-resubstitution-number": (["grid", "--classifiers", "lda"], {"resubstitution": 1}, None),
    "grid-repeated-classifier": (["grid", "--classifiers", "lda,knn1,lda"], None, None),
    "config-grid-repeated-classifier": (["grid"], {"classifiers": ["knn1", "knn1"]}, None),
    "config-orientations-null": (["synth"], {"orientations": None}, None),
    "config-orientations-number": (["synth"], {"orientations": 90}, None),
    "config-distances-object": (["synth"], {"distances": {"a": 1}}, None),
    "config-classifiers-null": (["grid"], {"classifiers": None}, None),
}

# Flags of each command; a choice flag's help names its accepted values.
COMMAND_FLAGS = {
    "synth": ("--seed", "--per-class", "--noise", "--scale-min", "--scale-max",
              "--orientations", "--distances", "--participants", "--out"),
    "featurize": ("--features", "--angle-mode", "--data", "--out"),
    "train": ("--seed", "--features", "--angle-mode", "--classifier", "--c", "--tol",
              "--kernel-scale", "--data", "--model-out", "--allow-nonconverged"),
    "predict": ("--model", "--data", "--out"),
    "evaluate": ("--seed", "--features", "--angle-mode", "--classifier", "--c", "--tol",
                 "--kernel-scale", "--train-fraction", "--stratify", "--resubstitution",
                 "--data", "--format", "--out"),
    "grid": ("--seed", "--c", "--tol", "--kernel-scale", "--train-fraction", "--stratify",
             "--resubstitution", "--angle-mode", "--classifiers", "--format", "--data", "--out"),
}
FORMATS = {"evaluate": ("text", "csv", "json"), "grid": ("text", "json")}
# Accepted values of each choice flag but --format, whose values are the command's FORMATS
CHOICE_VALUES = {
    "--features": tuple(FEATURE_SETS),
    "--angle-mode": tuple(mode.value for mode in AngleMode),
    "--classifier": CLASSIFIER_NAMES,
    "--classifiers": CLASSIFIER_NAMES,
    "--stratify": STRATIFY_MODES,
}
# A command that takes each choice key, for rejecting a value of it
CHOICE_COMMANDS = {"features": "evaluate", "angle-mode": "featurize", "classifier": "evaluate",
                   "stratify": "evaluate", "format": "grid"}

# Cases above whose config value has the wrong kind: the message names the key.
WRONG_KIND_CONFIG_CASES = (
    "config-per-class-null", "config-noise-object", "config-seed-null",
    "config-train-fraction-list", "config-seed-list", "config-per-class-fraction",
    "config-seed-fraction", "config-participants-fraction", "config-per-class-infinite",
    "config-noise-beyond-float", "config-angle-mode-number", "config-seed-bool",
    "config-per-class-bool", "config-resubstitution-string", "config-resubstitution-number",
    "config-classifiers-number", "config-orientations-null", "config-orientations-number",
    "config-distances-object", "config-classifiers-null",
)


class TestSynthCommand:
    def test_writes_expected_record_count(self, tmp_path):
        out = tmp_path / "ds.jsonl"
        code = run(["synth", "--seed", "42", "--per-class", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 20  # header + records
        header = json.loads(lines[0])
        assert header["generator"]["seed"] == 42

    def test_full_protocol_size(self, tmp_path):
        out = tmp_path / "full.jsonl"
        code = run(["synth", "--seed", "42", "--per-class", "208", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 1040

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["synth", "--seed", "5", "--per-class", "3", "--out", str(a)])
        run(["synth", "--seed", "5", "--per-class", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_env_var_default(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("POSTURELAB_SEED", "31")
        run(["synth", "--per-class", "3", "--out", str(a)])
        monkeypatch.delenv("POSTURELAB_SEED")
        run(["synth", "--seed", "31", "--per-class", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def test_one_parser_serves_a_sequence_of_runs(tmp_path, monkeypatch, capsys):
    """In one process, a usage error, a synth, the same synth with
    POSTURELAB_SEED set and a --config run each give the exit code and the
    file of a run on its own, in a first pass and again in a second."""
    def generated(seed: int, per_class: int) -> bytes:
        spec = SynthSpec(seed=seed, per_class=per_class)
        path = tmp_path / "expected.jsonl"
        save_dataset(synth_generate(spec), path, generator=spec.to_dict())
        return path.read_bytes()

    out, config = tmp_path / "out.jsonl", tmp_path / "config.json"
    config.write_text(json.dumps({"per-class": 3}))
    synth = ["synth", "--per-class", "2", "--out", str(out)]
    steps = [  # (POSTURELAB_SEED, argv, exit code, bytes written)
        (None, ["synth", "--per-class", "two", "--out", str(out)], 1, None),
        (None, synth, 0, generated(0, 2)),
        ("5", synth, 0, generated(5, 2)),
        ("5", ["--config", str(config), "synth", "--out", str(out)], 0, generated(5, 3)),
    ]
    for _ in range(2):
        for seed, argv, code, written in steps:
            if seed is None:
                monkeypatch.delenv("POSTURELAB_SEED", raising=False)
            else:
                monkeypatch.setenv("POSTURELAB_SEED", seed)
            out.unlink(missing_ok=True)
            assert run(argv) == code
            assert (out.read_bytes() if out.exists() else None) == written
        assert "usage error: per-class: two is not an integer" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["synth", "--bogus", "1", "--out", "x"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        assert run(["transmogrify"]) == 1

    def test_missing_required_flag(self):
        assert run(["synth"]) == 1

    @pytest.mark.parametrize("flag", ["--c", "--tol"])
    def test_nonpositive_svm_hyperparameter_is_usage_error(self, dataset_path, capsys, flag):
        assert run(["evaluate", "--data", str(dataset_path), flag, "0"]) == 1
        assert "usage error" in capsys.readouterr().err

    @staticmethod
    def run_case(tmp_path, monkeypatch, case: str, files: list) -> int:
        """run of a REJECTED_SPEC_VALUES case, given its file arguments."""
        argv, config, seed_env = REJECTED_SPEC_VALUES[case]
        if seed_env is not None:
            monkeypatch.setenv("POSTURELAB_SEED", seed_env)
        prefix = []
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            prefix = ["--config", str(tmp_path / "config.json")]
        return run([*prefix, *argv, *files])

    @pytest.mark.parametrize("case", REJECTED_SPEC_VALUES)
    def test_rejected_spec_value_is_usage_error(
        self, tmp_path, dataset_path, capsys, monkeypatch, case
    ):
        out = tmp_path / "out.jsonl"
        synth = REJECTED_SPEC_VALUES[case][0][0] == "synth"
        files = ["--out", str(out)] if synth else ["--data", str(dataset_path)]
        capsys.readouterr()
        assert self.run_case(tmp_path, monkeypatch, case, files) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "case", [case for case, (argv, *_) in REJECTED_SPEC_VALUES.items() if argv[0] != "synth"]
    )
    def test_rejected_spec_value_wins_over_missing_data(
        self, tmp_path, capsys, monkeypatch, case
    ):
        capsys.readouterr()
        files = ["--data", str(tmp_path / "missing.jsonl")]
        assert self.run_case(tmp_path, monkeypatch, case, files) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key", CHOICE_COMMANDS)
    def test_rejected_choice_names_the_accepted_values(
        self, tmp_path, dataset_path, capsys, key, source
    ):
        argv = [CHOICE_COMMANDS[key]]
        accepted = FORMATS[argv[0]] if key == "format" else CHOICE_VALUES[f"--{key}"]
        flags = [f"--{key}", "bogus"]
        if source == "config":
            (tmp_path / "config.json").write_text(json.dumps({key: "bogus"}))
            argv, flags = ["--config", str(tmp_path / "config.json"), *argv], []
        out = tmp_path / "out"
        capsys.readouterr()
        assert run([*argv, *flags, "--data", str(dataset_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "'bogus'" in err and str(accepted) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("per-class", 2.9), ("participants", "x"), ("seed", 1.5), ("noise", "abc"),
         ("orientations", "0,x"), ("scale-min", "2")],
    )
    def test_flag_and_config_value_share_one_message(self, tmp_path, capsys, key, value):
        out = tmp_path / "out.jsonl"
        (tmp_path / "config.json").write_text(json.dumps({key: value}))
        errs = []
        for argv in (["synth", f"--{key}", str(value)],
                     ["--config", str(tmp_path / "config.json"), "synth"]):
            capsys.readouterr()
            assert run([*argv, "--out", str(out)]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and errs[0].startswith("usage error:")
        assert not out.exists()

    @pytest.mark.parametrize("case", WRONG_KIND_CONFIG_CASES)
    def test_wrong_kind_config_value_names_key(self, tmp_path, dataset_path, capsys, case):
        argv, config, _ = REJECTED_SPEC_VALUES[case]
        (tmp_path / "config.json").write_text(json.dumps(config))
        files = ["--out", str(tmp_path / "out")]
        if argv[0] != "synth":
            files = ["--data", str(dataset_path)]
        capsys.readouterr()
        assert run(["--config", str(tmp_path / "config.json"), *argv, *files]) == 1
        (key,) = config
        assert capsys.readouterr().err.startswith(f"usage error: {key}: ")

    @pytest.mark.parametrize("case", [
        "config-classifiers-number", "config-orientations-null", "config-orientations-number",
        "config-distances-object", "config-classifiers-null",
    ])
    def test_config_list_of_another_kind_names_its_json_value(
        self, tmp_path, dataset_path, capsys, case
    ):
        argv, config, _ = REJECTED_SPEC_VALUES[case]
        (tmp_path / "config.json").write_text(json.dumps(config))
        files = ["--out", str(tmp_path / "out")]
        if argv[0] != "synth":
            files = ["--data", str(dataset_path)]
        capsys.readouterr()
        assert run(["--config", str(tmp_path / "config.json"), *argv, *files]) == 1
        ((key, value),) = config.items()
        assert capsys.readouterr().err == (
            f"usage error: {key}: expected a list or a comma-separated string, "
            f"got {json.dumps(value)}\n"
        )

    def test_train_rejects_negative_seed_before_writing(self, tmp_path, dataset_path, capsys):
        model = tmp_path / "model.json"
        capsys.readouterr()
        argv = ["train", "--seed", "-1", "--data", str(dataset_path), "--model-out", str(model)]
        assert run(argv) == 1
        assert capsys.readouterr().err == "usage error: seed must not be negative, got -1\n"
        assert not model.exists()

    def test_config_key_typo_is_named(self, tmp_path, capsys):
        (tmp_path / "config.json").write_text(json.dumps({"per-class": 3, "seeed": 5}))
        out = tmp_path / "out.jsonl"
        capsys.readouterr()
        assert run(["--config", str(tmp_path / "config.json"), "synth", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "usage error: unknown config key 'seeed'; choose from ('seed', 'per-class',"
        )

    @pytest.mark.parametrize(
        "key, command", [("data", "featurize"), ("out", "evaluate"), ("model", "predict"),
                         ("model-out", "train")])
    def test_path_flag_is_no_config_key(self, tmp_path, trained, capsys, key, command):
        data, models = trained
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        (tmp_path / "config.json").write_text(json.dumps({key: str(elsewhere)}))
        files = {"featurize": ["--data", data, "--out", out],
                 "evaluate": ["--data", data, "--out", out],
                 "predict": ["--model", models["lda"], "--data", data, "--out", out],
                 "train": ["--data", data, "--model-out", out]}[command]
        capsys.readouterr()
        argv = ["--config", tmp_path / "config.json", command, *files]
        assert run([str(arg) for arg in argv]) == 1
        assert capsys.readouterr().err.startswith(
            f"usage error: unknown config key {key!r}; choose from ('seed', 'per-class',"
        )
        assert not out.exists() and not elsewhere.exists()

    def test_repeated_grid_row_is_named(self, dataset_path, capsys):
        capsys.readouterr()
        assert run(["grid", "--classifiers", "lda,knn1,lda", "--data", str(dataset_path)]) == 1
        assert capsys.readouterr().err == "usage error: classifiers: 'lda' named more than once\n"

    def test_config_keys_of_other_commands_are_accepted(self, tmp_path):
        config = {"per-class": 3, "features": "angles", "classifier": "lda", "format": "csv"}
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "out.jsonl"
        assert run(["--config", str(tmp_path / "config.json"), "synth", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 15

    def test_svm_hyperparameters_do_not_constrain_lda(self, dataset_path):
        args = ["evaluate", "--data", str(dataset_path), "--classifier", "lda"]
        assert run([*args, "--c", "0", "--tol", "0"]) == 0

    @pytest.mark.parametrize(
        "argv, config",
        [(["--c", "0", "--tol", "0"], None), ([], {"classifier": "bogus"})],
        ids=["svm-flags", "config-classifier"],
    )
    def test_svm_free_grid_ignores_svm_and_classifier_values(
        self, tmp_path, dataset_path, argv, config
    ):
        prefix = []
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            prefix = ["--config", str(tmp_path / "config.json")]
        args = ["grid", "--data", str(dataset_path), "--classifiers", "lda,knn1", *argv]
        assert run([*prefix, *args, "--out", str(tmp_path / "grid.txt")]) == 0

    def test_help_exits_zero_and_lists_commands(self, capsys):
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        for cmd in ("synth", "featurize", "train", "predict", "evaluate", "grid"):
            assert cmd in out

    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_subcommand_help_lists_flags(self, capsys, command):
        assert run([command, "--help"]) == 0
        out = capsys.readouterr().out
        for flag in COMMAND_FLAGS[command]:
            assert flag in out
            values = FORMATS[command] if flag == "--format" else CHOICE_VALUES.get(flag, ())
            for value in values:
                assert value in out, (flag, value)


class TestDataErrors:
    def test_missing_dataset_is_exit_2(self, capsys):
        assert run(["train", "--data", "nope.jsonl", "--model-out", "m.json"]) == 2
        assert "data error" in capsys.readouterr().err

    def test_corrupt_dataset_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not a header\n")
        assert run(["featurize", "--data", str(bad), "--out", "-"]) == 2

    @pytest.mark.parametrize("key", ["orientation_deg", "distance_m"])
    def test_bad_metadata_is_exit_2_with_line(self, dataset_path, capsys, key):
        lines = dataset_path.read_text().splitlines()
        rec = json.loads(lines[4])
        rec[key] = "north"
        lines[4] = json.dumps(rec)
        dataset_path.write_text("\n".join(lines) + "\n")
        assert run(["featurize", "--data", str(dataset_path), "--out", "-"]) == 2
        assert capsys.readouterr().err.startswith("data error: line 5:")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda rec: rec.update(orientation_deg=10**400),
            lambda rec: rec.update(distance_m=10**400),
            lambda rec: rec["joints"]["Head"].__setitem__(0, 10**400),
            lambda rec: rec["joints"].update(Head="123"),
            lambda rec: rec["joints"].update(Head=["1.5", 2, 3]),
        ],
        ids=["orientation-beyond-float", "distance-beyond-float", "coordinate-beyond-float",
             "string-joint", "string-coordinate"],
    )
    def test_unreadable_number_is_exit_2_with_line(self, dataset_path, capsys, edit):
        lines = dataset_path.read_text().splitlines()
        rec = json.loads(lines[4])
        edit(rec)
        lines[4] = json.dumps(rec)
        dataset_path.write_text("\n".join(lines) + "\n")
        assert run(["featurize", "--data", str(dataset_path), "--out", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "line 5" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "case, message",
        [("data", "line 1: not UTF-8 text"), ("data-line-4", "line 4: not UTF-8 text"),
         ("model", "unreadable model file: not UTF-8 text"), ("config", "config file")],
        ids=["data", "data-line-4", "model", "config"],
    )
    def test_file_that_is_not_utf8_is_exit_2(self, tmp_path, dataset_path, capsys, case, message):
        bad = tmp_path / "bad"
        if case == "data-line-4":
            lines = dataset_path.read_bytes().splitlines(keepends=True)
            bad.write_bytes(b"".join(lines[:3]) + b"\xff" + b"".join(lines[3:]))
        else:
            bad.write_bytes(b"\xff{}\n")
        argv = {"model": ["predict", "--model", str(bad), "--data", str(dataset_path)],
                "config": ["--config", str(bad), "featurize", "--data", str(dataset_path)]}
        assert run(argv.get(case, ["featurize", "--data", str(bad)])) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {message}") and err.endswith("not UTF-8 text\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, reason",
        [(None, "not found"), ("{\"seed\": ", "Expecting value"),
         ("[1]", "expected a JSON object")],
        ids=["missing", "invalid-json", "not-an-object"],
    )
    def test_bad_config_file_is_exit_2(self, tmp_path, dataset_path, capsys, text, reason):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        assert run(["--config", str(path), "featurize", "--data", str(dataset_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: config file ") and str(path) in err and reason in err

    def test_output_in_a_missing_directory_is_exit_2(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.jsonl"
        assert run(["synth", "--per-class", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and "nodir" in err and not out.parent.exists()

    def test_split_without_test_records_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "tiny.jsonl"
        assert run(["synth", "--seed", "0", "--per-class", "7", "--out", str(path)]) == 0
        argv = ["evaluate", "--data", str(path), "--classifier", "lda", "--train-fraction", "0.99"]
        assert run(argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_degenerate_skeleton_is_exit_3(self, tmp_path, capsys):
        # all joints coincident: the distance normalizer cannot be formed
        ds = synth_generate(SynthSpec(seed=1, per_class=2))
        path = tmp_path / "degenerate.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        for name in rec["joints"]:
            rec["joints"][name] = [0.0, 0.0, 0.0]
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        assert run(["featurize", "--data", str(path), "--out", "-"]) == 3
        assert "record 0:" in capsys.readouterr().err

    @pytest.mark.parametrize("features", ["distances", "angles", "combined"])
    def test_overflowing_features_are_exit_3(self, tmp_path, capsys, features):
        # finite coordinates near 1e308: squared lengths overflow
        path, out = tmp_path / "huge.jsonl", tmp_path / "features.jsonl"
        argv = ["synth", "--per-class", "2", "--scale-min", "1e308", "--scale-max", "1e308"]
        assert run([*argv, "--out", str(path)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            code = run(["featurize", "--data", str(path), "--features", features,
                        "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: record 0: ") and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_kernel_matrix_is_exit_3(self, tmp_path, capsys):
        # scale**2 underflows to 0, so the polynomial Gram divides by zero
        path = tmp_path / "s50.jsonl"
        assert run(["synth", "--seed", "3", "--per-class", "10", "--out", str(path)]) == 0
        capsys.readouterr()
        argv = ["evaluate", "--data", str(path), "--classifier", "svm_quadratic",
                "--kernel-scale", "1e-200", "--format", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numeric failure: kernel matrix has a non-finite entry")
        assert captured.err.count("\n") == 1 and captured.out == ""


class TestModelFiles:
    def predict(self, model_path, dataset_path, tmp_path) -> int:
        out = tmp_path / "preds.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would raise here
            code = run(["predict", "--model", str(model_path), "--data", str(dataset_path),
                        "--out", str(out)])
        assert code == 0 or not out.exists()
        return code

    @pytest.mark.parametrize("case", CORRUPT_PAYLOADS)
    def test_corrupt_array_payload_is_exit_2(self, tmp_path, dataset_path, capsys, case):
        path = _train(tmp_path, dataset_path, "knn1")
        field, edit = CORRUPT_PAYLOADS[case]
        _edit_model(path, lambda doc: doc["params"].update({field: edit(doc["params"][field])}))
        with pytest.raises(CorruptModel, match="malformed model file"):
            load_model(path)
        capsys.readouterr()
        assert self.predict(path, dataset_path, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed model file") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "key, value",
        [("scale", float("inf")), ("scale", float("nan")), ("bias", float("inf")),
         ("bias", float("-inf")), ("c", float("nan")), ("bias", 10**400)],
        ids=["scale-inf", "scale-nan", "bias-inf", "bias-minus-inf", "c-nan",
             "bias-beyond-float"],
    )
    def test_non_finite_svm_number_is_exit_2(self, tmp_path, dataset_path, capsys, key, value):
        path = _train(tmp_path, dataset_path, "svm_quadratic")

        def edit(doc):
            machine = doc["params"]["machines"][2]
            (machine["kernel"] if key == "scale" else machine)[key] = value

        _edit_model(path, edit)
        capsys.readouterr()
        assert self.predict(path, dataset_path, tmp_path) == 2
        assert capsys.readouterr().err.startswith("data error: malformed model file")

    def test_degenerate_kernel_scale_is_exit_3(self, tmp_path, dataset_path, capsys):
        # scale**2 underflows to 0, as in training at that scale
        path = _train(tmp_path, dataset_path, "svm_quadratic")

        def edit(doc):
            for machine in doc["params"]["machines"]:
                machine["kernel"]["scale"] = 1e-200

        _edit_model(path, edit)
        capsys.readouterr()
        assert self.predict(path, dataset_path, tmp_path) == 3
        err = capsys.readouterr().err
        assert err == "numeric failure: SVM decision values are not finite\n"

    @pytest.mark.parametrize("value", [7, -1])
    @pytest.mark.parametrize("case", CLASS_INDEX_EDITS)
    def test_class_index_outside_the_postures_is_exit_2(
        self, tmp_path, dataset_path, capsys, case, value
    ):
        name, edit = CLASS_INDEX_EDITS[case]
        path = _train(tmp_path, dataset_path, name)
        _edit_model(path, lambda doc: edit(doc["params"], value))
        with pytest.raises(CorruptModel, match="class index outside 0-4"):
            load_model(path)
        capsys.readouterr()
        assert self.predict(path, dataset_path, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed model file") and err.count("\n") == 1

    @staticmethod
    def edited(model_path, tmp_path, edit):
        path = tmp_path / "edited.json"
        path.write_text(model_path.read_text())
        _edit_model(path, edit)
        return path

    @pytest.mark.parametrize("case", MALFORMED_MODELS)
    def test_self_contradicting_model_is_exit_2(self, tmp_path, trained, capsys, case):
        data, models = trained
        name, edit = MALFORMED_MODELS[case]
        path = self.edited(models[name], tmp_path, edit)
        capsys.readouterr()
        assert self.predict(path, data, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed model file: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", WRONGLY_TYPED_SCALARS)
    def test_wrongly_typed_scalar_is_exit_2(self, tmp_path, trained, capsys, case):
        data, models = trained
        name, edit = WRONGLY_TYPED_SCALARS[case]
        path = self.edited(models[name], tmp_path, edit)
        capsys.readouterr()
        assert self.predict(path, data, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: malformed model file: expected a ")
        assert err.count("\n") == 1

    def test_float_field_takes_a_json_integer(self, tmp_path, trained):
        data, models = trained
        path = self.edited(models[SVM], tmp_path, _machine(bias=0, c=1))
        machine = load_model(path).model.machines[0]
        assert (machine.bias, machine.c) == (0.0, 1.0) and type(machine.bias) is float
        assert self.predict(path, data, tmp_path) == 0

    def test_qda_negated_whitener_loads_and_predicts(self, tmp_path, trained):
        # the scorer reads the whiteners as saved and factors nothing, so a
        # file that loads also predicts; a negated whitener spheres alike
        data, models = trained
        assert self.predict(models["qda"], data, tmp_path) == 0
        expected = (tmp_path / "preds.jsonl").read_bytes()
        path = self.edited(models["qda"], tmp_path, _param("whiteners", _negated_first))
        load_model(path)
        assert self.predict(path, data, tmp_path) == 0
        assert (tmp_path / "preds.jsonl").read_bytes() == expected

    @pytest.mark.parametrize("version", [2, 1, 0, "3", None])
    def test_other_version_is_exit_2(self, tmp_path, dataset_path, capsys, version):
        path = _train(tmp_path, dataset_path, "lda")
        _edit_model(path, lambda doc: doc.update(version=version))
        capsys.readouterr()
        assert self.predict(path, dataset_path, tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: file version {version!r}, reader supports 3")
        assert "retrain" in err

    def test_predict_lines_are_sorted_key_json(self, tmp_path, dataset_path, capsys):
        path = _train(tmp_path, dataset_path, "lda")
        assert run(["predict", "--model", str(path), "--data", str(dataset_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 100
        labels = set()
        for i, line in enumerate(lines):
            doc = json.loads(line)
            assert line == json.dumps({"index": i, "label": doc["label"]}, sort_keys=True)
            labels.add(doc["label"])
        assert labels == set(LABEL_NAMES)


class TestSwitches:
    """A switch flag and its config key: true when the flag is given, else
    the config's JSON bool, else false."""

    @staticmethod
    def config(tmp_path, **values) -> list[str]:
        (tmp_path / "config.json").write_text(json.dumps(values))
        return ["--config", str(tmp_path / "config.json")]

    @pytest.mark.parametrize("command", ["evaluate", "grid"])
    def test_config_true_sets_resubstitution(self, tmp_path, dataset_path, capsys, command):
        argv = [command, "--data", str(dataset_path), "--format", "json", "--out", "-"]
        if command == "grid":
            argv += ["--classifiers", "lda"]
        capsys.readouterr()
        assert run([*self.config(tmp_path, resubstitution=True), *argv]) == 0
        docs = json.loads(capsys.readouterr().out)
        for doc in docs if command == "grid" else [docs]:
            assert doc["split"]["resubstitution"] is True
            assert doc["split"]["n_train"] == doc["split"]["n_test"] == 100

    @pytest.fixture
    def nonconverging(self, monkeypatch):
        """SMO without an update budget: every machine keeps its KKT violations."""
        budgetless = functools.partial(classifiers.smo_train, max_total_passes=0)
        monkeypatch.setattr(classifiers, "smo_train", budgetless)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_allow_nonconverged_saves_the_model(
        self, tmp_path, dataset_path, capsys, nonconverging, source
    ):
        model = tmp_path / "model.json"
        argv = ["train", "--data", str(dataset_path), "--model-out", str(model)]
        assert run(argv) == 3 and not model.exists()
        if source == "flag":
            argv.append("--allow-nonconverged")
        else:
            argv = [*self.config(tmp_path, **{"allow-nonconverged": True}), *argv]
        capsys.readouterr()
        assert run(argv) == 0 and model.exists()
        assert "warning: 10 binary SVMs not converged" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["yes", 1, None])
    def test_allow_nonconverged_takes_only_a_bool(self, tmp_path, dataset_path, capsys, value):
        model = tmp_path / "model.json"
        argv = ["train", "--data", str(dataset_path), "--model-out", str(model)]
        capsys.readouterr()
        assert run([*self.config(tmp_path, **{"allow-nonconverged": value}), *argv]) == 1
        assert capsys.readouterr().err == (
            f"usage error: allow-nonconverged: a switch must be true or false, got {value!r}\n"
        )
        assert not model.exists()


class TestPipeline:
    def test_train_then_predict(self, tmp_path, dataset_path, capsys):
        model_path = tmp_path / "model.json"
        code = run([
            "train", "--data", str(dataset_path), "--model-out", str(model_path),
            "--classifier", "svm_quadratic", "--seed", "3",
        ])
        assert code == 0
        preds_path = tmp_path / "preds.jsonl"
        code = run([
            "predict", "--model", str(model_path), "--data", str(dataset_path),
            "--out", str(preds_path),
        ])
        assert code == 0
        preds = [json.loads(line) for line in preds_path.read_text().splitlines()]
        assert len(preds) == 100
        truth = [json.loads(l)["label"] for l in dataset_path.read_text().splitlines()[1:]]
        acc = np.mean([p["label"] == t for p, t in zip(preds, truth)])
        assert acc > 0.95  # resubstitution on clean synthetic data

    def test_featurize_emits_vectors(self, dataset_path, capsys):
        assert run(["featurize", "--data", str(dataset_path), "--features",
                    "distances", "--out", "-"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 100
        first = json.loads(lines[0])
        assert len(first["values"]) == 300
        assert first["label"] == "Standing"

    @pytest.mark.parametrize("command", ["featurize", "lda", "qda", "knn1", SVM])
    def test_header_only_dataset_writes_an_empty_file(self, tmp_path, trained, command):
        data, models = trained
        header_only = tmp_path / "empty.jsonl"
        header_only.write_text(data.read_text().splitlines(keepends=True)[0])
        out = tmp_path / "out.jsonl"
        argv = (["featurize"] if command == "featurize"
                else ["predict", "--model", str(models[command])])
        assert run([*argv, "--data", str(header_only), "--out", str(out)]) == 0
        assert out.read_bytes() == b""

    def test_evaluate_text_report(self, dataset_path, capsys):
        code = run([
            "evaluate", "--data", str(dataset_path), "--classifier", "knn1",
            "--features", "combined", "--seed", "9", "--out", "-",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall accuracy" in out
        assert "Standing" in out

    def test_evaluate_reports_byte_identical_modulo_timings(self, tmp_path, dataset_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert run([
                "evaluate", "--data", str(dataset_path), "--classifier",
                "svm_linear", "--format", "json", "--seed", "4",
                "--out", str(path),
            ]) == 0
            doc = json.loads(path.read_text())
            doc.pop("timings_ms")
            outs.append(json.dumps(doc, sort_keys=True))
        assert outs[0] == outs[1]

    def test_grid_text_table(self, dataset_path, capsys):
        code = run([
            "grid", "--data", str(dataset_path), "--seed", "2",
            "--classifiers", "lda,knn1", "--out", "-",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "classifier" in out
        assert "lda" in out and "knn1" in out
        assert "combined" in out

    def test_grid_json_format(self, dataset_path, capsys):
        code = run([
            "grid", "--data", str(dataset_path), "--seed", "2",
            "--classifiers", "lda,knn1", "--format", "json", "--out", "-",
        ])
        assert code == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 6  # 2 classifiers x 3 feature sets
        assert {d["classifier"]["name"] for d in docs} == {"lda", "knn1"}
        assert {d["features"]["set"] for d in docs} == {"angles", "distances", "combined"}

    def test_grid_classifiers_from_config_list(self, tmp_path, dataset_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classifiers": ["lda", "knn1"]}))
        code = run([
            "--config", str(config), "grid", "--data", str(dataset_path),
            "--seed", "2", "--format", "json", "--out", "-",
        ])
        assert code == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["classifier"]["name"] for d in docs] == ["lda"] * 3 + ["knn1"] * 3

    def test_config_file_supplies_defaults(self, tmp_path, dataset_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classifier": "knn1", "features": "distances"}))
        code = run([
            "--config", str(config), "evaluate", "--data", str(dataset_path),
            "--seed", "2", "--format", "json", "--out", "-",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classifier"]["name"] == "knn1"
        assert doc["features"]["set"] == "distances"

    def test_flags_override_config(self, tmp_path, dataset_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classifier": "knn1"}))
        code = run([
            "--config", str(config), "evaluate", "--data", str(dataset_path),
            "--classifier", "lda", "--seed", "2", "--format", "json", "--out", "-",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["classifier"]["name"] == "lda"


# A value of each value flag: key -> (a command that takes it, the flag's
# string, None for a switch, and the config's JSON value). Each differs from
# the flag's default.
FLAG_VALUES = {
    "seed": ("synth", "5", 5),
    "per-class": ("synth", "3", 3),
    "noise": ("synth", "0.05", 0.05),
    "scale-min": ("synth", "0.9", 0.9),
    "scale-max": ("synth", "1.1", 1.1),
    "orientations": ("synth", "0,45", [0, 45]),
    "distances": ("synth", "2,3", [2, 3]),
    "participants": ("synth", "4", 4),
    "features": ("featurize", "angles", "angles"),
    "angle-mode": ("featurize", "all_triples", "all_triples"),
    "classifier": ("train", "lda", "lda"),
    "c": ("train", "2", 2),
    "tol": ("train", "0.01", 0.01),
    "kernel-scale": ("train", "3", 3),
    "allow-nonconverged": ("train", None, True),
    "train-fraction": ("evaluate", "0.5", 0.5),
    "stratify": ("evaluate", "label_participant", "label_participant"),
    "resubstitution": ("evaluate", None, True),
    "format": ("evaluate", "json", "json"),
    "classifiers": ("grid", "lda,knn1", ["lda", "knn1"]),
}


@pytest.mark.parametrize("key", _FLAGS)
def test_flag_and_config_key_give_one_result(tmp_path, dataset_path, monkeypatch, key):
    """Each value flag of the table: its string and its config key's JSON value
    give the same output, and one that differs from the default's."""
    command, string, value = FLAG_VALUES[key]
    monkeypatch.delenv("POSTURELAB_SEED", raising=False)
    if key == "allow-nonconverged":  # SMO without an update budget converges no machine
        monkeypatch.setattr(classifiers, "smo_train",
                            functools.partial(classifiers.smo_train, max_total_passes=0))
    (tmp_path / "config.json").write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    files = {"synth": ["--out", out], "train": ["--data", dataset_path, "--model-out", out]}.get(
        command, ["--data", dataset_path, "--out", out])
    if command == "evaluate" and key != "format":
        files += ["--format", "json"]

    def result(argv) -> tuple:
        out.unlink(missing_ok=True)
        code = run([str(arg) for arg in [*argv, *files]])
        text = out.read_text() if out.exists() else None
        if command == "evaluate" and text and text.startswith("{"):  # json, less its timings
            return code, {k: v for k, v in json.loads(text).items() if k != "timings_ms"}
        return code, text

    flag = [f"--{key}"] + ([] if string is None else [string])
    from_flag = result([command, *flag])
    assert from_flag[0] == 0
    assert result(["--config", tmp_path / "config.json", command]) == from_flag
    assert result([command]) != from_flag
