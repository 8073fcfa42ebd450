"""The benchmark's span probes (perfbench/tracer.py) wrap attributes of the
package by name. A refactor that drops or renames one must fail here, not in
the middle of a benchmark run."""
import importlib.util
from pathlib import Path

import pytest

import posturelab.classifiers as classifiers
import posturelab.features as features
from posturelab.cli import run
from posturelab.dataset import load_dataset, load_model

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_install_record_and_restore(tracer, tmp_path):
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, *_ in tracer._probe_table()]
    tr = tracer.Tracer()
    probes = tracer.Probes(tr)
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
        tr.begin_op("probe-check", 0, True)
        path = tmp_path / "ds.jsonl"
        assert run(["synth", "--seed", "1", "--per-class", "4", "--out", str(path)]) == 0
        assert run(["evaluate", "--data", str(path), "--classifier", "lda"]) == 0
        model = tmp_path / "model.json"
        assert run(["train", "--data", str(path), "--classifier", "svm_quadratic",
                    "--model-out", str(model)]) == 0
        assert run(["predict", "--model", str(model), "--data", str(path),
                    "--out", str(tmp_path / "pred.jsonl")]) == 0
        # one live frame, through the module attributes that the probes replace
        mf = load_model(model)
        frame = features.extract(load_dataset(path).skeletons()[0], mf.feature_config)
        classifiers.predict_label(mf.model, frame)
    finally:
        probes.remove()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    for name in ("dataset.synth", "dataset.load", "evaluation.split", "features.extract_matrix",
                 "classifiers.train.svm_quadratic", "dataset.load_model.svm_quadratic",
                 "classifiers.predict_batch.svm_quadratic", "kernels.gram",
                 "features.extract", "features.fingerprint", "classifiers.predict_label"):
        assert name in tr.names
    # the frame's spans nest as classify-frame's per-layer metrics expect
    spans = [(tr.names[tr.name[i]], tr.parent[i]) for i in range(len(tr.start))]
    nested = {(name, spans[parent][0]) for name, parent in spans if parent >= 0}
    assert ("features.fingerprint", "features.extract") in nested
    assert ("kernels.gram", "classifiers.predict_label") in nested


def test_grid_feeds_its_training_and_evaluation_probes(tracer, tmp_path):
    """A grid op reaches SVM training and each cell's evaluation through the
    module attributes that the probes replace; a call that bypassed one would
    zero its per-layer metrics."""
    tr = tracer.Tracer()
    probes = tracer.Probes(tr)
    try:
        tr.begin_op("grid-check", 0, True)
        path = tmp_path / "ds.jsonl"
        assert run(["synth", "--seed", "1", "--per-class", "4", "--out", str(path)]) == 0
        assert run(["grid", "--data", str(path), "--out", str(tmp_path / "grid.txt")]) == 0
    finally:
        probes.remove()
    for name in ("classifiers.ovo_train", "svm.smo_train", "evaluation.evaluate",
                 "evaluation.grid", "evaluation.confusion"):
        assert name in tr.names
