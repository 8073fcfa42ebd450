"""Pinned outputs: the sha256 of every file a short CLI pipeline writes, and
of the feature matrix and fingerprint of each feature configuration.

A refactor that moves one byte of a dataset file, a grid report, a model file,
a prediction or a feature value fails here, even when the result is
self-consistent. The pipeline table was generated before model types checked
their own fields, and those checks left it unchanged; the feature table was
generated before the single-row feature path dropped numpy's dispatch layers.
The SMO face steps moved only model-svm_quadratic (it was 166493aa...c91c):
two of its ten machines stop at another point within tol, one in 33 updates
instead of 34, and every prediction is unchanged. Moving the maximal
violating pair instead of the second-order pair moved only it again (it was
4102308d...c6cd): each of its ten machines takes another path to tol (389
updates in all instead of 278) and keeps its support vectors, its dual
coefficients move by at most 0.049 and its bias by at most 3e-4, and every
prediction is unchanged.

Taking the spine normalizer by the elementwise length formula of the pair
distances, not by a BLAS matmul, moved the distance and combined feature
hashes (distances were 9daec811...99ed8, combined/adjacent f92b3034...aeb8,
combined/all_triples 5d5a1267...7f43) and the four model files, which hold
features (model-knn1 was 91af0247...c47c, model-lda 00706a17...1b3e,
model-qda c1db5c20...89cb, model-svm_quadratic 8d4a65ad...33dd). On the
AVX-512 OpenBLAS kernel, 2001 of the 19,200 distances of feature_stack() (8
of its 64 records) moved by at most 2 ulp; the other kernels gave the new
distance bits already. No prediction, synth file, grid or angle hash moved.

Model format 3 stores what the LDA and QDA scorers read: LDA its
coefficients and intercepts instead of its means, pooled precision and log
priors, QDA each class's whitener (the Cholesky factor of its precision)
instead of the precision. Each is computed at training by the expressions
the scorers evaluated before, so every prediction keeps its bits. That moved
model-lda (it was 9a242ef3...52a4b; 25,098 bytes instead of 1,179,728) and
model-qda (it was b363aa58...81fbd). The version number moved model-knn1
(it was 4d7b8b9c...5487e) and model-svm_quadratic (it was 713f714f...ddfdd)
in that field alone: with "version":2 written back, each file has its old
hash. No prediction, synth file or grid hash moved.

Who decides a pinned value: the code alone decides synth, synth-heldout, the
grid, model-knn1, every predict file and every feature matrix (on one numpy
build: angles take np.arccos's SIMD loop). The BLAS kernel and its thread
count also decide model-lda and model-qda (LAPACK inverse and Cholesky, and
LDA's coefficient product) and model-svm_quadratic (Gram products), so on
another OpenBLAS kernel only
those three may fail. test_code_decided_outputs_match_under_other_blas_kernels
checks the first group across kernels. CI prints numpy's version, its build
configuration and the OpenBLAS core before the tests, so that a failure can
be traced to its cause.
"""
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import feature_stack

import posturelab
from posturelab.cli import run
from posturelab.features import FeatureConfig, config_fingerprint, extract_matrix

PINNED = {
    "synth": "f5f6adbdbbe1c8a52efa7991321540f7ad4978e011576f1b15b611cacd052c45",
    "synth-heldout": "723dc9fbc5761b8f3f3d8ce33b9c71cc955f15a574e58cc9dcd6ef06549e4ffc",
    "grid": "96bfc709f67daed38b752919a054b64955aa9f77b4339ac5630c4df2aba64a19",
    "model-lda": "b98d5a60cf093c5fe6faf76836ae5922c5de0f74f91d89fe837e19b6e296d5b3",
    "predict-lda": "10af4c70426a291724ca7c96b77762d87b4ae816d6082bf1204eabfaed63f1cd",
    "model-qda": "85feea277db47f522c2d05a8d059c98fc66c797c6e9bb2afc01c5f208750957b",
    "predict-qda": "2defde0639cbec98b34414c6302c2f0e2b03c265ceb9a6738a91c55b2cbc4d3e",
    "model-knn1": "56973bff5ac7b15094aa0dc3044f0de13a541cfcc1002453ba76b29a687d2cdb",
    "predict-knn1": "73124fdbd64818d65951c734f375ffb1ba09e3e4f0117f563df1b68bc77fb401",
    "model-svm_quadratic": "2792dad6b7fbe73a79a1c40cc1960f17b2cd701437046fcb88d09555036aea24",
    "predict-svm_quadratic": "0e7fd3b6e16005cf2da01e5fa8da4385be1a6a000ced223005840936453a5cbf",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def synth_hashes(tmp_path, kinds) -> tuple[dict[str, str], Path]:
    """Synth a training and a noisier held-out file, then train each kind on
    the first and predict the second. Also returns the training file."""
    train, heldout = tmp_path / "train.jsonl", tmp_path / "heldout.jsonl"
    assert run(["synth", "--seed", "3", "--per-class", "24", "--out", str(train)]) == 0
    assert run(["synth", "--seed", "4", "--per-class", "24", "--noise", "0.1",
                "--out", str(heldout)]) == 0
    hashes = {"synth": sha256(train.read_bytes()), "synth-heldout": sha256(heldout.read_bytes())}
    for name in kinds:
        model, pred = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        assert run(["train", "--data", str(train), "--classifier", name, "--seed", "3",
                    "--model-out", str(model)]) == 0
        assert run(["predict", "--model", str(model), "--data", str(heldout),
                    "--out", str(pred)]) == 0
        hashes[f"model-{name}"] = sha256(model.read_bytes())
        hashes[f"predict-{name}"] = sha256(pred.read_bytes())
    return hashes, train


def pipeline_hashes(tmp_path) -> dict[str, str]:
    """synth_hashes of four kinds, plus the grid of the training file (timings
    stripped)."""
    hashes, train = synth_hashes(tmp_path, ("lda", "qda", "knn1", "svm_quadratic"))
    grid = tmp_path / "grid"
    assert run(["grid", "--data", str(train), "--seed", "3", "--format", "json",
                "--out", str(grid)]) == 0
    docs = json.loads(grid.read_text())
    for doc in docs:
        del doc["timings_ms"]
    return {**hashes, "grid": sha256(json.dumps(docs, sort_keys=True).encode())}


def test_pipeline_outputs_match_pinned_hashes(tmp_path):
    assert pipeline_hashes(tmp_path) == PINNED


# (feature set, angle mode) -> (fingerprint, sha256 of the extract_matrix
# bytes of feature_stack()). Distances do not depend on the angle mode.
EXTRACT_PINNED = {
    ("distances", "adjacent"): (
        "1edfa0f34a9073ac", "0aaa275bf57002dab1bcb244bcb6ef0f1f900785775e49fa2f1a5962b6cc0990"),
    ("angles", "adjacent"): (
        "b45713a08d1ed75a", "abf6f6f3a98b57017aa7e1cc2aeb42b7efb5bb428a9bb44889f5bd4ae9927664"),
    ("combined", "adjacent"): (
        "1e9e062406bb5287", "a74388e2cd935c8ac1301e1bd5474876c15c94027df5c01e1d9085b02ba233da"),
    ("distances", "all_triples"): (
        "63ef0e0264369621", "0aaa275bf57002dab1bcb244bcb6ef0f1f900785775e49fa2f1a5962b6cc0990"),
    ("angles", "all_triples"): (
        "e9abb9aa31a77a3f", "27b904bd89b77dd88f590a081ad9ea135c101cd179509dd12e5537a846c4d235"),
    ("combined", "all_triples"): (
        "dcb0ca5fb4ff0fdb", "d941d5c73186862f02c9c8a0af53f0905e7aaebbbd78ac487d2b59bdfcbfb6fe"),
}


@pytest.mark.parametrize("features_set, mode", EXTRACT_PINNED)
def test_feature_matrix_and_fingerprint_match_pinned(features_set, mode):
    cfg = FeatureConfig.from_name(features_set, mode)
    X, fingerprint = extract_matrix(feature_stack(), cfg)
    assert X.shape == (64, cfg.length)
    assert (fingerprint, config_fingerprint(cfg)) == (EXTRACT_PINNED[features_set, mode][0],) * 2
    assert sha256(X.tobytes()) == EXTRACT_PINNED[features_set, mode][1]


def code_decided_hashes(tmp_path) -> dict[str, str]:
    """The outputs that no BLAS kernel decides: the synth files, the knn1 model
    (it holds features) and its predictions, and the six feature matrices of
    feature_stack()."""
    hashes, _ = synth_hashes(tmp_path, ("knn1",))
    for features_set, mode in EXTRACT_PINNED:
        X, _ = extract_matrix(feature_stack(), FeatureConfig.from_name(features_set, mode))
        hashes[f"{features_set}/{mode}"] = sha256(X.tobytes())
    return hashes


_CHILD = """
import json, pathlib, sys
sys.path.insert(0, sys.argv[1])
from test_pinned_outputs import code_decided_hashes
print(json.dumps(code_decided_hashes(pathlib.Path(sys.argv[2]))))
"""


# OPENBLAS_CORETYPE names x86 kernels; NUM_THREADS=1 changes the BLAS's split.
@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types are x86-64 kernel names")
@pytest.mark.parametrize("blas", [{"OPENBLAS_CORETYPE": "Prescott"},
                                  {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}])
def test_code_decided_outputs_match_under_other_blas_kernels(tmp_path, blas):
    """A child process under another OpenBLAS kernel writes the same bytes as
    this one, whatever kernel this host picks."""
    here = code_decided_hashes(tmp_path)
    child_dir = tmp_path / "child"
    child_dir.mkdir()
    pythonpath = [str(Path(posturelab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **blas, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    child = subprocess.run([sys.executable, "-c", _CHILD, str(Path(__file__).parent),
                            str(child_dir)], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == here
