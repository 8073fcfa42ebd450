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

Factoring each regularized covariance once moved model-lda (it was
b98d5a60...d5b3) and model-qda (it was 85feea27...957b). With S = L L' its
Cholesky factorization and W = inv(L)', LDA's coefficients are W (W' means')
instead of inv(S) means', and QDA's whiteners are W_k instead of the
Cholesky factor of inv(S_k), which fails when the rounded inverse of a
class with far fewer records than features is not positive definite. Both
W_k W_k' and the old factor's product are inv(S_k) to rounding; no
prediction, synth file or grid hash moved.

Angle features became the clipped cosine of each angle instead of its
np.arccos, and every 3-vector product the elementwise (u0 v0 + u1 v1) + u2 v2
instead of an einsum; the fingerprint names the encoding ("angles=cosine"
for "angles=1"). That moved the four angle and combined feature rows
(angles/adjacent was b45713a08d1ed75a and abf6f6f3...7664,
combined/adjacent 1e9e062406bb5287 and a74388e2...33da,
angles/all_triples e9abb9aa31a77a3f and 27b904bd...c235,
combined/all_triples dcb0ca5fb4ff0fdb and d941d5c7...b6fe) and every
pipeline output of the default combined features: model-lda (it was
0f337b25...de10), model-qda (f8e6799c...0504), model-knn1
(56973bff...2cdb), model-svm_quadratic (2792dad6...ea24), predict-lda
(10af4c70...f1cd), predict-qda (2defde06...4d3e), predict-knn1
(73124fdb...b401), predict-svm_quadratic (0e7fd3b6...5cbf) and the grid
(96bfc709...4a19). The models fit other features, so 28, 1, 9 and 2 of the
120 held-out labels of the 10 cm file moved for lda, qda, knn1 and
svm_quadratic, at held-out accuracy 0.483 -> 0.508, 0.208 -> 0.200,
0.608 -> 0.558 and 0.667 -> 0.667. The synth files and both distance rows
kept their bits.

Who decides a pinned value: the code alone decides synth, synth-heldout, the
grid, model-knn1, every predict file and every feature matrix. Features take
only elementwise +, -, *, / and sqrt, which IEEE 754 rounds the same on every
SIMD target, so numpy's CPU dispatch moves none of them. The BLAS kernel and
its thread count also decide model-lda and model-qda (LAPACK Cholesky and
inverse of its factor, and LDA's coefficient products) and
model-svm_quadratic (Gram products), so on another OpenBLAS kernel only
test_blas_decided_pipeline_outputs_match_pinned_hashes may fail.
test_code_decided_outputs_match_under_other_blas_kernels checks the first
group across kernels, and with numpy's AVX-512 loops disabled. CI prints
numpy's version, its build configuration and the OpenBLAS core before the
tests, so that a failure can be traced to its cause.
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
    "grid": "b93e39ef47dd6169c8fd94ca7744546d74476ddeb248fc541161e6f66c9a95fd",
    "model-lda": "2cc5184dcda4b777529ee4acc8a7a0c2abcb079189e02e4242b4c0ce671a9da1",
    "predict-lda": "7b205bd39b393710b2960059b16e4809a75c906e6b76c0b51f371ab92d2beac3",
    "model-qda": "504fa1c60dd7f624d15d8d43ed28ddce72a0154f5c14b1674d33e6f8307b7f25",
    "predict-qda": "0222c1907f10ae0afa6f7e388c135c6f65f04172e56b858d20b2d2cef800527a",
    "model-knn1": "6d2a82e9ec3a17a3bf270b35c69c9236ab454b2555a3159584655d0a4c8a74a3",
    "predict-knn1": "1fb6cd83de5b612b8d5e44c6ec963c02f822e5ab8a34ccbb42dd65836acc4449",
    "model-svm_quadratic": "532fc3ec52295218f176ea66d47bc91f64e6d52f886804679d9e41d943dd23c6",
    "predict-svm_quadratic": "b485ea508a0be19a3905823a6b0995e6a078bfc1feed0e58ac98ba237e614084",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_hashes(tmp_path) -> dict[str, str]:
    """Synth a training and a noisier held-out file, train four kinds on the
    first and predict the second, and grid the first (timings stripped)."""
    train, heldout = tmp_path / "train.jsonl", tmp_path / "heldout.jsonl"
    assert run(["synth", "--seed", "3", "--per-class", "24", "--out", str(train)]) == 0
    assert run(["synth", "--seed", "4", "--per-class", "24", "--noise", "0.1",
                "--out", str(heldout)]) == 0
    hashes = {"synth": sha256(train.read_bytes()), "synth-heldout": sha256(heldout.read_bytes())}
    for name in ("lda", "qda", "knn1", "svm_quadratic"):
        model, pred = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        assert run(["train", "--data", str(train), "--classifier", name, "--seed", "3",
                    "--model-out", str(model)]) == 0
        assert run(["predict", "--model", str(model), "--data", str(heldout),
                    "--out", str(pred)]) == 0
        hashes[f"model-{name}"] = sha256(model.read_bytes())
        hashes[f"predict-{name}"] = sha256(pred.read_bytes())
    grid = tmp_path / "grid"
    assert run(["grid", "--data", str(train), "--seed", "3", "--format", "json",
                "--out", str(grid)]) == 0
    docs = json.loads(grid.read_text())
    for doc in docs:
        del doc["timings_ms"]
    return {**hashes, "grid": sha256(json.dumps(docs, sort_keys=True).encode())}


# The pipeline files whose last bits the BLAS kernel also decides.
BLAS_DECIDED = ("model-lda", "model-qda", "model-svm_quadratic")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> dict[str, str]:
    return pipeline_hashes(tmp_path_factory.mktemp("pipeline"))


def test_code_decided_pipeline_outputs_match_pinned_hashes(pipeline):
    assert pipeline.keys() == PINNED.keys()
    code_decided = {key: value for key, value in PINNED.items() if key not in BLAS_DECIDED}
    assert {key: pipeline[key] for key in code_decided} == code_decided


def test_blas_decided_pipeline_outputs_match_pinned_hashes(pipeline):
    blas_decided = {key: PINNED[key] for key in BLAS_DECIDED}
    assert {key: pipeline[key] for key in BLAS_DECIDED} == blas_decided


# (feature set, angle mode) -> (fingerprint, sha256 of the extract_matrix
# bytes of feature_stack()). Distances do not depend on the angle mode.
EXTRACT_PINNED = {
    ("distances", "adjacent"): (
        "1edfa0f34a9073ac", "0aaa275bf57002dab1bcb244bcb6ef0f1f900785775e49fa2f1a5962b6cc0990"),
    ("angles", "adjacent"): (
        "b7fe2a44e09482f6", "9e3b1a0ed3c1c3779df76f2bdef3dc41a5e1b05d839c54220369e046df867bf4"),
    ("combined", "adjacent"): (
        "b4494e5f68b55b78", "8c1b929bdcb951bd4654f113c528889dc5a105dd4e76f27a02d0943f377cf4ce"),
    ("distances", "all_triples"): (
        "63ef0e0264369621", "0aaa275bf57002dab1bcb244bcb6ef0f1f900785775e49fa2f1a5962b6cc0990"),
    ("angles", "all_triples"): (
        "c54c325b46911342", "7f7a40912880508208ff068c4c0b32d231073d51ec2cf34af964046629a4b660"),
    ("combined", "all_triples"): (
        "18920567490ed0c3", "3d7648cf5b9da466496f3b1b3438486984c733683a56e74a475b2d05ccc6eabd"),
}


@pytest.mark.parametrize("features_set, mode", EXTRACT_PINNED)
def test_feature_matrix_and_fingerprint_match_pinned(features_set, mode):
    cfg = FeatureConfig.from_name(features_set, mode)
    X, fingerprint = extract_matrix(feature_stack(), cfg)
    assert X.shape == (64, cfg.length)
    assert (fingerprint, config_fingerprint(cfg)) == (EXTRACT_PINNED[features_set, mode][0],) * 2
    assert sha256(X.tobytes()) == EXTRACT_PINNED[features_set, mode][1]


def code_decided_hashes(tmp_path) -> dict[str, str]:
    """The outputs that no BLAS kernel decides: the pipeline's synth files,
    grid, knn1 model (it holds features) and every predict file, and the six
    feature matrices of feature_stack()."""
    hashes = {key: value for key, value in pipeline_hashes(tmp_path).items()
              if key not in BLAS_DECIDED}
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
# NPY_DISABLE_CPU_FEATURES runs numpy's loops as on a CPU without AVX-512; on
# such a CPU, or a numpy build that does not dispatch them, numpy at most
# warns about the names.
@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types are x86-64 kernel names")
@pytest.mark.parametrize("blas", [
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"},
    {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
])
def test_code_decided_outputs_match_under_other_blas_kernels(tmp_path, blas):
    """A child process under another OpenBLAS kernel, or other numpy SIMD
    loops, writes the same bytes as this one, whatever this host picks."""
    here = code_decided_hashes(tmp_path)
    child_dir = tmp_path / "child"
    child_dir.mkdir()
    pythonpath = [str(Path(posturelab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **blas, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))}
    child = subprocess.run([sys.executable, "-c", _CHILD, str(Path(__file__).parent),
                            str(child_dir)], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1]) == here
