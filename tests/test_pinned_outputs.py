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

A float may round differently on another numpy or BLAS build. CI prints
numpy's version and build configuration before the tests, so that such a
failure can be traced to its cause.
"""
import hashlib
import json

import numpy as np
import pytest
from conftest import random_skeleton

from posturelab.cli import run
from posturelab.features import FeatureConfig, config_fingerprint, extract_matrix
from posturelab.skeleton import JointId, Skeleton

PINNED = {
    "synth": "f5f6adbdbbe1c8a52efa7991321540f7ad4978e011576f1b15b611cacd052c45",
    "synth-heldout": "723dc9fbc5761b8f3f3d8ce33b9c71cc955f15a574e58cc9dcd6ef06549e4ffc",
    "grid": "96bfc709f67daed38b752919a054b64955aa9f77b4339ac5630c4df2aba64a19",
    "model-lda": "00706a17b75b923b1caba3fcbbc07979ed9bb17a5d1b873b1597dde34aef1b3e",
    "predict-lda": "10af4c70426a291724ca7c96b77762d87b4ae816d6082bf1204eabfaed63f1cd",
    "model-qda": "c1db5c20cb0271f2fdfa15823e52ddd78a4db80762d788200aebcc8bf0aa89cb",
    "predict-qda": "2defde0639cbec98b34414c6302c2f0e2b03c265ceb9a6738a91c55b2cbc4d3e",
    "model-knn1": "91af024714262f31a0190edf70dd2c05a8ec2c31fa1756f52ec1ad78bf5cc47c",
    "predict-knn1": "73124fdbd64818d65951c734f375ffb1ba09e3e4f0117f563df1b68bc77fb401",
    "model-svm_quadratic": "8d4a65adafd18679737e3015dd0e0d987d2463ade79b2b0e794f476f276233dd",
    "predict-svm_quadratic": "0e7fd3b6e16005cf2da01e5fa8da4385be1a6a000ced223005840936453a5cbf",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipeline_hashes(tmp_path) -> dict[str, str]:
    """Synth a training and a noisier held-out file, grid the first (timings
    stripped), then train four kinds on it and predict the held-out file."""
    train, heldout, grid = tmp_path / "train.jsonl", tmp_path / "heldout.jsonl", tmp_path / "grid"
    assert run(["synth", "--seed", "3", "--per-class", "24", "--out", str(train)]) == 0
    assert run(["synth", "--seed", "4", "--per-class", "24", "--noise", "0.1",
                "--out", str(heldout)]) == 0
    assert run(["grid", "--data", str(train), "--seed", "3", "--format", "json",
                "--out", str(grid)]) == 0
    docs = json.loads(grid.read_text())
    for doc in docs:
        del doc["timings_ms"]
    hashes = {"synth": sha256(train.read_bytes()), "synth-heldout": sha256(heldout.read_bytes()),
              "grid": sha256(json.dumps(docs, sort_keys=True).encode())}
    for name in ("lda", "qda", "knn1", "svm_quadratic"):
        model, pred = tmp_path / f"{name}.json", tmp_path / f"{name}.jsonl"
        assert run(["train", "--data", str(train), "--classifier", name, "--seed", "3",
                    "--model-out", str(model)]) == 0
        assert run(["predict", "--model", str(model), "--data", str(heldout),
                    "--out", str(pred)]) == 0
        hashes[f"model-{name}"] = sha256(model.read_bytes())
        hashes[f"predict-{name}"] = sha256(pred.read_bytes())
    return hashes


def test_pipeline_outputs_match_pinned_hashes(tmp_path):
    assert pipeline_hashes(tmp_path) == PINNED


# (feature set, angle mode) -> (fingerprint, sha256 of the extract_matrix
# bytes of feature_stack()). Distances do not depend on the angle mode.
EXTRACT_PINNED = {
    ("distances", "adjacent"): (
        "1edfa0f34a9073ac", "9daec8110483e9f340c24f6d299d54521b097e083ffdd56acb4caef738799ed8"),
    ("angles", "adjacent"): (
        "b45713a08d1ed75a", "abf6f6f3a98b57017aa7e1cc2aeb42b7efb5bb428a9bb44889f5bd4ae9927664"),
    ("combined", "adjacent"): (
        "1e9e062406bb5287", "f92b3034801aad74875bc8ca7a68cd2ab71411f01a55a14536fc257a8510aeb8"),
    ("distances", "all_triples"): (
        "63ef0e0264369621", "9daec8110483e9f340c24f6d299d54521b097e083ffdd56acb4caef738799ed8"),
    ("angles", "all_triples"): (
        "e9abb9aa31a77a3f", "27b904bd89b77dd88f590a081ad9ea135c101cd179509dd12e5537a846c4d235"),
    ("combined", "all_triples"): (
        "dcb0ca5fb4ff0fdb", "5d5a126799480ee7b9255a6c6b29d4e2ec5ed968c48d5340402ac9970e567f43"),
}


def feature_stack() -> list[Skeleton]:
    """64 seeded random skeletons; in record 5 Head sits on Neck, a degenerate ray."""
    rng = np.random.default_rng(2018)
    skeletons = [random_skeleton(rng) for _ in range(64)]
    pos = skeletons[5].positions.copy()
    pos[JointId.Head] = pos[JointId.Neck]
    skeletons[5] = Skeleton(pos)
    return skeletons


@pytest.mark.parametrize("features_set, mode", EXTRACT_PINNED)
def test_feature_matrix_and_fingerprint_match_pinned(features_set, mode):
    cfg = FeatureConfig.from_name(features_set, mode)
    X, fingerprint = extract_matrix(feature_stack(), cfg)
    assert X.shape == (64, cfg.length)
    assert (fingerprint, config_fingerprint(cfg)) == (EXTRACT_PINNED[features_set, mode][0],) * 2
    assert sha256(X.tobytes()) == EXTRACT_PINNED[features_set, mode][1]
