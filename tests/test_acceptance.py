"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The published accuracy figures for this problem were measured on a private
1040-observation motion-capture dataset and cannot be reproduced here; the
criteria below are the substituted property, oracle, and synthetic-benchmark
checks. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_rotation, random_skeleton
from posturelab.classifiers import (
    ClassifierSpec,
    predict_batch,
    predict_label,
    train_classifier,
    vote_batch,
)
from posturelab.dataset import (
    ModelFile,
    SynthSpec,
    load_model,
    record_lines,
    save_model,
    synth_generate,
)
from posturelab.evaluation import (
    SplitSpec,
    confusion_matrix,
    evaluate,
    render_report,
)
from posturelab.features import (
    FeatureConfig,
    extract,
    normalizer,
    pairwise_distances,
)
from posturelab.kernels import linear_kernel, polynomial_kernel
from posturelab.skeleton import NUM_JOINTS, PostureLabel
from posturelab.svm import decision_function, smo_train

BENCH_SEED = 42
PER_CLASS = 208


@contextmanager
def criterion(name: str):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name} ({time.perf_counter() - started:.1f}s)")


@pytest.fixture(scope="module")
def benchmark_dataset():
    return synth_generate(SynthSpec(seed=BENCH_SEED, per_class=PER_CLASS))


@pytest.fixture(scope="module")
def noisy_dataset():
    return synth_generate(
        SynthSpec(seed=BENCH_SEED, per_class=PER_CLASS, noise_std_m=0.06)
    )


def test_synthetic_benchmark_quadratic_svm(benchmark_dataset):
    """Quadratic SVM + combined features reaches 90% on the seeded benchmark."""
    with criterion("synthetic benchmark: quad SVM + combined >= 90%, <= 60 s"):
        t0 = time.perf_counter()
        report = evaluate(
            benchmark_dataset,
            FeatureConfig.from_name("combined", "adjacent"),
            ClassifierSpec("svm_quadratic", seed=BENCH_SEED),
            SplitSpec(train_fraction=0.8, seed=BENCH_SEED),
        )
        elapsed = time.perf_counter() - t0
        assert report.n_train == 832 and report.confusion.total == 208
        assert report.accuracy >= 0.90, f"accuracy {report.accuracy:.4f} < 0.90"
        assert elapsed <= 60.0, f"evaluation took {elapsed:.1f}s > 60s"


def test_linear_svm_on_angles_converges(benchmark_dataset):
    """Every one-vs-one machine of svm_linear on angle features converges."""
    with criterion("solver: svm_linear + angles, 10 machines, 0 KKT violations"):
        report = evaluate(
            benchmark_dataset,
            FeatureConfig.from_name("angles", "adjacent"),
            ClassifierSpec("svm_linear", seed=BENCH_SEED),
            SplitSpec(train_fraction=0.8, seed=BENCH_SEED),
        )
        machines = report.model.machines
        assert len(machines) == 10
        for pair, machine in zip(report.model.pairs, machines):
            assert machine.converged and machine.kkt_violations == 0, (
                f"pair {pair}: {machine.kkt_violations} KKT violations after "
                f"{machine.n_passes} updates"
            )
        assert report.model.nonconverged == 0


def test_trend_check_against_noisier_data(noisy_dataset):
    """At 6 cm joint noise the classifier and feature-set ordering holds."""
    with criterion("trend check: quad>=LDA (combined); combined >= distances-2pp"):
        split = SplitSpec(train_fraction=0.8, seed=BENCH_SEED)
        quad = ClassifierSpec("svm_quadratic", seed=BENCH_SEED)
        lda = ClassifierSpec("lda", seed=BENCH_SEED)
        acc_quad_combined = evaluate(
            noisy_dataset, FeatureConfig.from_name("combined"), quad, split
        ).accuracy
        acc_lda_combined = evaluate(
            noisy_dataset, FeatureConfig.from_name("combined"), lda, split
        ).accuracy
        acc_quad_distances = evaluate(
            noisy_dataset, FeatureConfig.from_name("distances"), quad, split
        ).accuracy
        assert acc_quad_combined >= acc_lda_combined, (
            f"quad {acc_quad_combined:.4f} < lda {acc_lda_combined:.4f}"
        )
        assert acc_quad_combined >= acc_quad_distances - 0.02, (
            f"combined {acc_quad_combined:.4f} < distances "
            f"{acc_quad_distances:.4f} - 2pp"
        )


def test_geometric_invariance_suite():
    """1000 random skeletons, random rigid motion and scale in [0.5, 2]."""
    with criterion("geometric invariance: max deviation < 1e-9 over 1000 skeletons, <= 5 s"):
        rng = np.random.default_rng(BENCH_SEED)
        cfg = FeatureConfig.from_name("combined", "adjacent")
        t0 = time.perf_counter()
        worst_dist = 0.0
        worst_angle = 0.0
        for _ in range(1000):
            skel = random_skeleton(rng)
            moved = skel.transformed(
                rotation=random_rotation(rng),
                translation=rng.uniform(-5.0, 5.0, 3),
                scale=float(rng.uniform(0.5, 2.0)),
            )
            base = extract(skel, cfg).values
            got = extract(moved, cfg).values
            rel = np.abs(got[:300] - base[:300]) / np.maximum(np.abs(base[:300]), 1e-300)
            worst_dist = max(worst_dist, float(rel.max()))
            worst_angle = max(worst_angle, float(np.abs(got[300:] - base[300:]).max()))
        elapsed = time.perf_counter() - t0
        assert worst_dist < 1e-9, f"distance deviation {worst_dist:.2e}"
        assert worst_angle < 1e-9, f"angle deviation {worst_angle:.2e}"
        assert elapsed <= 5.0, f"suite took {elapsed:.1f}s > 5s"


def test_smo_correctness_on_random_problems():
    """50 random binary problems across all three kernels."""
    with criterion(
        "SMO: feasibility exact, zero KKT violations at 1e-3 when converged, "
        "monotone dual objective; XOR separates"
    ):
        rng = np.random.default_rng(BENCH_SEED)
        kernels = [linear_kernel(), polynomial_kernel(2, 1.0), polynomial_kernel(3, 1.0)]
        n_converged = 0
        for trial in range(50):
            n = int(rng.integers(20, 201))
            d = int(rng.integers(2, 21))
            sep = float(rng.uniform(0.5, 3.0))
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            centers = np.vstack([np.full(d, sep / 2), np.full(d, -sep / 2)])
            X = centers[(y < 0).astype(int)] + rng.normal(size=(n, d))
            X = (X - X.mean(axis=0)) / np.maximum(X.std(axis=0), 1e-12)
            c = float(rng.choice([0.5, 1.0, 2.0]))
            trace = []
            model = smo_train(X, y, kernels[trial % 3], c=c, tol=1e-3, trace=trace)
            alphas = np.abs(model.dual_coef)
            assert np.all(alphas >= 0.0) and np.all(alphas <= c + 1e-12)
            assert abs(model.dual_coef.sum()) <= 1e-8
            drops = np.diff(trace)
            assert drops.min() >= -1e-9 * max(1.0, np.abs(trace).max()), (
                f"dual objective decreased by {-drops.min():.2e} on trial {trial}"
            )
            if model.converged:
                n_converged += 1
                assert model.kkt_violations == 0
        assert n_converged >= 45, f"only {n_converged}/50 problems converged"

        xor_x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        xor_y = np.array([-1.0, -1.0, 1.0, 1.0])
        model = smo_train(xor_x, xor_y, polynomial_kernel(2, 1.0), c=10.0)
        assert np.array_equal(np.sign(decision_function(model, xor_x)), xor_y)


def test_oracle_equivalences():
    """Library outputs match independent brute-force recomputation."""
    rng = np.random.default_rng(BENCH_SEED)

    with criterion("oracle: one-vs-one voting vs brute force on 500 tables"):
        pairs = tuple((a, b) for a in range(5) for b in range(a + 1, 5))
        for _ in range(500):
            decisions = rng.normal(size=len(pairs))
            (winner,), (votes,), _ = vote_batch(pairs, decisions[None, :])
            tally = {k: 0 for k in range(5)}
            favor = {k: 0.0 for k in range(5)}
            for (a, b), d in zip(pairs, decisions):
                tally[a if d >= 0 else b] += 1
                favor[a] += d
                favor[b] -= d
            best = max(tally.values())
            tied = [k for k in range(5) if tally[k] == best]
            top = max(favor[k] for k in tied)
            expected = min(k for k in tied if favor[k] == top)
            assert winner == expected
            assert [int(v) for v in votes] == [tally[k] for k in range(5)]

    with criterion("oracle: 1-NN vs exhaustive linear scan on 300 queries"):
        X = rng.normal(size=(150, 6)) + rng.integers(0, 5, 150)[:, None]
        y = rng.integers(0, 5, 150)
        model = train_classifier(X, y, ClassifierSpec("knn1"))
        Z = model.standardizer.transform(X)
        for _ in range(300):
            q = rng.normal(scale=2.0, size=6)
            got = int(predict_label(model, q))
            qs = model.standardizer.transform(q)
            best_i, best_d = 0, None
            for i in range(len(Z)):
                dist = float(((Z[i] - qs) ** 2).sum())
                if best_d is None or dist < best_d:
                    best_i, best_d = i, dist
            assert got == int(y[best_i])

    with criterion("oracle: confusion matrix vs independent tally on 500 label pairs"):
        for _ in range(500):
            n = int(rng.integers(1, 80))
            truth = rng.integers(0, 5, n)
            pred = rng.integers(0, 5, n)
            counts = confusion_matrix(truth, pred).counts
            tally = np.zeros((5, 5), dtype=int)
            for t, p in zip(truth, pred):
                tally[t, p] += 1
            assert np.array_equal(counts, tally)

    with criterion("oracle: pairwise distances vs double loop on 100 skeletons (<= 1e-12 rel)"):
        for _ in range(100):
            skel = random_skeleton(rng)
            got = pairwise_distances(skel)
            scale = normalizer(skel)
            k = 0
            for i in range(NUM_JOINTS):
                for j in range(i + 1, NUM_JOINTS):
                    diff = skel.positions[i] - skel.positions[j]
                    expected = math.sqrt(float(diff @ diff)) / scale
                    rel = abs(got[k] - expected) / max(abs(expected), 1e-300)
                    assert rel <= 1e-12
                    k += 1


def test_determinism_and_round_trip(tmp_path):
    """Identical seeds give identical bytes; a saved model predicts identically."""
    with criterion("determinism: byte-identical datasets, models, reports"):
        spec = SynthSpec(seed=7, per_class=12)
        ds_a = synth_generate(spec)
        ds_b = synth_generate(spec)
        assert record_lines(ds_a) == record_lines(ds_b)
        assert ds_a.fingerprint == ds_b.fingerprint

        cfg = FeatureConfig.from_name("combined")
        from posturelab.features import extract_matrix

        X, fp = extract_matrix(ds_a.skeletons(), cfg)
        y = ds_a.label_indices()
        paths = []
        for name in ("m1.json", "m2.json"):
            model = train_classifier(X, y, ClassifierSpec("svm_quadratic", seed=3), fp)
            path = tmp_path / name
            save_model(ModelFile(model, cfg, ds_a.fingerprint), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

        args = (ds_a, cfg, ClassifierSpec("svm_quadratic", seed=3), SplitSpec(seed=3))
        rep_a, rep_b = (json.loads(render_report(evaluate(*args), "json")) for _ in range(2))
        del rep_a["timings_ms"], rep_b["timings_ms"]
        assert rep_a == rep_b

    with criterion("round trip: loaded model matches on 100 random inputs"):
        rng = np.random.default_rng(1)
        spec = SynthSpec(seed=7, per_class=12)
        ds = synth_generate(spec)
        cfg = FeatureConfig.from_name("combined")
        from posturelab.features import extract_matrix

        X, fp = extract_matrix(ds.skeletons(), cfg)
        model = train_classifier(X, ds.label_indices(), ClassifierSpec("svm_quadratic", seed=3), fp)
        path = tmp_path / "roundtrip.json"
        save_model(ModelFile(model, cfg, ds.fingerprint), path)
        loaded = load_model(path).model
        queries = X[rng.integers(0, len(X), 100)] + rng.normal(scale=0.1, size=(100, X.shape[1]))
        assert np.array_equal(predict_batch(model, queries), predict_batch(loaded, queries))


def test_report_format_fixtures():
    """The renderer reproduces the row-normalized table convention."""
    with criterion("format fixture: Standing row renders 92.3% / 7.7%; rows are true classes"):
        truth = (
            [PostureLabel.Standing] * 13
            + [PostureLabel.Bending] * 10
            + [PostureLabel.Sitting] * 10
            + [PostureLabel.Walking] * 42
            + [PostureLabel.Crouching] * 10
        )
        pred = (
            [PostureLabel.Standing] * 12 + [PostureLabel.Walking] * 1
            + [PostureLabel.Bending] * 10
            + [PostureLabel.Sitting] * 10
            + [PostureLabel.Walking] * 42
            + [PostureLabel.Crouching] * 10
        )
        cm = confusion_matrix(truth, pred)
        pct = cm.row_percentages()
        assert pct[0, 0] == 92.3
        assert pct[0, 3] == 7.7
        # row sums are the per-class test counts: rows are the true classes
        assert cm.counts[0].sum() == 13
        assert cm.counts[3].sum() == 42

        ds = synth_generate(SynthSpec(seed=2, per_class=8))
        report = evaluate(
            ds, FeatureConfig.from_name("combined"),
            ClassifierSpec("knn1", seed=2), SplitSpec(seed=2),
        )
        text = render_report(report, "text")
        assert "rows: true class, columns: predicted class" in text
        doc = json.loads(render_report(report, "json"))
        assert np.array(doc["counts"]).sum(axis=1).tolist() == [
            int(v) for v in report.confusion.counts.sum(axis=1)
        ]
