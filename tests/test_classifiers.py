import dataclasses

import numpy as np
import pytest

from posturelab import classifiers
from posturelab.classifiers import (
    CLASSIFIER_NAMES,
    ClassifierSpec,
    Knn1Model,
    Standardizer,
    TrainingFold,
    fit_standardizer,
    ovo_train,
    predict_batch,
    predict_label,
    train_classifier,
    _union_rows,
    vote_batch,
)
from posturelab.errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    FingerprintMismatch,
    NumericError,
    SingleClass,
    UnknownLabel,
)
from posturelab.dataset import SynthSpec, synth_generate
from posturelab.features import FeatureConfig, FeatureVector, extract, extract_matrix
from posturelab.kernels import linear_kernel, polynomial_kernel
from posturelab.skeleton import PostureLabel
from posturelab.svm import smo_train

LDA, QDA, KNN1 = (ClassifierSpec(name) for name in ("lda", "qda", "knn1"))


def gaussian_blobs(rng, centers, n_per, spread=0.3):
    X, y = [], []
    for k, center in enumerate(centers):
        X.append(center + rng.normal(scale=spread, size=(n_per, len(center))))
        y.extend([k] * n_per)
    return np.vstack(X), np.array(y)


def duel_tally(pairs, decisions):
    """Independent one-vs-one count, duel by duel.

    Returns (winner, votes, margin sums, classes tied on votes, classes of
    those also tied on margin).
    """
    votes, favor = [0] * 5, [0.0] * 5
    for (a, b), d in zip(pairs, decisions):
        votes[a if d >= 0 else b] += 1
        favor[a] += d
        favor[b] -= d
    tied = [k for k in range(5) if votes[k] == max(votes)]
    top = [k for k in tied if favor[k] == max(favor[k] for k in tied)]
    return min(top), votes, favor, tied, top


def tie_tables(rng, pairs):
    """Decision tables rich in vote ties and in margin ties."""
    return [
        rng.normal(size=(500, len(pairs))),
        rng.choice([-1.0, 0.0, 1.0], size=(2000, len(pairs))),
        # sums of these depend on the order of additions
        rng.choice([-0.3, -0.1, 0.0, 0.1, 0.2, 0.7], size=(2000, len(pairs))),
    ]


def table_scorer(rng, pairs):
    """The scorer of a one-vs-one model over the classes of pairs, fed decision
    tables as its rows: it votes on them as on its machines' decisions."""
    classes = sorted({k for pair in pairs for k in pair})
    X, y = gaussian_blobs(rng, np.eye(len(classes)) * 4.0, 6)
    model = ovo_train(TrainingFold(X, np.asarray(classes)[y]), linear_kernel())
    assert model.pairs == pairs
    vars(model)["decisions"] = lambda table: table  # the cached property's slot
    return model.scorer


class TestStandardizer:
    def test_mean_and_population_std(self):
        std = fit_standardizer(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(std.mean, [1.0, 1.0])
        assert np.allclose(std.std, [1.0, 1.0])  # population, not sample

    def test_zero_variance_stored_as_one(self):
        std = fit_standardizer(np.array([[5.0, 1.0], [5.0, 3.0]]))
        assert std.std[0] == 1.0
        assert std.std[1] == 1.0  # population std of {1, 3} is 1

    def test_transform_recenters_and_rescales(self, rng):
        X = rng.normal(loc=3.0, scale=2.5, size=(200, 7))
        std = fit_standardizer(X)
        Z = std.transform(X)
        assert np.abs(Z.mean(axis=0)).max() < 1e-9
        assert np.abs(Z.std(axis=0) - 1.0).max() < 1e-9

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            fit_standardizer(np.empty((0, 3)))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            fit_standardizer(np.arange(4.0))

    def test_dimension_mismatch_on_transform(self):
        std = fit_standardizer(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            std.transform(np.zeros(4))


class TestVoting:
    PAIRS = tuple(
        (a, b) for a in range(5) for b in range(a + 1, 5)
    )

    def test_sweeping_winner(self):
        # Sitting (class 2) wins all four of its duels
        decisions = []
        for a, b in self.PAIRS:
            if a == 2:
                decisions.append(1.0)
            elif b == 2:
                decisions.append(-1.0)
            else:
                decisions.append(1.0)
        (winner,), (votes,), _ = vote_batch(self.PAIRS, np.array([decisions]))
        assert winner == 2
        assert votes[2] == 4

    def test_three_way_tie_goes_to_lowest_index(self):
        # 0 beats 1, 1 beats 2, 2 beats 0 with equal margin m; all of them
        # beat 3 and 4 with equal margin 1 -> votes 3/3/3, margins equal
        m = 0.7
        table = {
            (0, 1): m, (1, 2): m, (0, 2): -m,
            (0, 3): 1.0, (0, 4): 1.0,
            (1, 3): 1.0, (1, 4): 1.0,
            (2, 3): 1.0, (2, 4): 1.0,
            (3, 4): 0.5,
        }
        decisions = [table[p] for p in self.PAIRS]
        (winner,), (votes,), (margins,) = vote_batch(self.PAIRS, np.array([decisions]))
        assert list(votes[:3]) == [3, 3, 3]
        assert margins[0] == margins[1] == margins[2]
        assert winner == 0

    def test_margin_breaks_two_way_tie(self):
        # classes 0 and 1 both win three duels; class 1 has the larger
        # signed-margin sum (it loses (0,1) narrowly but 0 loses (0,4) badly)
        table = {
            (0, 1): 0.1, (0, 2): 1.0, (0, 3): 1.0, (0, 4): -5.0,
            (1, 2): 1.0, (1, 3): 1.0, (1, 4): 1.0,
            (2, 3): 1.0, (2, 4): 1.0, (3, 4): 1.0,
        }
        decisions = [table[p] for p in self.PAIRS]
        (winner,), (votes,), (margins,) = vote_batch(self.PAIRS, np.array([decisions]))
        assert votes[0] == votes[1] == 3
        assert margins[1] > margins[0]
        assert winner == 1

    def test_brute_force_oracle_500_tables(self, rng):
        for _ in range(500):
            decisions = rng.normal(size=len(self.PAIRS))
            (winner,), (votes,), (margins,) = vote_batch(self.PAIRS, np.array([decisions]))
            expected, tally, favor, _, _ = duel_tally(self.PAIRS, decisions)
            assert winner == expected
            assert votes.tolist() == tally
            assert margins.tolist() == favor

    @pytest.mark.parametrize("pairs", [PAIRS, ((0, 2), (0, 4), (2, 4)), ((1, 3),)])
    def test_vote_batch_matches_oracle_row_by_row(self, rng, pairs):
        vote_ties = margin_ties = 0
        for table in tie_tables(rng, pairs):
            winners, votes, margins = vote_batch(pairs, table)
            for row, winner, row_votes, row_margins in zip(table, winners, votes, margins):
                expected, tally, favor, tied, top = duel_tally(pairs, row)
                assert winner == expected
                assert row_votes.tolist() == tally
                assert row_margins.tolist() == favor
                vote_ties += len(tied) > 1
                margin_ties += len(top) > 1
        if len(pairs) > 1:  # one duel has one winner
            assert vote_ties > 100 and margin_ties > 100

    @pytest.mark.parametrize("pairs", [PAIRS, ((0, 2), (0, 4), (2, 4)), ((1, 3),)])
    def test_scorer_winners_are_the_full_rule(self, rng, pairs):
        # the oracle sums every row's margins; the scorer only those of ties
        scorer = table_scorer(rng, pairs)
        vote_ties = margin_ties = 0
        for table in tie_tables(rng, pairs):
            for row, winner in zip(table, scorer(table)):
                expected, _, _, tied, top = duel_tally(pairs, row)
                assert winner == expected
                vote_ties += len(tied) > 1
                margin_ties += len(top) > 1
        if len(pairs) > 1:
            assert vote_ties > 100 and margin_ties > 100

    def test_margins_are_summed_only_for_vote_ties(self, rng, monkeypatch):
        summed = []

        def spy(plan, decisions):
            summed.append(decisions.copy())
            return margin_sums(plan, decisions)

        margin_sums = classifiers._margin_sums
        monkeypatch.setattr(classifiers, "_margin_sums", spy)
        scorer = table_scorer(rng, self.PAIRS)
        scorer(np.ones((50, len(self.PAIRS))))  # votes 4, 3, 2, 1, 0: no tie
        assert summed == []
        tables = tie_tables(rng, self.PAIRS)
        for table in tables:
            scorer(table)
        tied = [row for table in tables for row in table
                if len(duel_tally(self.PAIRS, row)[3]) > 1]
        # each row with a vote tie is summed once, in row order, and no other
        assert np.array_equal(np.concatenate(summed), np.array(tied))

    @pytest.mark.parametrize("pairs", [PAIRS, ((0, 2), (0, 4), (2, 4)), ((1, 3),)])
    def test_margins_are_the_pair_order_loop_bit_for_bit(self, rng, pairs):
        # exact zeros of both signs, and values whose sums depend on their order
        table = rng.choice([-0.3, -0.1, -0.0, 0.0, 0.1, 0.2, 0.7, 1e-17], size=(3000, len(pairs)))
        margins = np.zeros((5, table.shape[0]))
        for (a, b), d in zip(pairs, table.T):
            margins[a] += d
            margins[b] -= d
        assert vote_batch(pairs, table)[2].tobytes() == np.ascontiguousarray(margins.T).tobytes()

    def test_winner_invariant_under_positive_rescaling(self, rng):
        for _ in range(100):
            decisions = rng.normal(size=len(self.PAIRS))
            factor = float(rng.uniform(0.1, 10.0))
            (w1,), (v1,), _ = vote_batch(self.PAIRS, np.array([decisions]))
            (w2,), (v2,), _ = vote_batch(self.PAIRS, np.array([decisions * factor]))
            assert w1 == w2
            assert np.array_equal(v1, v2)


class TestOvo:
    def test_five_classes_give_ten_machines(self, rng):
        X, y = gaussian_blobs(rng, np.eye(5) * 4.0, 8)
        model = ovo_train(TrainingFold(X, y), linear_kernel(), seed=0)
        assert len(model.machines) == 10
        assert model.pairs == tuple(
            (a, b) for a in range(5) for b in range(a + 1, 5)
        )

    def test_two_classes_give_one_machine(self, rng):
        X, y = gaussian_blobs(rng, [[0.0, 0.0], [5.0, 5.0]], 10)
        y = np.where(y == 0, 0, 2)  # Standing vs Sitting
        model = ovo_train(TrainingFold(X, y), linear_kernel(), seed=0)
        assert len(model.machines) == 1
        label = predict_label(model, np.array([5.0, 5.0]))
        assert label == PostureLabel.Sitting
        assert isinstance(label, PostureLabel)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            ovo_train(TrainingFold(np.zeros((4, 2)), np.zeros(4, dtype=int)), linear_kernel())

    def test_separated_blobs_reach_perfect_training_accuracy(self, rng):
        centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
        X, y = gaussian_blobs(rng, centers, 15)
        model = ovo_train(TrainingFold(X, y), linear_kernel(), seed=1)
        assert np.array_equal(predict_batch(model, X), y)

    def test_overflowing_rows_are_a_numeric_error(self, rng):
        # (1 + x.y / scale^2)^2 overflows; no RuntimeWarning escapes
        X, y = gaussian_blobs(rng, np.eye(5) * 4.0, 8)
        model = ovo_train(TrainingFold(X, y), polynomial_kernel(2, 2.0), seed=0)
        for rows in (np.full((3, 5), 1e300), np.full((1, 5), -1e300)):
            with pytest.raises(NumericError, match="not finite"):
                predict_batch(model, rows)
        with pytest.raises(NumericError, match="not finite"):
            predict_label(model, np.full(5, 1e300))
        assert np.array_equal(predict_batch(model, X), y)  # the model still works

    def test_non_finite_kernel_matrix_is_a_numeric_error(self, rng):
        # scale**2 underflows to 0: the kernel of the fold's dot products is inf or nan
        X, y = gaussian_blobs(rng, np.eye(5) * 4.0, 8)
        with pytest.raises(NumericError, match="non-finite"):
            ovo_train(TrainingFold(X, y), polynomial_kernel(2, 1e-200))


def dual_objective(machine) -> float:
    """sum(alpha) - 1/2 (alpha y)' K (alpha y), from a machine's support vectors."""
    coef, sv = machine.dual_coef, machine.support_vectors
    return float(np.abs(coef).sum() - 0.5 * coef @ machine.kernel.gram(sv, sv) @ coef)


class TestClassBlockOrder:
    """A one-vs-one machine takes the rows of its pair (a, b) in class blocks,
    a's before b's. On class-grouped rows that is their order in the data; on
    shuffled rows it is not, and the solver may take another path to tol."""

    @pytest.mark.parametrize("name", ["svm_linear", "svm_quadratic", "svm_cubic"])
    def test_shuffled_records_reach_the_same_optimum(self, name):
        ds = synth_generate(SynthSpec(seed=5, per_class=12))
        X, _ = extract_matrix(ds.positions, FeatureConfig.from_name("combined"))
        order = np.random.default_rng(5).permutation(len(ds))
        X, y = X[order], ds.label_indices()[order]
        assert (np.diff(y) < 0).any()  # not class-grouped
        spec = ClassifierSpec(name)
        model = train_classifier(X, y, spec)
        Xs, kernel = model.standardizer.transform(X), spec.kernel(X.shape[1])
        for (a, b), machine in zip(model.pairs, model.machines):
            assert machine.converged and machine.kkt_violations == 0
            pair = (y == a) | (y == b)
            alone = smo_train(Xs[pair], np.where(y[pair] == a, 1.0, -1.0), kernel,
                              c=spec.c, tol=spec.tol)
            assert abs(dual_objective(machine) - dual_objective(alone)) <= (
                1e-3 * abs(dual_objective(alone)))

    def test_fold_arrays_shared_by_its_fits_are_read_only(self, rng):
        X, y = gaussian_blobs(rng, np.eye(5, 3) * 6.0, 4)
        fold = TrainingFold(X, y)
        rows, _ = fold.by_class
        for shared in (fold.Xs, rows, fold.dots):
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 1.0


class TestDiscriminants:
    def test_lda_boundary_is_midplane_for_symmetric_classes(self, rng):
        # samples symmetric about the origin with means +-(1, 0): the pooled
        # covariance boundary is x1 = 0
        offsets = np.array([[0.0, 0.5], [0.0, -0.5], [0.5, 0.0], [-0.5, 0.0]])
        Xa = np.array([1.0, 0.0]) + offsets
        Xb = -Xa
        X = np.vstack([Xa, Xb])
        y = np.array([0] * 4 + [1] * 4)
        model = train_classifier(X, y, LDA)
        assert predict_label(model, np.array([2.0, 0.0])) == PostureLabel.Standing
        assert predict_label(model, np.array([-2.0, 0.0])) == PostureLabel.Bending
        # points straddling the boundary split by sign of x1
        for x1 in (0.05, 0.5, 3.0):
            assert predict_label(model, np.array([x1, 1.3])) == PostureLabel.Standing
            assert predict_label(model, np.array([-x1, -1.3])) == PostureLabel.Bending

    def test_qda_matches_lda_when_covariances_equal(self, rng):
        # identical within-class shapes (one cloud, translated) make QDA's
        # per-class covariances equal, so its argmax must agree with LDA's
        cloud = rng.normal(size=(60, 3)) @ np.diag([1.0, 0.4, 2.0])
        X = np.vstack([cloud, cloud + np.array([4.0, 0.0, 0.0]), cloud + np.array([0.0, 5.0, 0.0])])
        y = np.array([0] * 60 + [1] * 60 + [2] * 60)
        lda = train_classifier(X, y, LDA)
        qda = train_classifier(X, y, QDA)
        queries = rng.normal(scale=3.0, size=(200, 3))
        assert np.array_equal(predict_batch(lda, queries), predict_batch(qda, queries))

    @pytest.mark.parametrize("spec", [LDA, QDA], ids=["lda", "qda"])
    def test_single_class_rejected(self, rng, spec):
        with pytest.raises(SingleClass, match="at least two classes"):
            train_classifier(rng.normal(size=(6, 2)), np.full(6, 2), spec)

    def test_single_sample_class_rejected(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [1.2, 0.8]])
        y = np.array([0, 1, 1])
        with pytest.raises(SingleClass):
            train_classifier(X, y, LDA)
        with pytest.raises(SingleClass):
            train_classifier(X, y, QDA)

    def test_priors_follow_training_frequencies(self, rng):
        X, y = gaussian_blobs(rng, [[0.0, 0.0], [8.0, 8.0]], 10)
        X = np.vstack([X, rng.normal(scale=0.3, size=(30, 2))])
        y = np.concatenate([y, np.zeros(30, dtype=int)])
        fold = TrainingFold(X, y)
        lda, qda = (train_classifier(X, y, spec, fold=fold) for spec in (LDA, QDA))
        # LDA keeps its log priors inside its intercepts: the fold's class
        # means recover them.
        means = np.vstack([fold.Xs[y == k].mean(axis=0) for k in (0, 1)])
        lda_log_priors = lda.intercept + 0.5 * np.einsum("kd,dk->k", means, lda.coef)
        for log_priors in (lda_log_priors, qda.log_priors):
            assert np.exp(log_priors) == pytest.approx([40 / 50, 10 / 50])

    def test_far_more_features_than_class_records(self):
        # 3 records per class in 600 angle features: each class covariance is
        # rank 2 plus the ridge (condition about 4e8). Its Cholesky factor
        # exists; a factor of its rounded inverse need not.
        ds = synth_generate(SynthSpec(seed=1, per_class=8))
        X, _ = extract_matrix(ds.skeletons(), FeatureConfig.from_name("angles", "all_triples"))
        keep = np.arange(len(ds)) % 8 < 3
        X, y = X[keep, :600], ds.labels[keep]
        fold = TrainingFold(X, y)
        lda, qda = (train_classifier(X, y, spec, fold=fold) for spec in (LDA, QDA))

        def regularized(scatter, dof):
            cov = scatter / dof
            return cov + classifiers.COVARIANCE_RIDGE * np.trace(cov) / 600 * np.eye(600)

        # A backward-stable factor leaves residuals near cond(S) * eps (at
        # most 3e-8 and 1.3e-7 here); the bound allows 100 times that.
        def tol(S):
            eigenvalues = np.linalg.eigvalsh(S)
            return 100 * eigenvalues[-1] / eigenvalues[0] * np.finfo(np.float64).eps

        rows, blocks = fold.by_class
        centered = [rows[b] - rows[b].mean(axis=0) for b in blocks.values()]
        for c, W in zip(centered, qda.whiteners, strict=True):
            S = regularized(c.T @ c, len(c) - 1)
            assert np.abs(W.T @ S @ W - np.eye(600)).max() < tol(S)
        S = regularized(sum(c.T @ c for c in centered), len(rows) - len(centered))
        means = np.vstack([rows[b].mean(axis=0) for b in blocks.values()])
        assert np.abs(S @ lda.coef - means.T).max() < tol(S) * np.abs(means).max()


class TestKnn1:
    def test_training_point_maps_to_its_label(self, rng):
        X, y = gaussian_blobs(rng, [[0.0, 0.0], [4.0, 4.0]], 12)
        model = train_classifier(X, y, KNN1)
        for i in (0, 5, 20):
            assert int(predict_label(model, X[i])) == y[i]

    def test_exact_tie_takes_lower_record_index(self):
        # symmetric records survive standardization; the origin is exactly
        # equidistant from all four, so record 0 wins
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        y = np.array([3, 1, 0, 0])
        model = train_classifier(X, y, KNN1)
        assert predict_label(model, np.array([0.0, 0.0])) == PostureLabel.Walking

    def test_brute_force_oracle_300_queries(self, rng):
        X, y = gaussian_blobs(rng, np.eye(4)[:, :3] * 3.0, 25)
        model = train_classifier(X, y, KNN1)
        Z = model.standardizer.transform(X)
        for _ in range(300):
            q = rng.normal(scale=2.0, size=3)
            got = int(predict_label(model, q))
            qs = model.standardizer.transform(q)
            best, best_d = None, None
            for i in range(len(Z)):
                d = float(((Z[i] - qs) ** 2).sum())
                if best_d is None or d < best_d:
                    best, best_d = y[i], d
            assert got == best

    def test_empty_rejected(self):
        with pytest.raises(EmptyTrainingSet):
            train_classifier(np.empty((0, 2)), np.empty(0, dtype=int), KNN1)

    @staticmethod
    def row_loop(model, X):
        """The per-query loop predict_batch must reproduce: first argmin."""
        Z = model.standardizer.transform(X)
        return np.array([model.labels[np.argmin(((model.points - z) ** 2).sum(axis=1))]
                         for z in Z])

    @staticmethod
    def unscaled(points, labels):
        """A 1-NN model over exactly these points (identity standardizer)."""
        d = points.shape[1]
        return Knn1Model(Standardizer(np.zeros(d), np.ones(d)), "", 0,
                         points=points, labels=np.asarray(labels, dtype=np.int64))

    def adversarial_cases(self, rng):
        base = rng.normal(size=(60, 6))
        dup = np.vstack([base, base[:20], base[:20]])  # same point, other labels
        dup_labels = np.concatenate([rng.integers(5, size=60), np.arange(40) % 5])
        queries = np.vstack([dup, base + rng.normal(scale=1e-9, size=base.shape),
                             rng.normal(size=(300, 6))])
        yield "duplicates", self.unscaled(dup, dup_labels), queries
        grid = np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * 3)).reshape(3, -1).T
        halves = np.array(np.meshgrid(*[[-0.5, 0.0, 0.5]] * 3)).reshape(3, -1).T
        yield "equidistant", self.unscaled(grid, np.arange(27) % 5), np.vstack([halves, grid])
        for offset in (1e3, 1e6):
            far = base + offset  # |z|^2 - 2 z.p + |p|^2 cancels to a few digits
            queries = np.vstack([far, far[:30] + rng.normal(scale=1e-3, size=(30, 6))])
            yield f"offset {offset:g}", self.unscaled(far, dup_labels[:60]), queries
            tight = offset + rng.normal(scale=1e-9, size=(50, 6))  # expansion is blind
            yield f"tight {offset:g}", self.unscaled(tight, np.arange(50) % 5), tight[::-1]
        X = rng.normal(size=(120, 4)) * [1.0, 1e-6, 1e6, 0.0] + 1e3
        model = train_classifier(np.vstack([X, X[:30]]), np.arange(150) % 5, KNN1)
        yield "trained, scaled columns", model, np.vstack([X, X + 1e-7])

    def test_adversarial_inputs_match_row_loop(self, rng):
        for name, model, queries in self.adversarial_cases(rng):
            assert np.array_equal(predict_batch(model, queries), self.row_loop(model, queries)), name


class TestFingerprints:
    def test_mismatched_fingerprint_rejected(self, rng):
        X, y = gaussian_blobs(rng, [[0.0, 0.0], [4.0, 4.0]], 8)
        model = train_classifier(X, y, KNN1, "aaa")
        fv = FeatureVector(X[0], fingerprint="bbb")
        with pytest.raises(FingerprintMismatch):
            predict_label(model, fv)

    def test_matching_fingerprint_accepted(self, rng):
        X, y = gaussian_blobs(rng, [[0.0, 0.0], [4.0, 4.0]], 8)
        model = train_classifier(X, y, KNN1, "aaa")
        fv = FeatureVector(X[0], fingerprint="aaa")
        assert int(predict_label(model, fv)) == y[0]


class TestUnionRows:
    """The union's contract is free of order: distinct rows, an inverse that
    rebuilds the input byte for byte, and the row set of np.unique."""

    @pytest.mark.parametrize("shape", [(1, 1), (40, 3), (300, 7), (200, 40)])
    def test_matches_numpy_unique_over_rows(self, rng, shape):
        base = rng.choice([-1.5, 0.0, 0.25, 2.0], size=shape)  # many equal rows
        rows = np.vstack([base, base[::3], rng.normal(size=(5, shape[1]))])
        rows = rows[rng.permutation(len(rows))]
        union, inverse = _union_rows(rows)
        assert len({row.tobytes() for row in union}) == len(union)
        assert union[inverse].tobytes() == (rows + 0.0).tobytes()
        assert np.unique(union, axis=0).tobytes() == np.unique(rows + 0.0, axis=0).tobytes()

    def test_negative_zero_merges_with_zero(self):
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [-1.0, 0.0]])
        union, inverse = _union_rows(rows)
        assert len(union) == 2
        assert union[inverse].tobytes() == (rows + 0.0).tobytes()
        assert not np.signbit(union[inverse[1], 0])


class TestPredictionPaths:
    @pytest.fixture
    def noisy_blobs(self, rng):
        # overlapping classes, so the single-row and batch paths must agree on
        # hard rows too
        return gaussian_blobs(rng, np.eye(5) * 2.0, 12, spread=1.0)

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    def test_predict_label_matches_predict_batch(self, rng, noisy_blobs, name):
        X, y = noisy_blobs
        model = train_classifier(X, y, ClassifierSpec(name, seed=3), "fp")
        queries = X + rng.normal(scale=0.5, size=X.shape)
        batch = predict_batch(model, queries)
        for row, expected in zip(queries, batch):
            label = predict_label(model, FeatureVector(row, fingerprint="fp"))
            assert isinstance(label, PostureLabel)
            assert int(label) == expected

    @pytest.fixture(scope="class")
    def frames(self):
        """Combined features of a noisy synthetic set, and held-out skeletons."""
        cfg = FeatureConfig.from_name("combined")
        train = synth_generate(SynthSpec(seed=5, per_class=12, noise_std_m=0.08))
        X, fingerprint = extract_matrix(train.skeletons(), cfg)
        held = synth_generate(SynthSpec(seed=6, per_class=20, noise_std_m=0.08)).skeletons()
        return X, train.label_indices(), fingerprint, cfg, held

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    def test_frame_labels_equal_predict_batch(self, frames, name):
        # a frame is extract then predict_label, one skeleton at a time
        X, y, fingerprint, cfg, held = frames
        model = train_classifier(X, y, ClassifierSpec(name), fingerprint)
        batch = predict_batch(model, extract_matrix(held, cfg)[0])
        assert [predict_label(model, extract(s, cfg)) for s in held] == batch.tolist()

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    def test_fingerprint_mismatch_for_every_kind(self, noisy_blobs, name):
        X, y = noisy_blobs
        model = train_classifier(X, y, ClassifierSpec(name, seed=3), "aaa")
        with pytest.raises(FingerprintMismatch):
            predict_label(model, FeatureVector(X[0], fingerprint="bbb"))

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    def test_single_row_shape_checked_for_every_kind(self, noisy_blobs, name):
        X, y = noisy_blobs
        model = train_classifier(X, y, ClassifierSpec(name, seed=3))
        with pytest.raises(DimensionMismatch):
            predict_label(model, X[:2])
        with pytest.raises(DimensionMismatch):
            predict_label(model, X[0, :-1])
        with pytest.raises(DimensionMismatch):
            predict_batch(model, X[0])

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_a_numeric_error_for_every_kind(self, noisy_blobs, name, bad):
        X, y = noisy_blobs
        model = train_classifier(X, y, ClassifierSpec(name, seed=3), "fp")
        row = X[0].copy()
        row[1] = bad
        with pytest.raises(NumericError, match="feature rows must be finite"):
            predict_label(model, FeatureVector(row, fingerprint="fp"))
        with pytest.raises(NumericError, match="feature rows must be finite"):
            predict_batch(model, np.vstack([X[:3], row]))

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    def test_overflowing_finite_row_is_a_numeric_error_for_every_kind(self, noisy_blobs, name):
        X, y = noisy_blobs
        model = train_classifier(X, y, ClassifierSpec(name, seed=3), "fp")
        huge = np.full(X.shape[1], 1.5e308)
        message = "SVM decision values are not finite" if "svm" in name else "overflow"
        with pytest.raises(NumericError, match=message):
            predict_batch(model, np.vstack([X[:3], huge]))
        with pytest.raises(NumericError, match=message):
            predict_label(model, FeatureVector(huge, fingerprint="fp"))


class TestTrainDispatch:
    @pytest.mark.parametrize(
        "name", ["lda", "qda", "knn1", "svm_linear", "svm_quadratic", "svm_cubic"]
    )
    def test_every_classifier_fits_and_predicts(self, rng, name):
        centers = np.eye(5) * 6.0
        X, y = gaussian_blobs(rng, centers, 12)
        model = train_classifier(X, y, ClassifierSpec(name, seed=3))
        acc = float((predict_batch(model, X) == y).mean())
        assert acc >= 0.95

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    def test_mismatched_training_input_rejected(self, rng, name):
        X, y = gaussian_blobs(rng, np.eye(5, 3) * 6.0, 4)  # (20, 3), 20 labels
        spec = ClassifierSpec(name)
        for bad_X, bad_y in ((X, y[:-1]), (X, y[:, None]), (X[:, 0], y), (X[None], y)):
            with pytest.raises(DimensionMismatch):
                train_classifier(bad_X, bad_y, spec)

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    def test_fractional_labels_rejected_not_truncated(self, rng, name):
        X, y = gaussian_blobs(rng, np.eye(5, 3) * 6.0, 4)
        with pytest.raises(ValueError, match="labels holds float64 values"):
            train_classifier(X, y + 0.5, ClassifierSpec(name))

    @pytest.mark.parametrize("name", CLASSIFIER_NAMES)
    @pytest.mark.parametrize("label", [7, -1])
    def test_label_outside_the_postures_rejected_before_any_fit(
        self, rng, monkeypatch, name, label
    ):
        X, y = gaussian_blobs(rng, np.eye(5, 3) * 6.0, 4)
        y[5] = label

        def no_fit(*args, **kwargs):
            raise AssertionError("smo_train ran on a label outside 0-4")

        monkeypatch.setattr(classifiers, "smo_train", no_fit)
        with pytest.raises(UnknownLabel, match=str(label)):
            train_classifier(X, y, ClassifierSpec(name))

    @pytest.mark.parametrize(
        "name, field, change",
        [("lda", "intercept", lambda v: v[:-1]), ("qda", "classes", lambda v: v[::-1]),
         ("knn1", "labels", lambda v: v + 5), ("svm_quadratic", "pairs", lambda v: v[1:])],
    )
    def test_model_checks_its_fields_wherever_built(self, rng, name, field, change):
        X, y = gaussian_blobs(rng, np.eye(5) * 6.0, 6)
        model = train_classifier(X, y, ClassifierSpec(name))
        error = {"intercept": DimensionMismatch, "labels": UnknownLabel}.get(field, ValueError)
        with pytest.raises(error):
            dataclasses.replace(model, **{field: change(getattr(model, field))})

    def test_unknown_classifier_rejected(self):
        with pytest.raises(ValueError):
            ClassifierSpec("svm_rbf")
