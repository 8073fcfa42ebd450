import numpy as np
import pytest

from posturelab.errors import DimensionMismatch, SingleClass
from posturelab.kernels import KernelSpec, linear_kernel, polynomial_kernel
from posturelab.svm import (
    BinarySvmModel,
    decision_function,
    kkt_violation_count,
    smo_train,
    svm_decision,
)

XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([-1.0, -1.0, 1.0, 1.0])


def random_binary_problem(rng, n_max=200, d_max=20):
    n = int(rng.integers(20, n_max + 1))
    d = int(rng.integers(2, d_max + 1))
    centers = rng.normal(size=(2, d)) * rng.uniform(0.5, 2.0)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    if np.all(y == y[0]):  # force both classes
        y[0] = -y[0]
    X = centers[(y < 0).astype(int)] + rng.normal(size=(n, d))
    return X, y


class TestKernels:
    def test_linear_gram(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(linear_kernel().gram(X, X), X @ X.T)

    def test_polynomial_gram(self):
        X = np.array([[1.0, 0.0]])
        Y = np.array([[2.0, 0.0]])
        k = polynomial_kernel(2, scale=1.0).gram(X, Y)
        assert k[0, 0] == pytest.approx((1 + 2.0) ** 2)
        k3 = polynomial_kernel(3, scale=2.0).gram(X, Y)
        assert k3[0, 0] == pytest.approx((1 + 2.0 / 4.0) ** 3)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf")
        with pytest.raises(ValueError):
            polynomial_kernel(1)
        with pytest.raises(ValueError):
            KernelSpec("poly", 2, scale=0.0)


class TestAnalyticTwoPoint:
    """X = {+1 at 1, -1 at -1}: the dual solves to alpha = (1/2, 1/2), b = 0."""

    @pytest.fixture
    def model(self):
        return smo_train(
            np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]), linear_kernel(),
            c=1.0,
        )

    def test_alphas_and_bias(self, model):
        assert np.allclose(np.sort(np.abs(model.dual_coef)), [0.5, 0.5], atol=1e-9)
        assert model.bias == pytest.approx(0.0, abs=1e-9)
        assert model.converged

    def test_decision_is_identity(self, model):
        assert svm_decision(model, np.array([0.0])) == pytest.approx(0.0, abs=1e-9)
        assert svm_decision(model, np.array([2.0])) == pytest.approx(2.0, abs=1e-9)

    def test_dimension_mismatch(self, model):
        with pytest.raises(DimensionMismatch):
            svm_decision(model, np.array([1.0, 2.0]))


class TestXor:
    def test_quadratic_kernel_separates(self):
        m = smo_train(XOR_X, XOR_Y, polynomial_kernel(2, 1.0), c=10.0)
        preds = np.sign(decision_function(m, XOR_X))
        assert np.array_equal(preds, XOR_Y)
        assert m.converged

    def test_linear_kernel_cannot_separate(self):
        m = smo_train(XOR_X, XOR_Y, linear_kernel(), c=10.0)
        preds = np.sign(decision_function(m, XOR_X))
        assert not np.array_equal(preds, XOR_Y)


class TestSmoContract:
    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            smo_train(np.zeros((3, 2)), np.ones(3), linear_kernel())

    @pytest.mark.parametrize("c, tol", [(0.0, 1e-3), (1.0, 0.0)])
    def test_nonpositive_c_or_tol_rejected(self, c, tol):
        with pytest.raises(ValueError):
            smo_train(XOR_X, XOR_Y, linear_kernel(), c=c, tol=tol)

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            smo_train(np.zeros((2, 1)), np.array([1.0, 0.0]), linear_kernel())

    def test_no_support_vectors_returns_bias(self):
        m = BinarySvmModel(
            support_vectors=np.empty((0, 2)),
            dual_coef=np.empty(0),
            bias=0.75,
            kernel=linear_kernel(),
            c=1.0,
            converged=True,
        )
        assert svm_decision(m, np.array([3.0, 4.0])) == 0.75

    def test_determinism(self, rng):
        X, y = random_binary_problem(rng)
        kern = polynomial_kernel(2, 4.0)
        a = smo_train(X, y, kern)
        b = smo_train(X, y, kern)
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert np.array_equal(a.support_vectors, b.support_vectors)
        assert a.bias == b.bias

    def test_dual_feasibility_and_kkt_on_random_problems(self, rng):
        kernels = [linear_kernel(), polynomial_kernel(2, 4.0), polynomial_kernel(3, 4.0)]
        for trial in range(15):
            X, y = random_binary_problem(rng, n_max=120)
            kern = kernels[trial % 3]
            c = float(rng.choice([0.5, 1.0, 5.0]))
            m = smo_train(X, y, kern, c=c, tol=1e-3, record_objective=True)
            alphas = np.abs(m.dual_coef)
            assert np.all(alphas > 0)
            assert np.all(alphas <= c + 1e-12)
            assert abs(m.dual_coef.sum()) <= 1e-8
            if m.converged:
                assert m.kkt_violations == 0
            trace = np.array(m.objective_trace)
            assert np.all(np.diff(trace) >= -1e-9)

    def test_kkt_audit_matches_model_flag(self, rng):
        X, y = random_binary_problem(rng, n_max=80)
        kern = linear_kernel()
        m = smo_train(X, y, kern, c=1.0)
        # reconstruct alpha over the training order for the audit
        alpha = np.zeros(len(y))
        used = set()
        for coef, sv in zip(m.dual_coef, m.support_vectors):
            hits = np.flatnonzero((X == sv).all(axis=1))
            i = next(h for h in hits if h not in used)
            used.add(i)
            alpha[i] = abs(coef)
        K = kern.gram(X, X)
        violations = kkt_violation_count(K, y, alpha, m.bias, 1.0, 1e-3)
        assert (violations == 0) == m.converged


class TestSolverBudgetAndAccuracy:
    def test_update_budget_exhausted_is_flagged(self):
        rng = np.random.default_rng(7)
        y = np.where(rng.random(100) < 0.5, 1.0, -1.0)
        X = rng.normal(size=(100, 5)) + 0.3 * y[:, None]
        kern = linear_kernel()
        m = smo_train(X, y, kern, c=1.0, tol=1e-3, max_total_passes=1,
                      record_objective=True)
        assert m.n_passes == 100
        assert not m.converged
        assert m.kkt_violations > 0
        alphas = np.abs(m.dual_coef)
        assert np.all(alphas > 0) and np.all(alphas <= 1.0)
        assert abs(m.dual_coef.sum()) <= 1e-8

    def test_objective_at_default_tol_is_near_optimal(self, rng):
        kernels = [linear_kernel(), polynomial_kernel(2, 4.0), polynomial_kernel(3, 4.0)]
        for trial in range(12):
            X, y = random_binary_problem(rng, n_max=120)
            kern = kernels[trial % 3]
            c = float(rng.choice([0.5, 1.0, 5.0]))
            K = kern.gram(X, X)

            def dual(model):
                ay = np.zeros(len(y))
                rows = [int(np.flatnonzero((X == sv).all(axis=1))[0])
                        for sv in model.support_vectors]
                ay[rows] = model.dual_coef
                return float(np.abs(ay).sum() - 0.5 * ay @ K @ ay)

            loose = smo_train(X, y, kern, c=c, tol=1e-3)
            tight = smo_train(X, y, kern, c=c, tol=1e-8)
            assert loose.converged and tight.converged
            assert abs(dual(loose) - dual(tight)) <= 1e-3 * abs(dual(tight))
