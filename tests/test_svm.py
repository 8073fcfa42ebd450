import numpy as np
import pytest

from posturelab.errors import DimensionMismatch, NumericError, SingleClass
from posturelab.kernels import KernelSpec, linear_kernel, polynomial_kernel
from posturelab.svm import (
    _BOUND_EPS,
    _TAU,
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


def _reference_smo(X, y, kernel, c=1.0, tol=1e-3, record_objective=False,
                   max_total_passes=2000):
    """The solver in its gradient form: G = Q alpha - e, updated with two
    rows of Q = K * yy', and I_up/I_low as masks scanned with np.where.

    Kept as the oracle that smo_train must match bit for bit. Returns the
    fields of a fitted model as a dict.
    """
    K = kernel.gram(X, X)
    Q = K * np.outer(y, y)
    diag = np.diag(K)
    curv = K * -2.0
    curv += diag[:, None]
    curv += diag
    np.maximum(curv, _TAU, out=curv)
    n = X.shape[0]
    alpha = np.zeros(n)
    G = np.full(n, -1.0)
    neg_y = -y
    up = y > 0.0
    low = y < 0.0
    trace = [0.0] if record_objective else None
    updates = 0
    while True:
        F = neg_y * G
        F_up = np.where(up, F, -np.inf)
        i = int(F_up.argmax())
        m_up = F_up[i]
        F_low = np.where(low, F, np.inf)
        m_low = F_low.min()
        if m_up - m_low <= tol or updates >= max_total_passes * n:
            break
        b = np.maximum(m_up - F_low, 0.0)
        j = int((b * b / curv[i]).argmax())
        ai, aj = alpha[i], alpha[j]
        room_i = c - ai if y[i] > 0.0 else ai
        room_j = aj if y[j] > 0.0 else c - aj
        t = min(b[j] / curv[i, j], room_i, room_j)
        if t == room_i:
            alpha[i] = c if y[i] > 0.0 else 0.0
        else:
            alpha[i] = min(max(ai + y[i] * t, 0.0), c)
        if t == room_j:
            alpha[j] = 0.0 if y[j] > 0.0 else c
        else:
            alpha[j] = min(max(aj - y[j] * t, 0.0), c)
        G += Q[i] * (alpha[i] - ai) + Q[j] * (alpha[j] - aj)
        for k in (i, j):
            up[k] = alpha[k] < c if y[k] > 0.0 else alpha[k] > 0.0
            low[k] = alpha[k] > 0.0 if y[k] > 0.0 else alpha[k] < c
        updates += 1
        if trace is not None:
            ay = alpha * y
            trace.append(float(alpha.sum() - 0.5 * (ay @ (K @ ay))))
    bias = 0.5 * (m_up + m_low)
    support = alpha > _BOUND_EPS
    return {
        "support_vectors": X[support],
        "dual_coef": (alpha * y)[support],
        "bias": float(bias),
        "n_passes": updates,
        "kkt_violations": kkt_violation_count(K, y, alpha, bias, c, tol),
        "objective_trace": tuple(trace) if trace is not None else None,
    }


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

    @pytest.mark.parametrize(
        "c, tol", [(0.0, 1e-3), (1.0, 0.0), (np.inf, 1e-3), (1.0, np.inf), (np.nan, 1e-3)]
    )
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


    def test_non_finite_kernel_matrix_is_numeric_error(self):
        # scale**2 underflows to 0: every Gram entry is inf or nan
        with pytest.raises(NumericError, match="non-finite"):
            smo_train(XOR_X, XOR_Y, polynomial_kernel(2, 1e-200), c=1.0)

    def test_kkt_audit_counts_non_finite_decisions(self):
        y = np.array([1.0, -1.0, 1.0, -1.0])
        alpha = np.ones(4)  # interior for c = 2, and y f(x) = 1 with K = I
        assert kkt_violation_count(np.eye(4), y, alpha, 0.0, 2.0, 1e-3) == 0
        for bad in (np.nan, np.inf, -np.inf):
            K = np.eye(4)
            K[1, 1] = bad
            assert kkt_violation_count(K, y, alpha, 0.0, 2.0, 1e-3) == 1  # once, not twice
            # at alpha = 0 no comparison with nan or +-inf fires, yet every point violates
            assert kkt_violation_count(np.eye(4), y, np.zeros(4), bad, 2.0, 1e-3) == 4


class TestOracleIdentity:
    """smo_train keeps F in place; it must reproduce _reference_smo exactly."""

    @staticmethod
    def assert_identical(model, ref):
        assert np.array_equal(model.support_vectors, ref["support_vectors"])
        assert np.array_equal(model.dual_coef, ref["dual_coef"])
        assert model.bias == ref["bias"]
        assert model.n_passes == ref["n_passes"]
        assert model.kkt_violations == ref["kkt_violations"]
        assert model.objective_trace == ref["objective_trace"]

    @pytest.mark.parametrize("kern", [linear_kernel(), polynomial_kernel(2, 4.0),
                                      polynomial_kernel(3, 4.0)], ids=["linear", "quad", "cubic"])
    def test_random_problems(self, rng, kern):
        for _ in range(6):
            X, y = random_binary_problem(rng, n_max=120)
            c = float(rng.choice([0.1, 1.0, 10.0]))
            tol = float(rng.choice([1e-3, 1e-6]))
            model = smo_train(X, y, kern, c=c, tol=tol)
            self.assert_identical(model, _reference_smo(X, y, kern, c=c, tol=tol))

    def test_capped_run(self):
        rng = np.random.default_rng(7)
        y = np.where(rng.random(100) < 0.5, 1.0, -1.0)
        X = rng.normal(size=(100, 5)) + 0.3 * y[:, None]
        kern = linear_kernel()
        model = smo_train(X, y, kern, c=1.0, max_total_passes=1)
        assert not model.converged
        self.assert_identical(model, _reference_smo(X, y, kern, c=1.0, max_total_passes=1))

    def test_recorded_objective(self, rng):
        for kern in (linear_kernel(), polynomial_kernel(2, 4.0)):
            X, y = random_binary_problem(rng, n_max=60)
            model = smo_train(X, y, kern, c=1.0, record_objective=True)
            ref = _reference_smo(X, y, kern, c=1.0, record_objective=True)
            self.assert_identical(model, ref)


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
