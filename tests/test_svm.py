import numpy as np
import pytest

from posturelab import svm
from posturelab.classifiers import ClassifierSpec
from posturelab.dataset import SynthSpec, synth_generate
from posturelab.errors import DimensionMismatch, NumericError, SingleClass
from posturelab.evaluation import SplitSpec, evaluate
from posturelab.features import FeatureConfig
from posturelab.kernels import KernelSpec, linear_kernel, polynomial_kernel
from posturelab.svm import (
    _BOUND_EPS,
    _FACE_MAX_FREE,
    _FACE_RIDGE,
    _FACE_STEADY,
    _TAU,
    BinarySvmModel,
    decision_function,
    kkt_violation_count,
    smo_train,
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
    rows of Q = K * yy', and I_up/I_low as masks scanned with np.where. The
    face is compared as a whole after each pair update, and a face step
    solves [Q_FF y_F; y_F' 0][d; nu] = [-G_F; 0] as written.

    Kept as the oracle that smo_train must match bit for bit. Returns the
    fields of a fitted model as a dict.
    """
    K = kernel.gram(X, X)
    Q = K * np.outer(y, y)
    diag = np.diag(K)
    n = X.shape[0]
    alpha = np.zeros(n)
    G = np.full(n, -1.0)
    neg_y = -y
    up = y > 0.0
    low = y < 0.0
    trace = [0.0] if record_objective else None

    def record():
        ay = alpha * y
        trace.append(float(alpha.sum() - 0.5 * (ay @ (K @ ay))))

    def face_of(alpha):
        return (alpha > 0.0).astype(int) + (alpha >= c)

    face = face_of(alpha)
    steady = 0
    updates = 0
    while True:
        F = neg_y * G
        F_up = np.where(up, F, -np.inf)
        i = int(F_up.argmax())
        m_up = F_up[i]
        F_low = np.where(low, F, np.inf)
        j = int(F_low.argmin())
        m_low = F_low[j]
        if m_up - m_low <= tol or updates >= max_total_passes * n:
            break
        ai, aj = alpha[i], alpha[j]
        room_i = c - ai if y[i] > 0.0 else ai
        room_j = aj if y[j] > 0.0 else c - aj
        curv = max(diag[i] + diag[j] - 2.0 * K[i, j], _TAU)
        t = min((m_up - m_low) / curv, room_i, room_j)
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
        steady = steady + 1 if np.array_equal(face_of(alpha), face) else 0
        face = face_of(alpha)
        updates += 1
        if trace is not None:
            record()

        free = np.flatnonzero(face == 1)
        nf = free.size
        if (steady < _FACE_STEADY or not 2 <= nf <= _FACE_MAX_FREE
                or updates >= max_total_passes * n):
            continue
        steady = 0
        Q_ff = Q[np.ix_(free, free)]
        A = np.zeros((nf + 1, nf + 1))
        A[:nf, :nf] = Q_ff + _FACE_RIDGE * Q_ff.diagonal().max() * np.eye(nf)
        A[:nf, nf] = A[nf, :nf] = y[free]
        try:
            d = np.linalg.solve(A, np.append(-G[free], 0.0))[:nf]
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(d).all():
            continue
        a_f = alpha[free]
        with np.errstate(divide="ignore"):
            reach = np.where(d > 0.0, c - a_f, a_f) / np.abs(d)
        s = min(1.0, float(reach.min()))
        stepped = a_f + s * d
        stepped[reach == s] = np.where(d[reach == s] > 0.0, c, 0.0)
        stepped = np.clip(stepped, 0.0, c)
        delta = stepped - a_f
        if G[free] @ delta + 0.5 * (delta @ (Q_ff @ delta)) >= 0.0:
            continue
        alpha[free] = stepped
        G = Q @ alpha - 1.0
        up = np.where(y > 0.0, alpha < c, alpha > 0.0)
        low = np.where(y > 0.0, alpha > 0.0, alpha < c)
        face = face_of(alpha)
        updates += 1
        if trace is not None:
            record()
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

    def test_gram_is_a_function_of_dot_products(self):
        X = np.array([[1.0, 2.0], [3.0, -4.0]])
        dots = X @ X.T
        assert linear_kernel().of_dots(dots) is dots
        for kern in (polynomial_kernel(2, 3.0), polynomial_kernel(3, 0.5)):
            # computed in place, with the bits of the expression
            expected = (1.0 + dots / (kern.scale * kern.scale)) ** kern.degree
            assert np.array_equal(kern.of_dots(dots), expected)
            assert np.array_equal(kern.gram(X, X), expected)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            KernelSpec("rbf")
        with pytest.raises(ValueError):
            polynomial_kernel(1)
        with pytest.raises(ValueError):
            KernelSpec("poly", 2, scale=0.0)

    @pytest.mark.parametrize("kind", ["linear", "poly"])
    @pytest.mark.parametrize("degree, scale, message", [
        (2.5, 1.0, "kernel degree must be an integer, got 2.5"),
        (True, 1.0, "kernel degree must be an integer, got True"),
        (2, float("nan"), "kernel scale must be finite and positive, got nan"),
        (2, float("inf"), "kernel scale must be finite and positive, got inf"),
        (2, -1.0, "kernel scale must be finite and positive, got -1.0"),
    ])
    def test_degree_is_an_integer_and_scale_finite_positive(self, kind, degree, scale, message):
        with pytest.raises(ValueError) as e:
            KernelSpec(kind, degree, scale)
        assert str(e.value) == message


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
        assert decision_function(model, np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-9)
        assert decision_function(model, np.array([2.0]))[0] == pytest.approx(2.0, abs=1e-9)

    def test_dimension_mismatch(self, model):
        with pytest.raises(DimensionMismatch):
            decision_function(model, np.array([1.0, 2.0]))


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

    def test_one_label_too_few_is_a_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            smo_train(XOR_X, XOR_Y[:-1], linear_kernel())

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
        assert decision_function(m, np.array([3.0, 4.0]))[0] == 0.75

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


    def test_given_gram_is_used_as_computed(self, rng):
        X, y = random_binary_problem(rng, n_max=60)
        kern = polynomial_kernel(2, 4.0)
        own = smo_train(X, y, kern)
        given = smo_train(X, y, kern, gram=kern.gram(X, X))
        assert np.array_equal(own.dual_coef, given.dual_coef) and own.bias == given.bias
        with pytest.raises(DimensionMismatch):
            smo_train(X, y, kern, gram=kern.gram(X[1:], X[1:]))

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


class TestFaceSteps:
    def test_protocol_tail_machine_converges_in_few_updates(self):
        """svm_linear on angles, pair (0, 1), on the seed-3 protocol split: the
        longest tail of the seed-3 grid, 14,624 pair updates without face steps."""
        ds = synth_generate(SynthSpec(seed=3, per_class=208))
        report = evaluate(ds, FeatureConfig.from_name("angles", "adjacent"),
                          ClassifierSpec("svm_linear", seed=3), SplitSpec(seed=3))
        assert report.model.pairs[0] == (0, 1)
        machine = report.model.machines[0]
        assert machine.converged and machine.kkt_violations == 0
        # 2,725 updates measured (numpy 2.4.6, OpenBLAS 0.3.31); the rest is margin
        assert machine.n_passes <= 3000

    def test_rank_deficient_face(self, monkeypatch):
        """16 points in 3 dimensions, each given four times: the faces hold
        more free variables than K has rank, so only the ridge makes them solvable."""
        rng = np.random.default_rng(3)
        y = np.tile(np.where(np.arange(16) % 2 == 0, 1.0, -1.0), 4)
        X = np.tile(rng.normal(size=(16, 3)), (4, 1)) + 0.25 * y[:, None]
        free_counts = []

        def counted(K, F, labels, alpha, c):
            free_counts.append(int(np.count_nonzero((alpha > 0.0) & (alpha < c))))
            return face_step(K, F, labels, alpha, c)

        face_step = svm._face_step
        monkeypatch.setattr(svm, "_face_step", counted)
        c = 10.0
        m = smo_train(X, y, linear_kernel(), c=c, record_objective=True)
        assert max(free_counts) > 4  # [K_FF 1; 1' 0] has rank 5 at most: singular
        assert m.converged
        alphas = np.abs(m.dual_coef)
        assert np.all(alphas >= 0.0) and np.all(alphas <= c)
        assert np.count_nonzero(alphas < c) > 3  # more free SVs than features
        assert abs(m.dual_coef.sum()) <= 1e-8
        assert np.all(np.diff(m.objective_trace) >= -1e-9)
        TestOracleIdentity.assert_identical(
            m, _reference_smo(X, y, linear_kernel(), c=c, record_objective=True))


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
