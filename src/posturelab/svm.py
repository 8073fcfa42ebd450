"""Soft-margin binary SVM trained by sequential minimal optimization.

The solver is the decomposition method of LIBSVM (Chang & Lin, 2011) with
the second-order working-set selection of Fan, Chen & Lin (JMLR 6, 2005).
It minimizes P(alpha) = 1/2 alpha'Q alpha - e'alpha, the negated dual
objective, subject to 0 <= alpha <= C and y'alpha = 0, where Q = K * yy',
and keeps the gradient G = Q alpha - e as a vector. With F_t = -y_t G_t,

    I_up  = {t : y_t = +1, alpha_t < C} | {t : y_t = -1, alpha_t > 0}
    I_low = {t : y_t = +1, alpha_t > 0} | {t : y_t = -1, alpha_t < C}
    m(alpha) = max of F over I_up,  M(alpha) = min of F over I_low.

Working set: i is the argmax of F over I_up; j is, among t in I_low with
F_t < m, the one with the largest second-order gain b^2 / a, where
b = m - F_t and a = K_ii + K_tt - 2 K_it. The two-variable subproblem is
solved exactly and clipped to the box, so the pair moves along the equality
constraint and the dual objective never decreases. The solver stops when the
gap m - M <= tol and sets the bias to (m + M) / 2, so that every KKT
condition below holds with at least tol / 2 to spare. The returned model
counts its pair updates in n_passes.

The solver keeps F itself, not G, and never forms Q: since
-y_t Q_kt = -y_k K_kt, a step d_i, d_j on alpha_i, alpha_j moves F by
K_i (-y_i d_i) + K_j (-y_j d_j), two rows of K. I_up and I_low are held as
additive penalties (0 inside the set, -inf or +inf outside), so each scan is
one addition into a preallocated buffer followed by argmax or argmin. A Gram
matrix with a non-finite entry is a NumericError.

Convergence means zero KKT violations at the requested tolerance, audited
from exactly recomputed decision values:
    alpha_i = 0      =>  y_i f(x_i) >= 1 - tol
    0 < alpha_i < C  =>  |y_i f(x_i) - 1| <= tol
    alpha_i = C      =>  y_i f(x_i) <= 1 + tol
A model that exhausts its update budget with violations left is still
returned, flagged with converged=False.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.typing as npt

from .errors import DimensionMismatch, NumericError, SingleClass
from .kernels import KernelSpec

# Bound classification tolerance of the KKT audit and of support-vector
# selection; floor of the pair curvature K_ii + K_jj - 2 K_ij.
_BOUND_EPS = 1e-11
_TAU = 1e-12
# Default box constraint C and KKT tolerance, of the solver and of ClassifierSpec.
DEFAULT_C = 1.0
DEFAULT_TOL = 1e-3


@dataclass(frozen=True)
class BinarySvmModel:
    """Fitted binary SVM: support vectors with dual coefficients alpha_i * y_i."""

    support_vectors: npt.NDArray[np.float64]
    dual_coef: npt.NDArray[np.float64]
    bias: float
    kernel: KernelSpec
    c: float
    converged: bool
    n_passes: int = 0  # pair updates made by the solver
    kkt_violations: int = 0
    objective_trace: tuple[float, ...] | None = field(default=None, metadata={"saved": False})

    def __post_init__(self):
        if self.dual_coef.shape != self.support_vectors.shape[:1]:
            raise ValueError("expected one dual coefficient per support vector")

    @property
    def dim(self) -> int:
        return int(self.support_vectors.shape[1])


def decision_function(model: BinarySvmModel, X: np.ndarray) -> np.ndarray:
    """Signed decision values for rows of X; sign is the binary prediction."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if model.support_vectors.shape[0] == 0:
        return np.full(X.shape[0], model.bias)
    if X.shape[1] != model.dim:
        raise DimensionMismatch(
            f"expected {model.dim} features, got {X.shape[1]}"
        )
    return model.kernel.gram(X, model.support_vectors) @ model.dual_coef + model.bias


def kkt_violation_count(
    K: np.ndarray, y: np.ndarray, alpha: np.ndarray, bias: float, c: float, tol: float
) -> int:
    """Violations of the dual optimality conditions, from exact decision values.

    A non-finite y_i f(x_i) satisfies no condition, so it counts as one.
    """
    yf = y * (K @ (alpha * y) + bias)
    at_zero = alpha <= _BOUND_EPS
    at_c = alpha >= c - _BOUND_EPS
    interior = ~(at_zero | at_c)
    violated = ~np.isfinite(yf)
    violated |= at_zero & (yf < 1.0 - tol)
    violated |= at_c & (yf > 1.0 + tol)
    violated |= interior & (np.abs(yf - 1.0) > tol)
    return int(np.count_nonzero(violated))


def smo_train(
    X: np.ndarray,
    y: np.ndarray,
    kernel: KernelSpec,
    c: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
    record_objective: bool = False,
    max_total_passes: int = 2000,
) -> BinarySvmModel:
    """Solve the SVM dual for labels y in {-1, +1}.

    At most max_total_passes * n pair updates are made.

    With record_objective=True the dual objective is recomputed from scratch
    after every update and stored on the returned model (objective_trace),
    for instrumented runs.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionMismatch("X must be (n, d) with one label per row")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    if np.all(y == y[0]):
        raise SingleClass("training labels contain a single class")
    c = float(c)
    if not (0.0 < c < np.inf and 0.0 < tol < np.inf):
        raise ValueError("c and tol must be finite and positive")

    n = X.shape[0]
    with np.errstate(all="ignore"):  # an overflow is reported just below
        K = kernel.gram(X, X)
    if not np.isfinite(K).all():
        raise NumericError("kernel matrix has a non-finite entry; check the kernel scale")
    diag = np.diag(K)
    # a_ij = K_ii + K_jj - 2 K_ij, the curvature along a pair's line
    curv = K * -2.0
    curv += diag[:, None]
    curv += diag
    np.maximum(curv, _TAU, out=curv)
    alpha = [0.0] * n
    ys = y.tolist()
    F = y.copy()  # -y * (Q alpha - e) at alpha = 0
    # I_up and I_low at alpha = 0, as penalties added to F before a scan
    pen_up = np.where(y > 0.0, 0.0, -np.inf)
    pen_low = np.where(y < 0.0, 0.0, np.inf)
    scan = np.empty(n)
    b = np.empty(n)
    gain = np.empty(n)
    step_i = np.empty(n)
    step_j = np.empty(n)

    trace: list[float] | None = None
    if record_objective:
        trace = [0.0]

    max_updates = max_total_passes * n
    updates = 0
    while True:
        # m and M are read from F: the penalty's +0.0 would turn -0.0 to +0.0
        np.add(F, pen_up, out=scan)
        i = int(scan.argmax())
        m_up = F[i]
        np.add(F, pen_low, out=scan)
        m_low = F[int(scan.argmin())]
        if m_up - m_low <= tol or updates >= max_updates:
            break
        np.subtract(m_up, scan, out=b)
        np.maximum(b, 0.0, out=b)
        np.multiply(b, b, out=gain)
        np.divide(gain, curv[i], out=gain)
        j = int(gain.argmax())

        # Move t >= 0 along alpha_i += y_i t, alpha_j -= y_j t: P falls by
        # b t - a t^2 / 2 up to t = b / a, unless a bound comes first.
        ai, aj = alpha[i], alpha[j]
        yi, yj = ys[i], ys[j]
        room_i = c - ai if yi > 0.0 else ai
        room_j = aj if yj > 0.0 else c - aj
        t = min(float(b[j]) / float(curv[i, j]), room_i, room_j)
        if t == room_i:
            alpha[i] = c if yi > 0.0 else 0.0
        else:
            alpha[i] = min(max(ai + yi * t, 0.0), c)
        if t == room_j:
            alpha[j] = 0.0 if yj > 0.0 else c
        else:
            alpha[j] = min(max(aj - yj * t, 0.0), c)
        np.multiply(K[i], -yi * (alpha[i] - ai), out=step_i)
        np.multiply(K[j], -yj * (alpha[j] - aj), out=step_j)
        np.add(step_i, step_j, out=step_i)
        np.add(F, step_i, out=F)
        for k in (i, j):
            ak, yk = alpha[k], ys[k]
            pen_up[k] = 0.0 if (ak < c if yk > 0.0 else ak > 0.0) else -np.inf
            pen_low[k] = 0.0 if (ak > 0.0 if yk > 0.0 else ak < c) else np.inf
        updates += 1
        if trace is not None:
            a = np.array(alpha)
            if not (np.all(a >= 0.0) and np.all(a <= c)):
                raise NumericError("SMO step violated the box constraint 0 <= alpha <= C")
            if abs(float(a @ y)) > 1e-8:
                raise NumericError("SMO step violated the constraint sum(alpha * y) = 0")
            ay = a * y
            trace.append(float(a.sum() - 0.5 * (ay @ (K @ ay))))

    bias = 0.5 * (m_up + m_low)
    alpha = np.array(alpha)
    violations = kkt_violation_count(K, y, alpha, bias, c, tol)

    support = alpha > _BOUND_EPS
    return BinarySvmModel(
        support_vectors=X[support].copy(),
        dual_coef=(alpha * y)[support].copy(),
        bias=float(bias),
        kernel=kernel,
        c=c,
        converged=violations == 0,
        n_passes=updates,
        kkt_violations=violations,
        objective_trace=tuple(trace) if trace is not None else None,
    )
