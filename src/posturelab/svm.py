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
constraint and the dual objective never decreases; G is then updated with
two columns of Q. The solver stops when the gap m - M <= tol and sets the
bias to (m + M) / 2, so that every KKT condition below holds with at least
tol / 2 to spare. The returned model counts its pair updates in n_passes.

Convergence means zero KKT violations at the requested tolerance, audited
from exactly recomputed decision values:
    alpha_i = 0      =>  y_i f(x_i) >= 1 - tol
    0 < alpha_i < C  =>  |y_i f(x_i) - 1| <= tol
    alpha_i = C      =>  y_i f(x_i) <= 1 + tol
A model that exhausts its update budget with violations left is still
returned, flagged with converged=False.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import DimensionMismatch, NumericError, SingleClass
from .kernels import KernelSpec

# Bound classification tolerance of the KKT audit and of support-vector
# selection; floor of the pair curvature K_ii + K_jj - 2 K_ij.
_BOUND_EPS = 1e-11
_TAU = 1e-12


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
    objective_trace: tuple[float, ...] | None = None

    def __post_init__(self):
        # A model file keeps support vectors as nested lists, so a machine
        # without any loads back as [] and needs its 2-D shape restored.
        if self.support_vectors.ndim == 1:
            empty = self.support_vectors.reshape(0, 0)
            object.__setattr__(self, "support_vectors", empty)
        if self.support_vectors.shape[0] != self.dual_coef.shape[0]:
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


def svm_decision(model: BinarySvmModel, x: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch("expected a single feature vector")
    return float(decision_function(model, x[None, :])[0])


def kkt_violation_count(
    K: np.ndarray, y: np.ndarray, alpha: np.ndarray, bias: float, c: float, tol: float
) -> int:
    """Violations of the dual optimality conditions, from exact decision values."""
    yf = y * (K @ (alpha * y) + bias)
    at_zero = alpha <= _BOUND_EPS
    at_c = alpha >= c - _BOUND_EPS
    interior = ~(at_zero | at_c)
    return int(
        np.count_nonzero(at_zero & (yf < 1.0 - tol))
        + np.count_nonzero(at_c & (yf > 1.0 + tol))
        + np.count_nonzero(interior & (np.abs(yf - 1.0) > tol))
    )


def smo_train(
    X: np.ndarray,
    y: np.ndarray,
    kernel: KernelSpec,
    c: float = 1.0,
    tol: float = 1e-3,
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
    if not (c > 0.0 and tol > 0.0):
        raise ValueError("c and tol must be positive")

    n = X.shape[0]
    K = kernel.gram(X, X)
    Q = K * np.outer(y, y)
    diag = np.diag(K)
    # a_ij = K_ii + K_jj - 2 K_ij, the curvature along a pair's line
    curv = K * -2.0
    curv += diag[:, None]
    curv += diag
    np.maximum(curv, _TAU, out=curv)
    alpha = np.zeros(n)
    G = np.full(n, -1.0)  # Q alpha - e at alpha = 0
    neg_y = -y
    up = y > 0.0  # I_up and I_low as masks, at alpha = 0
    low = y < 0.0

    trace: list[float] | None = None
    if record_objective:
        trace = [0.0]

    def objective() -> float:
        ay = alpha * y
        return float(alpha.sum() - 0.5 * (ay @ (K @ ay)))

    max_updates = max_total_passes * n
    updates = 0
    while True:
        F = neg_y * G
        F_up = np.where(up, F, -np.inf)
        i = int(F_up.argmax())
        m_up = F_up[i]
        F_low = np.where(low, F, np.inf)
        m_low = F_low.min()
        if m_up - m_low <= tol or updates >= max_updates:
            break
        b = np.maximum(m_up - F_low, 0.0)
        j = int((b * b / curv[i]).argmax())

        # Move t >= 0 along alpha_i += y_i t, alpha_j -= y_j t: P falls by
        # b t - a t^2 / 2 up to t = b / a, unless a bound comes first.
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
            if not (np.all(alpha >= 0.0) and np.all(alpha <= c)):
                raise NumericError("SMO step violated the box constraint 0 <= alpha <= C")
            if abs(float(alpha @ y)) > 1e-8:
                raise NumericError("SMO step violated the constraint sum(alpha * y) = 0")
            trace.append(objective())

    bias = 0.5 * (m_up + m_low)
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
