"""Soft-margin binary SVM trained by sequential minimal optimization.

The solver is the decomposition method of LIBSVM (Chang & Lin, 2011) with
the maximal-violating-pair working set of Keerthi et al. (Neural Computation
13, 2001). It minimizes P(alpha) = 1/2 alpha'Q alpha - e'alpha, the negated
dual objective, subject to 0 <= alpha <= C and y'alpha = 0, where
Q = K * yy', and keeps the gradient G = Q alpha - e as a vector. With
F_t = -y_t G_t,

    I_up  = {t : y_t = +1, alpha_t < C} | {t : y_t = -1, alpha_t > 0}
    I_low = {t : y_t = +1, alpha_t > 0} | {t : y_t = -1, alpha_t < C}
    m(alpha) = max of F over I_up,  M(alpha) = min of F over I_low.

Working set: i is the argmax of F over I_up and j the argmin of F over I_low,
so the pair that decides the stop is the pair that moves. Along the pair's
line P has slope -(m - M) and curvature a = K_ii + K_jj - 2 K_ij. The
two-variable subproblem is solved exactly and clipped to the box, so the
pair moves along the equality constraint and the dual objective never
decreases. The solver stops when the gap m - M <= tol and sets the bias to
(m + M) / 2, so that every KKT condition below holds with at least tol / 2
to spare.

Face steps end the long tail, where SMO makes thousands of small unclipped
moves among a few free variables (an active-set finish, as in Scheinberg,
JMLR 7, 2006). The face is the split of the variables into those at 0, those
free (0 < alpha_t < C) and those at C. Once the face has not changed for
_FACE_STEADY pair updates and holds 2 to _FACE_MAX_FREE free variables, one
Newton step minimizes P over the face. Only the free variables (subscript
F, not to be confused with the vector F) move, and the step solves

    [Q_FF y_F; y_F' 0] [d; nu] = [-G_F; 0]

with a ridge of _FACE_RIDGE times the largest K_tt on Q_FF, since a linear
kernel on few features makes the face singular (no step on a LinAlgError).
A ratio test cuts the step at the first bound, and each variable that
reaches it is set to exactly 0 or C. The step is kept only if P strictly
falls; F is then recomputed as y - K (alpha * y), and I_up and I_low are
rebuilt from alpha. The returned model counts pair updates and kept face
steps together in n_passes, and both count toward the update budget.

The solver keeps F itself, not G, and never forms Q: since
-y_t Q_kt = -y_k K_kt, a step d_i, d_j on alpha_i, alpha_j moves F by
K_i (-y_i d_i) + K_j (-y_j d_j), two rows of K. I_up and I_low are held as
additive penalties (0 inside the set, -inf or +inf outside), so each scan is
one addition followed by argmax or argmin.

The solver takes K = kernel.gram(X, X) from its caller when given: a
one-vs-one fit slices each machine's Gram from one kernel matrix of its
training fold's dot products, so no machine takes a Gram product of its own.
Called alone, the solver computes K. A K with a non-finite entry is a
NumericError.

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

from .errors import DimensionMismatch, NumericError, SingleClass, count, read_only, real
from .kernels import KernelSpec

# Bound classification tolerance of the KKT audit and of support-vector
# selection; floor of the scalar pair curvature a = K_ii + K_jj - 2 K_ij.
_BOUND_EPS = 1e-11
_TAU = 1e-12
# Face steps: pair updates with the face unchanged before one is tried, the
# most free variables it solves for, and its ridge relative to the largest K_tt.
_FACE_STEADY = 10
_FACE_MAX_FREE = 64
_FACE_RIDGE = 1e-10
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
    n_passes: int = 0  # solver updates: pair updates plus kept face steps
    kkt_violations: int = 0
    objective_trace: tuple[float, ...] | None = field(default=None, metadata={"saved": False})

    def __post_init__(self):
        read_only(self, dual_coef=(len(self.support_vectors),))
        real("c", self.c, positive=True)
        count("n_passes", self.n_passes)
        if self.converged != (count("kkt_violations", self.kkt_violations) == 0):
            raise ValueError(f"converged is {self.converged} with "
                             f"{self.kkt_violations} KKT violations")

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
    gram: np.ndarray | None = None,
) -> BinarySvmModel:
    """Solve the SVM dual for labels y in {-1, +1}.

    gram, if given, is kernel.gram(X, X) computed by the caller, which then
    saves the solver its own Gram product.

    At most max_total_passes * n updates (pair updates and face steps) are made.

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
    if gram is None:
        with np.errstate(all="ignore"):  # an overflow is reported just below
            gram = kernel.gram(X, X)
    K = np.asarray(gram, dtype=np.float64)
    if K.shape != (n, n):
        raise DimensionMismatch(f"the Gram matrix of {n} rows must be ({n}, {n}), got {K.shape}")
    if not np.isfinite(K).all():
        raise NumericError("kernel matrix has a non-finite entry; check the kernel scale")
    diag = np.diag(K).tolist()
    alpha = [0.0] * n
    ys = y.tolist()
    F = y.copy()  # -y * (Q alpha - e) at alpha = 0
    pen_up, pen_low = _penalties(np.zeros(n), y, c)
    n_free = 0  # variables strictly inside the box
    steady = 0  # pair updates since the face last changed

    trace: list[float] | None = None
    if record_objective:
        trace = [0.0]

    def record(a: np.ndarray) -> None:
        if not (np.all(a >= 0.0) and np.all(a <= c)):
            raise NumericError("SMO step violated the box constraint 0 <= alpha <= C")
        if abs(float(a @ y)) > 1e-8:
            raise NumericError("SMO step violated the constraint sum(alpha * y) = 0")
        ay = a * y
        trace.append(float(a.sum() - 0.5 * (ay @ (K @ ay))))

    max_updates = max_total_passes * n
    updates = 0
    while True:
        # m and M are read from F: the penalty's +0.0 would turn -0.0 to +0.0
        i = int((F + pen_up).argmax())
        m_up = F[i]
        j = int((F + pen_low).argmin())
        m_low = F[j]
        if m_up - m_low <= tol or updates >= max_updates:
            break

        # Move t >= 0 along alpha_i += y_i t, alpha_j -= y_j t: P falls by
        # (m - M) t - a t^2 / 2 up to t = (m - M) / a, unless a bound comes first.
        ai, aj = alpha[i], alpha[j]
        yi, yj = ys[i], ys[j]
        room_i = c - ai if yi > 0.0 else ai
        room_j = aj if yj > 0.0 else c - aj
        a = max(diag[i] + diag[j] - 2.0 * float(K[i, j]), _TAU)
        t = min(float(m_up - m_low) / a, room_i, room_j)
        if t == room_i:
            alpha[i] = c if yi > 0.0 else 0.0
        else:
            alpha[i] = min(max(ai + yi * t, 0.0), c)
        if t == room_j:
            alpha[j] = 0.0 if yj > 0.0 else c
        else:
            alpha[j] = min(max(aj - yj * t, 0.0), c)
        F += K[i] * (-yi * (alpha[i] - ai)) + K[j] * (-yj * (alpha[j] - aj))
        for k, before in ((i, ai), (j, aj)):
            ak, yk = alpha[k], ys[k]
            pen_up[k] = 0.0 if (ak < c if yk > 0.0 else ak > 0.0) else -np.inf
            pen_low[k] = 0.0 if (ak > 0.0 if yk > 0.0 else ak < c) else np.inf
            if (ak > 0.0) + (ak >= c) != (before > 0.0) + (before >= c):  # k changed face
                n_free += (0.0 < ak < c) - (0.0 < before < c)
                steady = -1
        steady += 1
        updates += 1
        if trace is not None:
            record(np.array(alpha))

        if steady >= _FACE_STEADY and 2 <= n_free <= _FACE_MAX_FREE and updates < max_updates:
            steady = 0
            stepped = _face_step(K, F, y, np.array(alpha), c)
            if stepped is not None:
                alpha = stepped.tolist()
                F = y - K @ (stepped * y)
                pen_up, pen_low = _penalties(stepped, y, c)
                n_free = int(np.count_nonzero((stepped > 0.0) & (stepped < c)))
                updates += 1
                if trace is not None:
                    record(stepped)

    bias = 0.5 * (m_up + m_low)
    alpha = np.array(alpha)
    violations = kkt_violation_count(K, y, alpha, bias, c, tol)

    support = alpha > _BOUND_EPS
    return BinarySvmModel(
        support_vectors=X[support],
        dual_coef=(alpha * y)[support],
        bias=float(bias),
        kernel=kernel,
        c=c,
        converged=violations == 0,
        n_passes=updates,
        kkt_violations=violations,
        objective_trace=tuple(trace) if trace is not None else None,
    )


def _penalties(alpha: np.ndarray, y: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """I_up and I_low of alpha as penalties added to F before a scan."""
    pos = y > 0.0
    up = np.where(pos, alpha < c, alpha > 0.0)
    low = np.where(pos, alpha > 0.0, alpha < c)
    return np.where(up, 0.0, -np.inf), np.where(low, 0.0, np.inf)


def _face_step(K: np.ndarray, F: np.ndarray, y: np.ndarray, alpha: np.ndarray,
               c: float) -> np.ndarray | None:
    """alpha after one Newton step on its face, or None if P would not strictly fall.

    In u = y_F d the face system reads [K_FF 1; 1' 0][u; nu] = [F_F; 0]: the
    system of the module docstring with its rows and columns flipped in sign
    by y_F, a change that is exact in floating point.
    """
    free = np.flatnonzero((alpha > 0.0) & (alpha < c))
    nf = free.size
    K_ff = K.take(free, 0).take(free, 1)
    A = np.empty((nf + 1, nf + 1))
    A[:nf, :nf] = K_ff
    A[nf] = A[:, nf] = 1.0
    A[nf, nf] = 0.0
    diag = A.reshape(-1)[: nf * (nf + 2) : nf + 2]  # a view of A[t, t] for t < nf
    diag += _FACE_RIDGE * diag.max()
    F_f = F[free]
    try:
        u = np.linalg.solve(A, np.append(F_f, 0.0))[:nf]
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(u).all():
        return None
    y_f = y[free]
    d = y_f * u
    a_f = alpha[free]
    bound = c * (d > 0.0)  # the bound that d_t moves alpha_t toward
    with np.errstate(divide="ignore"):  # d_t = 0 never reaches a bound
        # |bound - a_t| is c - a_t or a_t, exactly, for a free a_t
        reach = np.abs(bound - a_f) / np.abs(d)
    s = min(1.0, float(reach.min()))
    stepped = np.where(reach == s, bound, a_f + s * d)
    np.clip(stepped, 0.0, c, out=stepped)
    w = y_f * (stepped - a_f)  # the step on alpha * y
    if -(F_f @ w) + 0.5 * (w @ (K_ff @ w)) >= 0.0:  # the change of P
        return None
    alpha = alpha.copy()
    alpha[free] = stepped
    return alpha
