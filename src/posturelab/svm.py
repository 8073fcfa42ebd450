"""Soft-margin binary SVM trained by sequential minimal optimization.

The solver follows Platt's working-set scheme: after a full sweep it iterates
non-bound candidates first, and the second index of each pairwise update is
drawn in seeded-random order (non-bound candidates before bound ones).
Each accepted update moves one (alpha_i, alpha_j) pair along the equality
constraint, so dual feasibility (0 <= alpha <= C, sum alpha_i y_i = 0) holds
at every iteration by construction.

Convergence means zero KKT violations at the requested tolerance:
    alpha_i = 0      =>  y_i f(x_i) >= 1 - tol
    0 < alpha_i < C  =>  |y_i f(x_i) - 1| <= tol
    alpha_i = C      =>  y_i f(x_i) <= 1 + tol
A model that exhausts its pass budget with violations left is still returned,
flagged with converged=False.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from .errors import DimensionMismatch, NumericError, SingleClass
from .kernels import KernelSpec

# Smallest relative change of alpha_j counted as progress; snapping distance
# to the 0/C bounds for the driven alpha; bound classification tolerance for
# the constraint-derived alpha (floats can land within one ulp of a bound).
_STEP_EPS = 1e-8
_BOUND_SNAP = 1e-8
_BOUND_EPS = 1e-11


@dataclass(frozen=True)
class BinarySvmModel:
    """Fitted binary SVM: support vectors with dual coefficients alpha_i * y_i."""

    support_vectors: npt.NDArray[np.float64]
    dual_coef: npt.NDArray[np.float64]
    bias: float
    kernel: KernelSpec
    c: float
    converged: bool
    n_passes: int = 0
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
    max_passes: int = 10,
    seed: int = 0,
    record_objective: bool = False,
    max_total_passes: int = 2000,
) -> BinarySvmModel:
    """Solve the SVM dual for labels y in {-1, +1}.

    max_passes is the number of consecutive full sweeps without any alpha
    change required before the solver stops and checks the KKT conditions;
    max_total_passes bounds the overall work.

    With record_objective=True the dual objective is recomputed from scratch
    after every accepted update and stored on the returned model
    (objective_trace), for instrumented runs.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionMismatch("X must be (n, d) with one label per row")
    if not np.all(np.abs(y) == 1.0):
        raise ValueError("labels must be +1 or -1")
    if np.all(y == y[0]):
        raise SingleClass("training labels contain a single class")

    n = X.shape[0]
    c = float(c)
    K = kernel.gram(X, X)
    alpha = np.zeros(n)
    bias = 0.0
    f = np.zeros(n)  # f_i = sum_j alpha_j y_j K_ij + bias
    rng = np.random.default_rng(seed)

    trace: list[float] | None = None
    if record_objective:
        trace = [0.0]

    def objective() -> float:
        ay = alpha * y
        return float(alpha.sum() - 0.5 * (ay @ (K @ ay)))

    def take_step(i: int, j: int) -> bool:
        nonlocal bias, f
        if i == j:
            return False
        ai, aj = alpha[i], alpha[j]
        yi, yj = y[i], y[j]
        s = yi * yj
        if s < 0:
            lo, hi = max(0.0, aj - ai), min(c, c + aj - ai)
        else:
            lo, hi = max(0.0, ai + aj - c), min(c, ai + aj)
        if lo >= hi:
            return False
        ei = f[i] - yi
        ej = f[j] - yj
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        slope = yj * (ei - ej)  # dW/d(alpha_j) along the constraint line
        if eta > 0.0:
            aj_new = aj + slope / eta
            aj_new = min(max(aj_new, lo), hi)
        elif slope > 0.0:
            aj_new = hi
        elif slope < 0.0:
            aj_new = lo
        else:
            return False
        if aj_new < _BOUND_SNAP:
            aj_new = 0.0
        elif aj_new > c - _BOUND_SNAP:
            aj_new = c
        if abs(aj_new - aj) < _STEP_EPS * (aj_new + aj + _STEP_EPS):
            return False
        ai_new = ai + s * (aj - aj_new)
        # The constraint-derived alpha can land within float dust of a bound;
        # snap it so the bound is recognized (constraint slip <= _BOUND_EPS).
        if abs(ai_new) <= _BOUND_EPS:
            ai_new = 0.0
        elif abs(ai_new - c) <= _BOUND_EPS:
            ai_new = c
        ai_new = min(max(ai_new, 0.0), c)

        d_i = ai_new - ai
        d_j = aj_new - aj
        b1 = bias - ei - yi * d_i * K[i, i] - yj * d_j * K[i, j]
        b2 = bias - ej - yi * d_i * K[i, j] - yj * d_j * K[j, j]
        if 0.0 < ai_new < c:
            new_bias = b1
        elif 0.0 < aj_new < c:
            new_bias = b2
        else:
            new_bias = 0.5 * (b1 + b2)

        alpha[i] = ai_new
        alpha[j] = aj_new
        f += yi * d_i * K[:, i] + yj * d_j * K[:, j] + (new_bias - bias)
        bias = new_bias
        if trace is not None:
            if not (np.all(alpha >= 0.0) and np.all(alpha <= c)):
                raise NumericError("SMO step violated the box constraint 0 <= alpha <= C")
            if abs(float(alpha @ y)) > 1e-8:
                raise NumericError("SMO step violated the constraint sum(alpha * y) = 0")
            trace.append(objective())
        return True

    def examine(i: int) -> bool:
        r = (f[i] - y[i]) * y[i]
        movable_up = alpha[i] < c - _BOUND_EPS
        movable_down = alpha[i] > _BOUND_EPS
        if not ((r < -tol and movable_up) or (r > tol and movable_down)):
            return False
        nonbound = np.flatnonzero((alpha > _BOUND_EPS) & (alpha < c - _BOUND_EPS))
        rng.shuffle(nonbound)
        for j in nonbound:
            if take_step(i, int(j)):
                return True
        rest = np.setdiff1d(np.arange(n), nonbound, assume_unique=False)
        rng.shuffle(rest)
        for j in rest:
            if take_step(i, int(j)):
                return True
        return False

    clean_full_passes = 0
    examine_all = True
    total_passes = 0
    while clean_full_passes < max_passes and total_passes < max_total_passes:
        if examine_all:
            # Refresh the cached decision values: incremental updates drift
            # over hundreds of passes, which would blind the KKT test.
            f = K @ (alpha * y) + bias
            candidates = range(n)
        else:
            candidates = np.flatnonzero(
                (alpha > _BOUND_EPS) & (alpha < c - _BOUND_EPS)
            )
        changed = sum(examine(int(i)) for i in candidates)
        total_passes += 1
        if examine_all:
            if changed == 0:
                clean_full_passes += 1
            else:
                clean_full_passes = 0
                examine_all = False
        elif changed == 0:
            examine_all = True

    # Exact KKT audit from recomputed decision values (the cached f may carry
    # accumulated rounding).
    violations = kkt_violation_count(K, y, alpha, bias, c, tol)

    support = alpha > _BOUND_EPS
    return BinarySvmModel(
        support_vectors=X[support].copy(),
        dual_coef=(alpha * y)[support].copy(),
        bias=float(bias),
        kernel=kernel,
        c=c,
        converged=violations == 0,
        n_passes=total_passes,
        kkt_violations=violations,
        objective_trace=tuple(trace) if trace is not None else None,
    )
