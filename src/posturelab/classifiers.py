"""The classifier menu behind a single train/predict contract.

Four model kinds: one-vs-one SVM (trained by SMO), linear and quadratic
Gaussian discriminants, and exact 1-nearest-neighbor. One table, CLASSIFIERS,
gives each classifier name its model class, its fit and its kernel degree.
Every kind trains through one path, which standardizes features with
statistics fitted on its own training set (so kernel scales and distances are
comparable across feature families) and hands the standardized rows to the
kind's fit.

Each model type checks its fields against each other, the standardizer's
width and the five postures in __post_init__, so training and loading agree.

Every fitted model has one scorer, which maps standardized rows to class
indices with a few BLAS calls. It is built from the fitted parameters on the
model's first prediction and cached on the instance. It is not a dataclass
field, so it is never saved: a model file has the same bytes whether or not
the model has predicted.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from .errors import (
    DegenerateCovariance,
    DimensionMismatch,
    EmptyTrainingSet,
    FingerprintMismatch,
    NumericError,
    SingleClass,
    choose,
)
from .features import FeatureVector
from .kernels import KernelSpec, linear_kernel, polynomial_kernel
from .skeleton import NUM_CLASSES, PostureLabel
# The benchmark's tracer wraps decision_function (the one-machine reference for
# OvoSvmModel.decisions), smo_train and ovo_train as attributes of this module.
from .svm import (  # noqa: F401
    DEFAULT_C, DEFAULT_TOL, BinarySvmModel, decision_function, smo_train,
)

COVARIANCE_RIDGE = 1e-6  # lambda in Sigma + lambda * (trace/d) * I
ZERO_STD_FLOOR = 1e-12  # features with stddev below this are stored with std 1
_KNN_BLOCK = 256  # query rows per 1-NN filter step

# Auto kernel scale: 4 * sqrt(n_features). For standardized features the
# polynomial kernel argument x.y/scale^2 then stays well above -1, keeping
# (1 + x.y/scale^2)^degree monotone in the dot product.
AUTO_SCALE_FACTOR = 4.0

@dataclass(frozen=True)
class Standardizer:
    """Per-feature training mean and population stddev (zero-variance -> 1)."""

    mean: npt.NDArray[np.float64]
    std: npt.NDArray[np.float64]

    def __post_init__(self):
        for name in ("mean", "std"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise DimensionMismatch("mean and std must be 1-D and equal length")
        if not (self.std > 0.0).all():
            raise ValueError("std must be positive")

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1] != self.dim:
            raise DimensionMismatch(
                f"expected {self.dim} features, got {X.shape[-1]}"
            )
        return (X - self.mean) / self.std


def fit_standardizer(X: np.ndarray) -> Standardizer:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch("training matrix must be (n, d)")
    if X.shape[0] == 0:
        raise EmptyTrainingSet("cannot standardize an empty training set")
    mean = X.mean(axis=0)
    std = X.std(axis=0)  # population stddev
    std = np.where(std < ZERO_STD_FLOOR, 1.0, std)
    return Standardizer(mean, std)


class _VotePlan(NamedTuple):
    """What a one-vs-one vote needs to know of its pairs, computed once."""

    a: np.ndarray  # (P,) the class that a non-negative decision votes for
    b: np.ndarray  # (P,) the class that a negative decision votes for
    duel: np.ndarray  # (K, R) each class's pair indices in pair order; P pads
    sign: np.ndarray  # (K, R) +1.0 where the class is a, -1.0 where it is b


@functools.cache
def _vote_plan(pairs: tuple[tuple[int, int], ...]) -> _VotePlan:
    duels = [[] for _ in range(NUM_CLASSES)]  # per class: (pair index, sign)
    for p, (a, b) in enumerate(pairs):
        duels[a].append((p, 1.0))
        duels[b].append((p, -1.0))
    rounds = max(map(len, duels))
    pad = [(len(pairs), 1.0)]  # the zero column that vote_batch appends
    table = np.array([d + pad * (rounds - len(d)) for d in duels]).reshape(NUM_CLASSES, rounds, 2)
    a, b = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return _VotePlan(a, b, table[..., 0].astype(np.int64), table[..., 1])


def vote_batch(
    pairs: Sequence[tuple[int, int]], decisions: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-vs-one vote of every row of an (n, len(pairs)) decision table.

    Each duel (a, b) carries a signed decision value: positive favors a,
    negative favors b, exact zero goes to the lower index a. The winner has
    the most votes; ties break on the largest sum of signed decision values
    in the class's favor, then on the lowest class index. Each class's sum
    takes its additions in pair order.

    Returns (winner per row, votes per row and class, margin sum per row and
    class).
    """
    plan = _vote_plan(tuple(pairs))
    voted = np.where(decisions >= 0.0, plan.a, plan.b)
    votes = (voted[:, :, None] == np.arange(NUM_CLASSES)).sum(axis=1)
    # Round r adds each class's r-th duel, so every sum runs in pair order
    # from zero, as the loop `margins[a] += d; margins[b] -= d` over the
    # pairs does (x - d is x + (-d)). A padded entry adds the appended
    # column's +0.0, which changes no sum: one started at +0.0 is never -0.0.
    padded = np.concatenate([decisions, np.zeros((decisions.shape[0], 1))], axis=1)
    signed = padded[:, plan.duel] * plan.sign
    margins = np.zeros((decisions.shape[0], NUM_CLASSES))
    for r in range(plan.duel.shape[1]):
        margins += signed[:, :, r]
    tied = votes == votes.max(axis=1, keepdims=True)
    tied_margins = np.where(tied, margins, -np.inf)
    top = tied & ~(tied_margins < tied_margins.max(axis=1, keepdims=True))
    return np.argmax(top, axis=1), votes, margins


def _check_indices(name: str, index) -> None:
    index = np.asarray(index, dtype=np.int64)
    if not ((index >= 0) & (index < NUM_CLASSES)).all():
        raise ValueError(f"{name} holds a class index outside 0-{NUM_CLASSES - 1}")


def _check_shapes(model, **shapes: tuple[int, ...]) -> None:
    for name, shape in shapes.items():
        got = np.shape(getattr(model, name))
        if got != shape:
            raise DimensionMismatch(f"{name} has shape {got}, expected {shape}")


@dataclass(frozen=True)
class MulticlassModel:
    """Shared fields of every fitted five-class model."""

    standardizer: Standardizer
    fingerprint: str
    seed: int

    kind: ClassVar[str] = ""

    @property
    def dim(self) -> int:
        return self.standardizer.dim

    @property
    def nonconverged(self) -> int | None:
        """Binary SVMs left with KKT violations; None for a model without any."""
        return None

    @cached_property
    def scorer(self) -> Callable[[np.ndarray], np.ndarray]:
        """Class indices of standardized (n, d) rows; built once, never saved."""
        raise TypeError(f"not a multiclass model: {type(self)!r}")


def _union_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_inverse=True) for finite float rows,
    without its sort of every row as a structured record: a dict of row
    bytes finds the distinct rows, then Python's list comparison orders only
    those, column by column by value, as np.unique orders them.

    Adding +0.0 turns -0.0 into 0.0, so rows equal by value share bytes and
    merge, as np.unique merges them. Returns (distinct rows in lexicographic
    order, each input row's index among them).
    """
    rows = np.ascontiguousarray(rows + 0.0)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    slot: dict[bytes, int] = {}
    group = np.array([slot.setdefault(key, len(slot)) for key in keys.tolist()], dtype=np.int64)
    distinct = np.empty((len(slot), rows.shape[1]))
    distinct[group] = rows  # the rows of one group have equal bytes
    listed = distinct.tolist()
    order = np.array(sorted(range(len(listed)), key=listed.__getitem__), dtype=np.int64)
    return distinct[order], np.argsort(order)[group]


@dataclass(frozen=True)
class OvoSvmModel(MulticlassModel):
    pairs: tuple[tuple[int, int], ...] = ()
    machines: tuple[BinarySvmModel, ...] = ()

    kind: ClassVar[str] = "ovo_svm"

    def __post_init__(self):
        _check_indices("pairs", self.pairs)
        pairs = tuple(combinations(sorted({k for pair in self.pairs for k in pair}), 2))
        if not self.machines or self.pairs != pairs or len(self.machines) != len(pairs):
            raise ValueError("expected one machine per pair of classes, pairs in order")
        if any(m.kernel != self.machines[0].kernel for m in self.machines):
            raise ValueError("the machines do not share one kernel")
        if any(m.support_vectors.shape[1:] != (self.dim,) for m in self.machines):
            raise DimensionMismatch(f"support vectors do not have {self.dim} features")

    @property
    def nonconverged(self) -> int:
        return sum(not m.converged for m in self.machines)

    @cached_property
    def decisions(self) -> Callable[[np.ndarray], np.ndarray]:
        """(n, machines) decision values of standardized rows.

        One Gram product against the distinct support vectors of all the
        machines, then one product with their dual coefficients, a column
        per machine. The values match decision_function's to rounding. A
        non-finite value (a degenerate kernel scale, overflowing rows) is a
        NumericError.
        """
        union, rows = _union_rows(np.concatenate([m.support_vectors for m in self.machines]))
        cols = np.repeat(np.arange(len(self.machines)), [m.dual_coef.size for m in self.machines])
        coefs = np.zeros((union.shape[0], len(self.machines)))
        np.add.at(coefs, (rows, cols), np.concatenate([m.dual_coef for m in self.machines]))
        biases = np.array([m.bias for m in self.machines])
        kernel = self.machines[0].kernel

        def decide(Xs: np.ndarray) -> np.ndarray:
            with np.errstate(all="ignore"):
                values = kernel.gram(Xs, union) @ coefs + biases
            if not np.isfinite(values).all():
                raise NumericError("SVM decision values are not finite")
            return values

        return decide

    @cached_property
    def scorer(self) -> Callable[[np.ndarray], np.ndarray]:
        decisions, pairs = self.decisions, self.pairs
        return lambda Xs: vote_batch(pairs, decisions(Xs))[0]


def _check_gaussian(model) -> tuple[int, int]:
    """LDA/QDA: sorted distinct classes, each with a mean and a log prior; returns (k, d)."""
    _check_indices("classes", model.classes)
    if not model.classes or list(model.classes) != sorted(set(model.classes)):
        raise ValueError(f"classes must be sorted, distinct and not empty: {model.classes}")
    k, d = len(model.classes), model.dim
    _check_shapes(model, means=(k, d), log_priors=(k,))
    return k, d


@dataclass(frozen=True)
class LdaModel(MulticlassModel):
    classes: tuple[int, ...] = ()
    means: npt.NDArray[np.float64] = None
    precision: npt.NDArray[np.float64] = None  # pooled inverse covariance
    log_priors: npt.NDArray[np.float64] = None

    kind: ClassVar[str] = "lda"

    def __post_init__(self):
        d = _check_gaussian(self)[1]
        _check_shapes(self, precision=(d, d))

    @cached_property
    def scorer(self) -> Callable[[np.ndarray], np.ndarray]:
        coef = self.precision @ self.means.T  # (d, K)
        intercept = -0.5 * np.einsum("kd,dk->k", self.means, coef) + self.log_priors
        classes = np.asarray(self.classes)
        # argmax ties go to the lowest class index.
        return lambda Xs: classes[np.argmax(Xs @ coef + intercept, axis=1)]


@dataclass(frozen=True)
class QdaModel(MulticlassModel):
    classes: tuple[int, ...] = ()
    means: npt.NDArray[np.float64] = None
    precisions: npt.NDArray[np.float64] = None  # per-class inverse covariances
    log_dets: npt.NDArray[np.float64] = None  # of the regularized covariances
    log_priors: npt.NDArray[np.float64] = None

    kind: ClassVar[str] = "qda"

    def __post_init__(self):
        k, d = _check_gaussian(self)
        _check_shapes(self, precisions=(k, d, d), log_dets=(k,))

    @cached_property
    def scorer(self) -> Callable[[np.ndarray], np.ndarray]:
        """Sphering (ESL 4.3): with precision_k = L_k L_k', the Mahalanobis
        term is |(x - mu_k) L_k|^2, one matrix product per class."""
        whiteners = [
            _cholesky(p, f"class {k} precision") for p, k in zip(self.precisions, self.classes)
        ]
        means, log_dets, log_priors = self.means, self.log_dets, self.log_priors
        classes = np.asarray(self.classes)

        def score(Xs: np.ndarray) -> np.ndarray:
            maha = np.column_stack(
                [np.square((Xs - mu) @ L).sum(axis=1) for mu, L in zip(means, whiteners)]
            )
            return classes[np.argmax(-0.5 * log_dets - 0.5 * maha + log_priors, axis=1)]

        return score


@dataclass(frozen=True)
class Knn1Model(MulticlassModel):
    points: npt.NDArray[np.float64] = None  # standardized training set
    labels: npt.NDArray[np.int64] = None

    kind: ClassVar[str] = "knn1"

    def __post_init__(self):
        _check_indices("labels", self.labels)
        n = len(self.points)
        if n < 1:
            raise ValueError("1-NN needs at least one stored point")
        _check_shapes(self, points=(n, self.dim), labels=(n,))

    @cached_property
    def scorer(self) -> Callable[[np.ndarray], np.ndarray]:
        """Label of the nearest point, bit for bit as the loop that takes, per
        query z, the first argmin of ((points - z)**2).sum(axis=1).

        The BLAS expansion |z|^2 - 2 z.p + |p|^2 and that loop's sum each
        differ from the true squared distance by at most 3 gamma_{d+2}
        (|z|^2 + |p|^2) (Higham, Accuracy and Stability of Numerical
        Algorithms, 3.1); the slack of 8 gamma_{d+2} also covers the rounding
        of the bound arithmetic. A point whose expansion minus slack exceeds
        the smallest expansion plus slack cannot be the loop's minimum; the
        loop's own arithmetic ranks the rest, in index order.
        """
        points, labels = self.points, self.labels
        sq_points = np.einsum("nd,nd->n", points, points)
        dk = (points.shape[1] + 2) * np.finfo(np.float64).eps / 2
        rel = 8.0 * dk / (1.0 - dk)

        def score(Xs: np.ndarray) -> np.ndarray:
            out = np.empty(Xs.shape[0], dtype=np.int64)
            for lo in range(0, Xs.shape[0], _KNN_BLOCK):
                Z = Xs[lo : lo + _KNN_BLOCK]
                size = np.einsum("nd,nd->n", Z, Z)[:, None] + sq_points
                approx = size - 2.0 * (Z @ points.T)
                slack = rel * size + np.finfo(np.float64).tiny  # tiny: underflow
                bound = (approx + slack).min(axis=1, keepdims=True)
                rows, cols = np.nonzero(~(approx - slack > bound))
                d2 = ((points[cols] - Z[rows]) ** 2).sum(axis=1)
                order = np.lexsort((cols, d2, rows))
                first = order[np.flatnonzero(np.diff(rows, prepend=-1))]
                out[lo : lo + Z.shape[0]] = labels[cols[first]]
            return out

        return score


def _feature_row(model: MulticlassModel, x) -> np.ndarray:
    """Validate a single prediction input; return it as a (1, d) matrix."""
    if isinstance(x, FeatureVector):
        if x.fingerprint != model.fingerprint:
            raise FingerprintMismatch(
                f"feature fingerprint {x.fingerprint!r} does not match "
                f"model fingerprint {model.fingerprint!r}"
            )
        x = x.values
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatch("expected a single feature vector")
    return x[None, :]


# ---------------------------------------------------------------------------
# Fits: standardized (n, d) rows and n labels -> the kind's own model fields


def _ovo_fit(Xs: np.ndarray, y: np.ndarray, kernel: KernelSpec, c: float, tol: float) -> dict:
    """One binary SVM per unordered pair of classes present in y.

    The positive label of the (a, b) machine is class a (the lower index), so
    positive decision values vote for a.
    """
    # With return_counts, np.unique sorts; without, numpy 2 hashes, and the
    # hashing path costs about 10 ms on its first call in a process.
    classes, _ = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise SingleClass("one-vs-one training needs at least two classes")
    pairs = tuple(combinations(classes.tolist(), 2))
    machines = []
    for a, b in pairs:
        mask = (y == a) | (y == b)
        machines.append(smo_train(Xs[mask], np.where(y[mask] == a, 1.0, -1.0), kernel, c=c, tol=tol))
    return {"pairs": pairs, "machines": tuple(machines)}


def _regularized(cov: np.ndarray) -> np.ndarray:
    d = cov.shape[0]
    ridge = COVARIANCE_RIDGE * (np.trace(cov) / d)
    return cov + ridge * np.eye(d)


def _cholesky(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise DegenerateCovariance(
            f"{what} is singular even after regularization"
        ) from None


def _gaussian_fit(Xs: np.ndarray, y: np.ndarray) -> tuple[dict, list[np.ndarray]]:
    """What LDA and QDA share: the class indices, means and log priors, and
    each class's rows centered on its mean."""
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise SingleClass("discriminant training needs at least two classes")
    if counts.min() < 2:
        small = int(classes[counts.argmin()])
        raise SingleClass(f"class {small} has fewer than 2 samples")
    means = np.vstack([Xs[y == k].mean(axis=0) for k in classes])
    centered = [Xs[y == k] - mean_k for mean_k, k in zip(means, classes)]
    shared = {"classes": tuple(classes.tolist()), "means": means,
              "log_priors": np.log(counts / Xs.shape[0])}
    return shared, centered


def _lda_fit(Xs: np.ndarray, y: np.ndarray) -> dict:
    """Gaussian discriminant with one pooled covariance across classes."""
    shared, centered = _gaussian_fit(Xs, y)
    pooled = np.zeros((Xs.shape[1], Xs.shape[1]))
    for rows in centered:
        pooled += rows.T @ rows
    pooled = _regularized(pooled / (Xs.shape[0] - len(centered)))
    _cholesky(pooled, "pooled covariance")
    return {**shared, "precision": np.linalg.inv(pooled)}


def _qda_fit(Xs: np.ndarray, y: np.ndarray) -> dict:
    """Gaussian discriminant with one covariance per class."""
    shared, centered = _gaussian_fit(Xs, y)
    covs = [_regularized(rows.T @ rows / (rows.shape[0] - 1)) for rows in centered]
    log_dets = [
        2.0 * np.sum(np.log(np.diag(_cholesky(cov, f"class {k} covariance"))))
        for cov, k in zip(covs, shared["classes"])
    ]
    return {**shared, "precisions": np.stack([np.linalg.inv(cov) for cov in covs]),
            "log_dets": np.array(log_dets)}


def _knn1_fit(Xs: np.ndarray, y: np.ndarray) -> dict:
    return {"points": Xs, "labels": y.copy()}


class _Entry(NamedTuple):
    model: type[MulticlassModel]
    fit: Callable[..., dict]
    degree: int | None = None  # of the SVM kernel; 1 is the linear kernel


# The classifier menu, keyed by ClassifierSpec.name. The SVM rows train
# through ovo_train, which binds the kernel, c and tol of their fit.
CLASSIFIERS = {
    "lda": _Entry(LdaModel, _lda_fit),
    "qda": _Entry(QdaModel, _qda_fit),
    "knn1": _Entry(Knn1Model, _knn1_fit),
    "svm_linear": _Entry(OvoSvmModel, _ovo_fit, 1),
    "svm_quadratic": _Entry(OvoSvmModel, _ovo_fit, 2),
    "svm_cubic": _Entry(OvoSvmModel, _ovo_fit, 3),
}
CLASSIFIER_NAMES = tuple(CLASSIFIERS)
# Model class of each kind a model file names.
MODEL_KINDS = {entry.model.kind: entry.model for entry in CLASSIFIERS.values()}


# ---------------------------------------------------------------------------
# Uniform train/predict contract


@dataclass(frozen=True)
class ClassifierSpec:
    """CLI-facing classifier choice plus hyperparameters.

    kernel_scale None means auto: 4 * sqrt(n_features), resolved at training
    time and recorded in the fitted model.
    """

    name: str = "svm_quadratic"
    c: float = DEFAULT_C
    tol: float = DEFAULT_TOL
    kernel_scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        choose("classifier", self.name, CLASSIFIERS)
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")
        # Every classifier's report writes these values, and JSON has no
        # infinity or NaN; only the SVMs use them, so only they need them > 0.
        for key in ("c", "tol", "kernel_scale"):
            value = getattr(self, key)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
            if CLASSIFIERS[self.name].degree is not None and not value > 0.0:
                raise ValueError(f"{key} must be positive, got {value!r}")

    def resolve_scale(self, n_features: int) -> float:
        if self.kernel_scale is not None:
            return float(self.kernel_scale)
        return AUTO_SCALE_FACTOR * math.sqrt(n_features)

    def kernel(self, n_features: int) -> KernelSpec | None:
        degree = CLASSIFIERS[self.name].degree
        if degree is None:
            return None
        if degree == 1:
            return linear_kernel()
        return polynomial_kernel(degree, self.resolve_scale(n_features))


def _checked(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X as an (n, d) float matrix and y as its n integer labels."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or y.shape != X.shape[:1]:
        raise DimensionMismatch(
            f"training needs an (n, d) matrix and n labels, got shapes {X.shape} and {y.shape}"
        )
    return X, y


def _train(
    model: type[MulticlassModel], fit: Callable[..., dict], X, y, fingerprint: str, seed: int,
    **params,
) -> MulticlassModel:
    """The one training path: check X and y, fit the standardizer on X, and
    build the model from the kind's fit on the standardized rows."""
    X, y = _checked(X, y)
    standardizer = fit_standardizer(X)
    fields = fit(standardizer.transform(X), y, **params)
    return model(standardizer=standardizer, fingerprint=fingerprint, seed=seed, **fields)


def train_classifier(
    X: np.ndarray, y: np.ndarray, spec: ClassifierSpec, fingerprint: str = ""
) -> MulticlassModel:
    """The spec's classifier, fitted on raw (n, d) rows X and their n labels y."""
    entry = CLASSIFIERS[spec.name]
    if entry.degree is None:
        return _train(entry.model, entry.fit, X, y, fingerprint, spec.seed)
    # SVMs train through the module attribute ovo_train, which perfbench wraps;
    # X is checked first because the auto kernel scale reads its width.
    X, y = _checked(X, y)
    return ovo_train(X, y, spec.kernel(X.shape[1]), spec.c, spec.tol, spec.seed, fingerprint)


def ovo_train(
    X: np.ndarray, y: np.ndarray, kernel: KernelSpec, c: float = ClassifierSpec.c,
    tol: float = ClassifierSpec.tol, seed: int = ClassifierSpec.seed, fingerprint: str = "",
) -> OvoSvmModel:
    """One-vs-one SVM with this kernel. The solver is deterministic: seed is
    only recorded in the model."""
    return _train(OvoSvmModel, _ovo_fit, X, y, fingerprint, seed, kernel=kernel, c=c, tol=tol)


def predict_label(model: MulticlassModel, x) -> PostureLabel:
    """Label of one feature vector: predict_batch on a one-row matrix."""
    return PostureLabel(int(predict_batch(model, _feature_row(model, x))[0]))


def predict_batch(model: MulticlassModel, X: np.ndarray) -> np.ndarray:
    """Predicted class indices for an (n, d) matrix of raw feature rows."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch("expected an (n, d) matrix")
    if not np.isfinite(X).all():
        raise NumericError("feature rows must be finite")
    try:  # finite rows so large that standardizing or scoring them overflows
        with np.errstate(over="raise", invalid="raise"):
            return model.scorer(model.standardizer.transform(X))
    except FloatingPointError:
        raise NumericError("feature rows overflow when scored") from None

