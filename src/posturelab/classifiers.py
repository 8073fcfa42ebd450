"""The classifier menu behind a single train/predict contract.

Four model kinds: one-vs-one SVM (trained by SMO), linear and quadratic
Gaussian discriminants, and exact 1-nearest-neighbor. Every kind standardizes
features with statistics fitted on its own training set, so kernel scales and
distances are comparable across feature families.

Every fitted model has one scorer, which maps standardized rows to class
indices with a few BLAS calls. It is built from the fitted parameters on the
model's first prediction and cached on the instance. It is not a dataclass
field, so it is never saved: a model file has the same bytes whether or not
the model has predicted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Sequence

import numpy as np
import numpy.typing as npt

from .errors import (
    DegenerateCovariance,
    DimensionMismatch,
    EmptyTrainingSet,
    FingerprintMismatch,
    NumericError,
    SingleClass,
)
from .features import FeatureVector
from .kernels import KernelSpec, linear_kernel, polynomial_kernel
from .skeleton import NUM_CLASSES, PostureLabel
# decision_function scores one machine: the reference for OvoSvmModel.decisions,
# and an attribute that perfbench probes here.
from .svm import BinarySvmModel, decision_function, smo_train  # noqa: F401

COVARIANCE_RIDGE = 1e-6  # lambda in Sigma + lambda * (trace/d) * I
ZERO_STD_FLOOR = 1e-12  # features with stddev below this are stored with std 1
_KNN_BLOCK = 256  # query rows per 1-NN filter step

# Auto kernel scale: 4 * sqrt(n_features). For standardized features the
# polynomial kernel argument x.y/scale^2 then stays well above -1, keeping
# (1 + x.y/scale^2)^degree monotone in the dot product.
AUTO_SCALE_FACTOR = 4.0

CLASSIFIER_NAMES = (
    "lda",
    "qda",
    "knn1",
    "svm_linear",
    "svm_quadratic",
    "svm_cubic",
)


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


def vote_from_decisions(
    pairs: Sequence[tuple[int, int]],
    decisions: Sequence[float],
    n_classes: int = NUM_CLASSES,
) -> tuple[int, np.ndarray, np.ndarray]:
    """Aggregate pairwise duels into a winner.

    Each duel (a, b) carries a signed decision value: positive favors a,
    negative favors b, exact zero goes to the lower index a. The winner has
    the most votes; ties break on the largest sum of signed decision values
    in the class's favor, then on the lowest class index.

    Returns (winner index, votes per class, margin sum per class).
    """
    votes = np.zeros(n_classes, dtype=np.int64)
    margins = np.zeros(n_classes)
    for (a, b), d in zip(pairs, decisions):
        d = float(d)
        if d >= 0.0:
            votes[a] += 1
        else:
            votes[b] += 1
        margins[a] += d
        margins[b] -= d
    tied = np.flatnonzero(votes == votes.max())
    if tied.size > 1:
        tied = tied[margins[tied] == margins[tied].max()]
    return int(tied[0]), votes, margins


def vote_batch(
    pairs: Sequence[tuple[int, int]], decisions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """vote_from_decisions of every row of an (n, len(pairs)) decision table.

    Each class's margin takes the same float additions in the same pair
    order, so margin ties break as in vote_from_decisions. Returns (winner
    per row, votes per row and class).
    """
    # the class that each duel's vote goes to
    voted = np.where(decisions >= 0.0, *np.reshape(pairs, (-1, 2)).T)
    votes = (voted[:, :, None] == np.arange(NUM_CLASSES)).sum(axis=1)
    margins = np.zeros((NUM_CLASSES, decisions.shape[0]))
    for (a, b), d in zip(pairs, decisions.T):
        margins[a] += d
        margins[b] -= d
    tied = votes == votes.max(axis=1, keepdims=True)
    margins = np.where(tied, margins.T, -np.inf)
    top = tied & ~(margins < margins.max(axis=1, keepdims=True))
    return np.argmax(top, axis=1), votes


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

    @cached_property
    def scorer(self) -> Callable[[np.ndarray], np.ndarray]:
        """Class indices of standardized (n, d) rows; built once, never saved."""
        raise TypeError(f"not a multiclass model: {type(self)!r}")


@dataclass(frozen=True)
class OvoSvmModel(MulticlassModel):
    pairs: tuple[tuple[int, int], ...] = ()
    machines: tuple[BinarySvmModel, ...] = ()

    kind: ClassVar[str] = "ovo_svm"

    @property
    def nonconverged(self) -> int:
        """Binary SVMs left with KKT violations."""
        return sum(not m.converged for m in self.machines)

    @property
    def converged(self) -> bool:
        return self.nonconverged == 0

    @cached_property
    def decisions(self) -> Callable[[np.ndarray], np.ndarray]:
        """(n, machines) decision values of standardized rows.

        One Gram product against the distinct support vectors of all the
        machines, then one product with their dual coefficients, a column
        per machine. The values match decision_function's to rounding. A
        non-finite value (a degenerate kernel scale, overflowing rows) is a
        NumericError.
        """
        svs = [m.support_vectors for m in self.machines if m.support_vectors.size]
        if any(sv.shape[1] != self.dim for sv in svs):
            raise DimensionMismatch(f"support vectors do not have {self.dim} features")
        union, rows = np.unique(
            np.concatenate(svs or [np.empty((0, self.dim))]), axis=0, return_inverse=True
        )
        cols = np.repeat(np.arange(len(self.machines)), [m.dual_coef.size for m in self.machines])
        coefs = np.zeros((union.shape[0], len(self.machines)))
        np.add.at(coefs, (rows.ravel(), cols), np.concatenate([m.dual_coef for m in self.machines]))
        biases = np.array([m.bias for m in self.machines])
        kernel = self.machines[0].kernel  # ovo_train gives every machine one kernel

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


@dataclass(frozen=True)
class LdaModel(MulticlassModel):
    classes: tuple[int, ...] = ()
    means: npt.NDArray[np.float64] = None
    precision: npt.NDArray[np.float64] = None  # pooled inverse covariance
    log_priors: npt.NDArray[np.float64] = None

    kind: ClassVar[str] = "lda"

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
                rows, cols = np.nonzero(~(approx - slack > bound))  # NaN: keep
                d2 = ((points[cols] - Z[rows]) ** 2).sum(axis=1)
                d2[np.isnan(d2)] = -np.inf  # np.argmin takes the first NaN
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


def _class_counts(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    classes, counts = np.unique(y, return_counts=True)
    return classes.astype(np.int64), counts


# ---------------------------------------------------------------------------
# One-vs-one SVM


def ovo_train(
    X: np.ndarray,
    y: np.ndarray,
    kernel: KernelSpec,
    c: float = 1.0,
    tol: float = 1e-3,
    seed: int = 0,
    fingerprint: str = "",
) -> OvoSvmModel:
    """One binary SVM per unordered pair of classes present in y.

    The positive label of the (a, b) machine is class a (the lower index), so
    positive decision values vote for a. The solver is deterministic: seed is
    only recorded in the model.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes, _ = _class_counts(y)
    if classes.size < 2:
        raise SingleClass("one-vs-one training needs at least two classes")
    standardizer = fit_standardizer(X)
    Xs = standardizer.transform(X)

    pairs = []
    machines = []
    for ia in range(classes.size):
        for ib in range(ia + 1, classes.size):
            a, b = int(classes[ia]), int(classes[ib])
            mask = (y == a) | (y == b)
            y_bin = np.where(y[mask] == a, 1.0, -1.0)
            machines.append(smo_train(Xs[mask], y_bin, kernel, c=c, tol=tol))
            pairs.append((a, b))
    return OvoSvmModel(
        standardizer=standardizer,
        fingerprint=fingerprint,
        seed=seed,
        pairs=tuple(pairs),
        machines=tuple(machines),
    )


def ovo_predict(model: OvoSvmModel, x) -> tuple[PostureLabel, dict[PostureLabel, int]]:
    """Majority vote over the pairwise machines for one feature vector."""
    xs = model.standardizer.transform(_feature_row(model, x))
    winners, votes = vote_batch(model.pairs, model.decisions(xs))
    return PostureLabel(int(winners[0])), {label: int(votes[0, label]) for label in PostureLabel}


# ---------------------------------------------------------------------------
# Gaussian discriminants


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


def _chol_logdet(cov: np.ndarray, what: str) -> float:
    return float(2.0 * np.sum(np.log(np.diag(_cholesky(cov, f"{what} covariance")))))


def _gaussian_fit(X: np.ndarray, y: np.ndarray):
    """Shared part of LDA and QDA training.

    Returns the standardizer, the class indices, the class means, each
    class's standardized rows centered on its mean, and the log priors.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    classes, counts = _class_counts(y)
    if classes.size < 2:
        raise SingleClass("discriminant training needs at least two classes")
    if counts.min() < 2:
        small = int(classes[counts.argmin()])
        raise SingleClass(f"class {small} has fewer than 2 samples")
    standardizer = fit_standardizer(X)
    Xs = standardizer.transform(X)
    means = np.vstack([Xs[y == k].mean(axis=0) for k in classes])
    centered = [Xs[y == k] - mean_k for mean_k, k in zip(means, classes)]
    log_priors = np.log(counts / Xs.shape[0])
    return standardizer, tuple(int(k) for k in classes), means, centered, log_priors


def lda_train(
    X: np.ndarray, y: np.ndarray, fingerprint: str = "", seed: int = 0
) -> LdaModel:
    """Gaussian discriminant with one pooled covariance across classes."""
    standardizer, classes, means, centered, log_priors = _gaussian_fit(X, y)
    d = means.shape[1]
    pooled = np.zeros((d, d))
    for rows in centered:
        pooled += rows.T @ rows
    pooled /= sum(len(rows) for rows in centered) - len(classes)
    pooled = _regularized(pooled)
    _chol_logdet(pooled, "pooled")
    return LdaModel(
        standardizer=standardizer,
        fingerprint=fingerprint,
        seed=seed,
        classes=classes,
        means=means,
        precision=np.linalg.inv(pooled),
        log_priors=log_priors,
    )


def qda_train(
    X: np.ndarray, y: np.ndarray, fingerprint: str = "", seed: int = 0
) -> QdaModel:
    """Gaussian discriminant with one covariance per class."""
    standardizer, classes, means, centered, log_priors = _gaussian_fit(X, y)
    covs = [_regularized(rows.T @ rows / (rows.shape[0] - 1)) for rows in centered]
    log_dets = [_chol_logdet(cov, f"class {k}") for cov, k in zip(covs, classes)]
    return QdaModel(
        standardizer=standardizer,
        fingerprint=fingerprint,
        seed=seed,
        classes=classes,
        means=means,
        precisions=np.stack([np.linalg.inv(cov) for cov in covs]),
        log_dets=np.array(log_dets),
        log_priors=log_priors,
    )


# ---------------------------------------------------------------------------
# Nearest neighbor


def knn1_train(
    X: np.ndarray, y: np.ndarray, fingerprint: str = "", seed: int = 0
) -> Knn1Model:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise EmptyTrainingSet("1-NN needs at least one training point")
    standardizer = fit_standardizer(X)
    return Knn1Model(
        standardizer=standardizer,
        fingerprint=fingerprint,
        seed=seed,
        points=standardizer.transform(X),
        labels=y.copy(),
    )


def knn1_predict(model: Knn1Model, x) -> PostureLabel:
    """Label of the Euclidean-nearest standardized training point."""
    return predict_label(model, x)


# ---------------------------------------------------------------------------
# Uniform train/predict contract


@dataclass(frozen=True)
class ClassifierSpec:
    """CLI-facing classifier choice plus hyperparameters.

    kernel_scale None means auto: 4 * sqrt(n_features), resolved at training
    time and recorded in the fitted model.
    """

    name: str = "svm_quadratic"
    c: float = 1.0
    tol: float = 1e-3
    kernel_scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.name not in CLASSIFIER_NAMES:
            raise ValueError(
                f"unknown classifier {self.name!r}; choose from {CLASSIFIER_NAMES}"
            )
        # Every classifier's report writes these values, and JSON has no
        # infinity or NaN; only the SVMs use them, so only they need them > 0.
        for key in ("c", "tol", "kernel_scale"):
            value = getattr(self, key)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
            if self.name.startswith("svm_") and not value > 0.0:
                raise ValueError(f"{key} must be positive, got {value!r}")

    def resolve_scale(self, n_features: int) -> float:
        if self.kernel_scale is not None:
            return float(self.kernel_scale)
        return AUTO_SCALE_FACTOR * math.sqrt(n_features)

    def kernel(self, n_features: int) -> KernelSpec | None:
        if self.name == "svm_linear":
            return linear_kernel()
        if self.name == "svm_quadratic":
            return polynomial_kernel(2, self.resolve_scale(n_features))
        if self.name == "svm_cubic":
            return polynomial_kernel(3, self.resolve_scale(n_features))
        return None


def train_classifier(
    X: np.ndarray, y: np.ndarray, spec: ClassifierSpec, fingerprint: str = ""
) -> MulticlassModel:
    X = np.asarray(X, dtype=np.float64)
    kernel = spec.kernel(X.shape[1])
    if kernel is not None:
        return ovo_train(
            X,
            y,
            kernel,
            c=spec.c,
            tol=spec.tol,
            seed=spec.seed,
            fingerprint=fingerprint,
        )
    if spec.name == "lda":
        return lda_train(X, y, fingerprint=fingerprint, seed=spec.seed)
    if spec.name == "qda":
        return qda_train(X, y, fingerprint=fingerprint, seed=spec.seed)
    return knn1_train(X, y, fingerprint=fingerprint, seed=spec.seed)


def predict_label(model: MulticlassModel, x) -> PostureLabel:
    """Label of one feature vector: predict_batch on a one-row matrix."""
    return PostureLabel(int(predict_batch(model, _feature_row(model, x))[0]))


def predict_batch(model: MulticlassModel, X: np.ndarray) -> np.ndarray:
    """Predicted class indices for an (n, d) matrix of raw feature rows."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch("expected an (n, d) matrix")
    return model.scorer(model.standardizer.transform(X))
