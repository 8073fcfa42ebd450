"""The classifier menu behind a single train/predict contract.

Four model kinds: one-vs-one SVM (trained by SMO), linear and quadratic
Gaussian discriminants, and exact 1-nearest-neighbor. One table, CLASSIFIERS,
gives each classifier name its model class, its fit and its kernel degree.
Every kind trains through one path on a TrainingFold: the training rows,
standardized with statistics fitted on them alone (so kernel scales and
distances are comparable across feature families). Every classifier trained
on one fold shares its standardizer and, for the SVMs, its dot products.

Each model type checks its fields against each other, the standardizer's
width and the five postures in __post_init__, so training and loading agree.

Every fitted model has one scorer, which maps standardized rows to class
indices with a few BLAS calls. It is built on the model's first prediction
and cached on the instance. LDA and QDA save what theirs reads, so only the
SVM (its support-vector union) and 1-NN (its points' squared norms) build
anything. It is not a dataclass field, so it is never saved: a model file
has the same bytes whether or not the model has predicted.
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
    check_seed,
    choose,
    read_only,
    real,
    same_kind,
)
from .features import FeatureVector
from .kernels import KernelSpec, linear_kernel, polynomial_kernel
from .skeleton import NUM_CLASSES, PostureLabel, class_indices
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
        d = np.size(self.mean)
        read_only(self, mean=(d,), std=(d,))
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


class TrainingFold:
    """What every fit on one training set shares, each part computed once.

    Built from raw (n, d) rows X and their n labels y, it holds X as a float
    matrix and y as class indices (a label outside 0-4 is an UnknownLabel),
    the standardizer fitted on X and the standardized rows Xs. On first use
    it also holds by_class, Xs with its rows in stable class order and each
    present class's block of them, a slice; and dots, their dot products
    D = Xs Xs' in that order. LDA and QDA read each class from its block, and
    every SVM kind and every one-vs-one pair trained on the fold takes its
    Gram from D.
    """

    def __init__(self, X, y):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = class_indices(same_kind("labels", y, np.int64))
        if self.X.ndim != 2 or self.y.shape != self.X.shape[:1]:
            raise DimensionMismatch("training needs an (n, d) matrix and n labels, "
                                    f"got shapes {self.X.shape} and {self.y.shape}")
        self.standardizer = fit_standardizer(self.X)
        self.Xs = self.standardizer.transform(self.X)
        self.Xs.setflags(write=False)  # shared by every model fitted on the fold

    @cached_property
    def by_class(self) -> tuple[np.ndarray, dict[int, slice]]:
        ends = np.cumsum(np.bincount(self.y, minlength=NUM_CLASSES)).tolist()
        blocks = {k: slice(start, end)
                  for k, (start, end) in enumerate(zip([0, *ends], ends)) if end > start}
        return self.Xs[np.argsort(self.y, kind="stable")], blocks

    @cached_property
    def dots(self) -> np.ndarray:
        rows, _ = self.by_class
        dots = linear_kernel().gram(rows, rows)
        dots.setflags(write=False)
        return dots


class _VotePlan(NamedTuple):
    """What a one-vs-one vote needs to know of its pairs, computed once."""

    pairs: tuple[tuple[int, int], ...]
    wins: np.ndarray  # (P, K) +1 at a, -1 at b: what a non-negative decision moves
    base: np.ndarray  # (K,) the votes when every decision is negative: b's pair count


@functools.cache
def _vote_plan(pairs: tuple[tuple[int, int], ...]) -> _VotePlan:
    wins, base = np.zeros((len(pairs), NUM_CLASSES)), np.zeros(NUM_CLASSES)
    for p, (a, b) in enumerate(pairs):
        wins[p, a], wins[p, b] = 1.0, -1.0
        base[b] += 1.0
    return _VotePlan(pairs, wins, base)


def _votes(plan: _VotePlan, decisions: np.ndarray) -> np.ndarray:
    """(n, K) vote counts: a non-negative decision moves the vote of its pair
    from b to a. The sums are of at most P ones, so exact in any order."""
    return (decisions >= 0.0) @ plan.wins + plan.base


def _margin_sums(plan: _VotePlan, decisions: np.ndarray) -> np.ndarray:
    """(n, K) sums of the signed decision values in each class's favor, each
    taken in pair order from zero."""
    margins = np.zeros((decisions.shape[0], NUM_CLASSES))
    for p, (a, b) in enumerate(plan.pairs):
        margins[:, a] += decisions[:, p]
        margins[:, b] -= decisions[:, p]
    return margins


def _winners(plan: _VotePlan, decisions: np.ndarray) -> np.ndarray:
    """The voting rule: the most votes wins; a shared top count goes to the
    largest margin sum among the tied classes, then to the lowest class
    index. Margins are summed only for the rows whose top count is shared."""
    votes = _votes(plan, decisions)
    winners = votes.argmax(axis=1)  # the first top count: right unless shared
    ranked = np.sort(votes, axis=1)
    shared = (ranked[:, -1] == ranked[:, -2]).nonzero()[0]
    if shared.size:
        tied = votes[shared] == ranked[shared, -1:]
        margins = np.where(tied, _margin_sums(plan, decisions[shared]), -np.inf)
        top = tied & ~(margins < margins.max(axis=1, keepdims=True))
        winners[shared] = np.argmax(top, axis=1)
    return winners


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
    class). A model's scorer takes the winners alone, by the same rule.
    """
    plan = _vote_plan(tuple(pairs))
    votes = _votes(plan, decisions).astype(np.int64)
    return _winners(plan, decisions), votes, _margin_sums(plan, decisions)


def _check_indices(name: str, index) -> None:
    index = np.asarray(index, dtype=np.int64)
    if not ((index >= 0) & (index < NUM_CLASSES)).all():
        raise ValueError(f"{name} holds a class index outside 0-{NUM_CLASSES - 1}")


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
    """The distinct rows of finite float rows, in order of first appearance,
    and each input row's index among them: a dict of row bytes finds them.

    Adding +0.0 turns -0.0 into 0.0, so rows equal by value share bytes and
    merge.
    """
    rows = np.ascontiguousarray(rows + 0.0)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    slot: dict[bytes, int] = {}
    group = np.array([slot.setdefault(key, len(slot)) for key in keys.tolist()], dtype=np.int64)
    distinct = np.empty((len(slot), rows.shape[1]))
    distinct[group] = rows  # the rows of one group have equal bytes
    return distinct, group


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
        decisions, plan = self.decisions, _vote_plan(self.pairs)
        return lambda Xs: _winners(plan, decisions(Xs))


def _gaussian_shape(model) -> tuple[int, int]:
    """LDA/QDA: (k, d) of sorted distinct classes in d features."""
    _check_indices("classes", model.classes)
    if not model.classes or list(model.classes) != sorted(set(model.classes)):
        raise ValueError(f"classes must be sorted, distinct and not empty: {model.classes}")
    return len(model.classes), model.dim


@dataclass(frozen=True)
class LdaModel(MulticlassModel):
    classes: tuple[int, ...] = ()
    coef: npt.NDArray[np.float64] = None  # (d, k): pooled precision @ means'
    intercept: npt.NDArray[np.float64] = None  # (k,)

    kind: ClassVar[str] = "lda"

    def __post_init__(self):
        k, d = _gaussian_shape(self)
        read_only(self, coef=(d, k), intercept=(k,))

    @cached_property
    def scorer(self) -> Callable[[np.ndarray], np.ndarray]:
        classes = np.asarray(self.classes)
        # argmax ties go to the lowest class index.
        return lambda Xs: classes[np.argmax(Xs @ self.coef + self.intercept, axis=1)]


@dataclass(frozen=True)
class QdaModel(MulticlassModel):
    classes: tuple[int, ...] = ()
    means: npt.NDArray[np.float64] = None
    whiteners: npt.NDArray[np.float64] = None  # Cholesky factors L_k of the class precisions
    log_dets: npt.NDArray[np.float64] = None  # of the regularized covariances
    log_priors: npt.NDArray[np.float64] = None

    kind: ClassVar[str] = "qda"

    def __post_init__(self):
        k, d = _gaussian_shape(self)
        read_only(self, means=(k, d), whiteners=(k, d, d), log_dets=(k,), log_priors=(k,))

    @cached_property
    def scorer(self) -> Callable[[np.ndarray], np.ndarray]:
        """Sphering (ESL 4.3): with precision_k = L_k L_k', the Mahalanobis
        term is |(x - mu_k) L_k|^2, one matrix product per class."""
        classes = np.asarray(self.classes)

        def score(Xs: np.ndarray) -> np.ndarray:
            maha = np.column_stack(
                [np.square((Xs - mu) @ L).sum(axis=1) for mu, L in zip(self.means, self.whiteners)]
            )
            return classes[np.argmax(-0.5 * self.log_dets - 0.5 * maha + self.log_priors, axis=1)]

        return score


@dataclass(frozen=True)
class Knn1Model(MulticlassModel):
    points: npt.NDArray[np.float64] = None  # standardized training set
    labels: npt.NDArray[np.int64] = None

    kind: ClassVar[str] = "knn1"

    def __post_init__(self):
        n = len(self.points)
        if n < 1:
            raise ValueError("1-NN needs at least one stored point")
        read_only(self, points=(n, self.dim), labels=(n,))
        _check_indices("labels", self.labels)

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
# Fits: a TrainingFold -> the kind's own model fields


def _ovo_fit(fold: TrainingFold, kernel: KernelSpec, c: float, tol: float) -> dict:
    """One binary SVM per unordered pair of classes present in y.

    The positive label of the (a, b) machine is class a (the lower index), so
    positive decision values vote for a. The kernel is applied once, to the
    fold's dot products, whose rows come in class blocks. A machine's rows
    are the blocks of a and b, and its Gram is the four blocks of the kernel
    matrix that they span, copied.
    """
    rows, blocks = fold.by_class
    if len(blocks) < 2:
        raise SingleClass("one-vs-one training needs at least two classes")
    with np.errstate(all="ignore"):  # smo_train reports a non-finite entry
        K = kernel.of_dots(fold.dots)
    pairs = tuple(combinations(blocks, 2))
    machines = []
    for a, b in pairs:
        sa, sb = blocks[a], blocks[b]
        na, nb = sa.stop - sa.start, sb.stop - sb.start
        gram = np.empty((na + nb, na + nb))  # np.block copies about 10x slower
        gram[:na, :na], gram[:na, na:] = K[sa, sa], K[sa, sb]
        gram[na:, :na], gram[na:, na:] = K[sb, sa], K[sb, sb]
        labels = np.repeat([1.0, -1.0], [na, nb])
        machines.append(smo_train(np.concatenate([rows[sa], rows[sb]]), labels, kernel,
                                  c=c, tol=tol, gram=gram))
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


def _gaussian_fit(fold: TrainingFold) -> tuple[dict, list[np.ndarray]]:
    """What LDA and QDA share: the class indices, means and log priors, and
    each class's rows centered on its mean."""
    rows, blocks = fold.by_class
    if len(blocks) < 2:
        raise SingleClass("discriminant training needs at least two classes")
    groups = {k: rows[block] for k, block in blocks.items()}
    for k, group in groups.items():
        if len(group) < 2:
            raise SingleClass(f"class {k} has fewer than 2 samples")
    means = np.vstack([group.mean(axis=0) for group in groups.values()])
    centered = [group - mean_k for group, mean_k in zip(groups.values(), means)]
    counts = np.array([len(group) for group in groups.values()])
    shared = {"classes": tuple(groups), "means": means, "log_priors": np.log(counts / len(rows))}
    return shared, centered


def _lda_fit(fold: TrainingFold) -> dict:
    """Gaussian discriminant with one pooled covariance: linear scores (ESL 4.3.2)."""
    shared, centered = _gaussian_fit(fold)
    n, d = fold.Xs.shape
    pooled = np.zeros((d, d))
    for rows in centered:
        pooled += rows.T @ rows
    pooled = _regularized(pooled / (n - len(centered)))
    _cholesky(pooled, "pooled covariance")
    coef = np.linalg.inv(pooled) @ shared["means"].T
    intercept = -0.5 * np.einsum("kd,dk->k", shared["means"], coef) + shared["log_priors"]
    return {"classes": shared["classes"], "coef": coef, "intercept": intercept}


def _qda_fit(fold: TrainingFold) -> dict:
    """Gaussian discriminant with one covariance per class."""
    shared, centered = _gaussian_fit(fold)
    covs = [_regularized(rows.T @ rows / (rows.shape[0] - 1)) for rows in centered]
    log_dets = [
        2.0 * np.sum(np.log(np.diag(_cholesky(cov, f"class {k} covariance"))))
        for cov, k in zip(covs, shared["classes"])
    ]
    whiteners = [_cholesky(np.linalg.inv(cov), f"class {k} precision")
                 for cov, k in zip(covs, shared["classes"])]
    return {**shared, "whiteners": np.stack(whiteners), "log_dets": np.array(log_dets)}


def _knn1_fit(fold: TrainingFold) -> dict:
    return {"points": fold.Xs, "labels": fold.y}


class _Entry(NamedTuple):
    model: type[MulticlassModel]
    fit: Callable[..., dict]
    degree: int | None = None  # of the SVM kernel; 1 is the linear kernel


# The classifier menu, keyed by ClassifierSpec.name. Each fit takes a
# TrainingFold; the SVM rows train through ovo_train, which binds the kernel,
# c and tol of their fit.
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
        check_seed(self.seed)
        # Every classifier's report writes these values, and JSON has no
        # infinity or NaN; only the SVMs use them, so only they need them > 0.
        svm = CLASSIFIERS[self.name].degree is not None
        for key in ("c", "tol", "kernel_scale"):
            if getattr(self, key) is not None:
                real(key, getattr(self, key), positive=svm)

    def kernel(self, n_features: int) -> KernelSpec:
        """The kernel of an SVM spec; an auto kernel_scale resolves against n_features."""
        degree = CLASSIFIERS[self.name].degree
        if degree == 1:
            return linear_kernel()
        scale = self.kernel_scale
        if scale is None:
            scale = AUTO_SCALE_FACTOR * math.sqrt(n_features)
        return polynomial_kernel(degree, float(scale))


def _train(
    model: type[MulticlassModel], fit: Callable[..., dict], fold: TrainingFold,
    fingerprint: str, seed: int, **params,
) -> MulticlassModel:
    """The one training path: the model of the kind's fit on the fold."""
    fields = fit(fold, **params)
    return model(standardizer=fold.standardizer, fingerprint=fingerprint, seed=seed, **fields)


def train_classifier(
    X: np.ndarray, y: np.ndarray, spec: ClassifierSpec, fingerprint: str = "",
    fold: TrainingFold | None = None,
) -> MulticlassModel:
    """The spec's classifier, fitted on raw (n, d) rows X and their n labels y.

    fold, if given, is TrainingFold(X, y) built by the caller, who shares it
    among the classifiers trained on these rows.
    """
    if fold is None:
        fold = TrainingFold(X, y)
    entry = CLASSIFIERS[spec.name]
    if entry.degree is None:
        return _train(entry.model, entry.fit, fold, fingerprint, spec.seed)
    # SVMs train through the module attribute ovo_train, which perfbench wraps.
    kernel = spec.kernel(fold.X.shape[1])
    return ovo_train(fold.X, fold.y, kernel, spec.c, spec.tol, spec.seed, fingerprint, fold)


def ovo_train(
    X: np.ndarray, y: np.ndarray, kernel: KernelSpec, c: float = ClassifierSpec.c,
    tol: float = ClassifierSpec.tol, seed: int = ClassifierSpec.seed, fingerprint: str = "",
    fold: TrainingFold | None = None,
) -> OvoSvmModel:
    """One-vs-one SVM with this kernel. The solver is deterministic: seed is
    only recorded in the model. fold is as in train_classifier."""
    if fold is None:
        fold = TrainingFold(X, y)
    return _train(OvoSvmModel, _ovo_fit, fold, fingerprint, seed, kernel=kernel, c=c, tol=tol)


_POSTURES = tuple(PostureLabel)  # indexed, not called: an enum call is a lookup by value


def predict_label(model: MulticlassModel, x) -> PostureLabel:
    """Label of one feature vector: predict_batch on a one-row matrix."""
    return _POSTURES[predict_batch(model, _feature_row(model, x))[0]]


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

