"""Experimental methodology: seeded stratified splits, confusion matrices in
the row-normalized convention (rows are true classes, columns predicted),
per-class and overall accuracy, and the classifier-by-featureset grid.
"""
from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from .classifiers import (
    ClassifierSpec, MulticlassModel, TrainingFold, predict_batch, train_classifier,
)
from .dataset import LabeledDataset, encode
from .errors import (
    ClassTooSmall, EmptyInput, LengthMismatch, boolean, check_seed, choose,
    read_only, real,
)
from .features import FeatureConfig, extract_matrix
from .skeleton import LABEL_NAMES, NUM_CLASSES, PostureLabel, class_indices

STRATIFY_MODES = ("label", "label_participant")
REPORT_FORMATS = ("text", "csv", "json")  # the default first
GRID_FORMATS = ("text", "json")

REPORT_VERSION = 1

# Classifier rows of the default evaluation grid.
GRID_CLASSIFIERS = ("lda", "knn1", "svm_linear", "svm_quadratic", "svm_cubic")
GRID_FEATURE_SETS = ("angles", "distances", "combined")


def round_half_up(value, decimals: int = 1):
    """Decimal rounding with ties away from zero (table convention), elementwise."""
    factor = 10.0**decimals
    return np.sign(value) * (np.floor(np.abs(value) * factor + 0.5) / factor)


@dataclass(frozen=True)
class SplitSpec:
    """Seeded stratified train/test split policy.

    Resubstitution (train = test = everything) exists solely for oracle tests
    and is labeled as such in reports.
    """

    train_fraction: float = 0.8
    seed: int = 0
    stratify_by: str = "label"
    resubstitution: bool = False

    def __post_init__(self):
        check_seed(self.seed)
        if not (0.0 < real("train_fraction", self.train_fraction) < 1.0):
            raise ValueError("train_fraction must be in (0, 1)")
        choose("stratify mode", self.stratify_by, STRATIFY_MODES)
        boolean("resubstitution", self.resubstitution)


def stratified_split(
    ds: LabeledDataset, spec: SplitSpec
) -> tuple[np.ndarray, np.ndarray]:
    """The (train, test) index arrays of spec: every index in both under
    resubstitution, else disjoint arrays covering the dataset.

    Per-stratum train counts start at floor(fraction * n_k); the leftover up
    to the dataset-level target round(fraction * N) goes to the strata with
    the largest fractional remainders (ties to the first stratum in key
    order), so the global split hits the requested fraction exactly whenever
    it is an integer. Within each stratum the assignment is a seeded shuffle,
    deterministic given (dataset order, spec).
    """
    labels = ds.label_indices()
    n = labels.shape[0]
    if spec.resubstitution:
        return np.arange(n), np.arange(n)
    if spec.stratify_by == "label":
        keys = labels
    else:  # (label, participant) in tuple order: participants by sorted rank
        participants, ranks = np.unique(ds.participants, return_inverse=True)
        keys = labels * len(participants) + ranks
    _, strata = np.unique(keys, return_inverse=True)

    class_sizes = np.bincount(labels, minlength=NUM_CLASSES)
    for k in np.flatnonzero(class_sizes):
        if class_sizes[k] < 2:
            raise ClassTooSmall(
                f"class {PostureLabel(int(k)).name} has {int(class_sizes[k])} "
                "observation(s); need at least 2 to split"
            )

    sizes = np.bincount(strata)
    exact = spec.train_fraction * sizes
    base = np.floor(exact).astype(np.int64)
    target_total = int(round_half_up(spec.train_fraction * n, 0))
    extras = target_total - int(base.sum())
    base[np.argsort(base - exact, kind="stable")[:extras]] += 1

    rng = np.random.default_rng(spec.seed)
    train = np.zeros(n, dtype=bool)
    members = np.split(np.argsort(strata, kind="stable"), np.cumsum(sizes)[:-1])
    for stratum, take in zip(members, base):
        rng.shuffle(stratum)
        train[stratum[:take]] = True
    return np.flatnonzero(train), np.flatnonzero(~train)


@dataclass(frozen=True)
class ConfusionMatrix:
    """5x5 counts; rows are true classes, columns predicted classes."""

    counts: npt.NDArray[np.int64]

    def __post_init__(self):
        read_only(self, counts=(NUM_CLASSES, NUM_CLASSES))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def overall_accuracy(self) -> float:
        return float(np.trace(self.counts) / self.total)

    def per_class_accuracy(self) -> np.ndarray:
        """Diagonal over row sums; NaN for classes absent from the test set."""
        row_sums = self.counts.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                row_sums > 0, np.diag(self.counts) / row_sums, np.nan
            )

    def row_percentages(self) -> np.ndarray:
        """Row-normalized percentages, one decimal, half-up; zero rows stay 0."""
        row_sums = self.counts.sum(axis=1, keepdims=True)
        raw = 100.0 * self.counts / np.where(row_sums > 0, row_sums, 1)
        return round_half_up(raw)


def confusion_matrix(truth, pred) -> ConfusionMatrix:
    truth, pred = np.asarray(truth), np.asarray(pred)
    if truth.shape[0] != pred.shape[0]:
        raise LengthMismatch(
            f"{truth.shape[0]} truth labels vs {pred.shape[0]} predictions"
        )
    if truth.shape[0] == 0:
        raise EmptyInput("cannot build a confusion matrix from no labels")
    truth, pred = class_indices(truth), class_indices(pred)
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(counts, (truth, pred), 1)
    return ConfusionMatrix(counts)


@dataclass(frozen=True)
class EvaluationReport:
    """One evaluated (classifier, feature set, split) cell."""

    classifier: ClassifierSpec
    features: FeatureConfig
    split: SplitSpec
    confusion: ConfusionMatrix
    n_train: int
    n_test: int
    dataset_fingerprint: str
    feature_fingerprint: str
    timings_ms: dict
    model: MulticlassModel = field(repr=False, compare=False)

    @property
    def accuracy(self) -> float:
        return self.confusion.overall_accuracy

    @property
    def nonconverged_machines(self) -> int | None:
        """Binary SVMs of the model left with KKT violations; None if not an SVM."""
        return self.model.nonconverged

    def to_dict(self) -> dict:
        per_class = [
            None if math.isnan(v) else float(v)
            for v in self.confusion.per_class_accuracy()
        ]
        doc = {
            "version": REPORT_VERSION,
            "classifier": encode(ClassifierSpec, self.classifier),
            "features": {
                "set": self.features.name,
                **encode(FeatureConfig, self.features),
                "fingerprint": self.feature_fingerprint,
            },
            "split": {
                **encode(SplitSpec, self.split),
                "n_train": self.n_train,
                "n_test": self.n_test,
            },
            "dataset_fingerprint": self.dataset_fingerprint,
            "counts": self.confusion.counts.tolist(),
            "accuracy": self.accuracy,
            "per_class": per_class,
        }
        if self.nonconverged_machines is not None:
            doc["nonconverged_machines"] = self.nonconverged_machines
        doc["timings_ms"] = {k: float(v) for k, v in self.timings_ms.items()}
        return doc


class FoldContext(NamedTuple):
    """One feature set of a dataset on one split, built once and shared by
    every classifier evaluated on it: the training fold (its rows, their
    standardizer and, on first SVM use, their dot products), the raw test
    rows and labels, and the feature fingerprint."""

    training: TrainingFold
    X_test: np.ndarray
    y_test: np.ndarray
    fingerprint: str


def fold_context(
    ds: LabeledDataset, cfg: FeatureConfig, train: np.ndarray, test: np.ndarray
) -> FoldContext:
    """Extract cfg's features of ds and split them by the index arrays."""
    X, fingerprint = extract_matrix(ds.positions, cfg)
    y = ds.label_indices()
    return FoldContext(TrainingFold(X[train], y[train]), X[test], y[test], fingerprint)


def evaluate(
    ds: LabeledDataset,
    cfg: FeatureConfig,
    classifier: ClassifierSpec,
    split: SplitSpec,
    fold: FoldContext | None = None,
) -> EvaluationReport:
    """Extract features, fit on the train partition only, score the test one.

    fold, if given, is fold_context(ds, cfg, *stratified_split(ds, split))
    built by the caller, which then skips the extraction, the split and the
    standardizer fit. timings_ms["extract"] is the time to build the fold
    context, so about 0 when it is given.

    No test observation influences any fitted parameter: the standardizer
    inside the model is fitted on the training rows alone.
    """
    t0 = time.perf_counter()
    if fold is None:
        fold = fold_context(ds, cfg, *stratified_split(ds, split))
    training = fold.training
    t_extract = time.perf_counter()

    model = train_classifier(training.X, training.y, classifier, fold.fingerprint, training)
    t_train = time.perf_counter()

    pred = predict_batch(model, fold.X_test)
    confusion = confusion_matrix(fold.y_test, pred)
    t_predict = time.perf_counter()

    return EvaluationReport(
        classifier=classifier,
        features=cfg,
        split=split,
        confusion=confusion,
        n_train=int(training.y.shape[0]),
        n_test=int(fold.y_test.shape[0]),
        dataset_fingerprint=ds.fingerprint,
        feature_fingerprint=fold.fingerprint,
        timings_ms={
            "extract": (t_extract - t0) * 1e3,
            "train": (t_train - t_extract) * 1e3,
            "predict": (t_predict - t_train) * 1e3,
            "total": (t_predict - t0) * 1e3,
        },
        model=model,
    )


# ---------------------------------------------------------------------------
# Rendering


def _format_pct(value: float) -> str:
    return f"{round_half_up(value, 1):.1f}%"


def render_text(report: EvaluationReport) -> str:
    pct = report.confusion.row_percentages()
    per_class = report.confusion.per_class_accuracy()
    width = max(len(name) for name in LABEL_NAMES) + 2
    lines = []
    c = report.classifier
    scale = "auto" if c.kernel_scale is None else f"{c.kernel_scale:g}"
    lines.append(
        f"classifier: {c.name} (c={c.c:g}, tol={c.tol:g}, "
        f"kernel_scale={scale}, seed={c.seed})"
    )
    f = report.features
    lines.append(f"features: {f.name} (angle_mode={f.angle_mode.value}, "
                 f"length={f.length}, fingerprint={report.feature_fingerprint})")
    s = report.split
    mode = "resubstitution" if s.resubstitution else f"stratified by {s.stratify_by}"
    lines.append(
        f"split: {mode}, fraction={s.train_fraction:g}, seed={s.seed}, "
        f"train={report.n_train}, test={report.n_test}"
    )
    lines.append(f"dataset: {report.dataset_fingerprint}")
    lines.append(f"overall accuracy: {_format_pct(100.0 * report.accuracy)}")
    bad = report.nonconverged_machines
    if bad:
        lines.append(
            f"warning: {bad} of {len(report.model.machines)} binary SVMs did not "
            "converge (KKT violations left); the accuracy is of that model"
        )
    lines.append("")
    lines.append("rows: true class, columns: predicted class")
    header = " " * width + "".join(f"{name:>{width}}" for name in LABEL_NAMES)
    lines.append(header)
    for i, name in enumerate(LABEL_NAMES):
        cells = "".join(f"{_format_pct(pct[i, j]):>{width}}" for j in range(NUM_CLASSES))
        acc = "" if math.isnan(per_class[i]) else f"  [{_format_pct(100.0 * per_class[i])}]"
        lines.append(f"{name:<{width}}{cells}{acc}")
    return "\n".join(lines) + "\n"


def render_csv(report: EvaluationReport) -> str:
    """Lossless CSV: fixed seven fields per record (RFC 4180)."""
    doc = report.to_dict()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "name"] + list(LABEL_NAMES))

    def meta(name, value):
        writer.writerow(["meta", name, _csv_scalar(value), "", "", "", ""])

    for key, value in doc.items():  # one level flattened, in key order
        if isinstance(value, dict):
            for sub, v in value.items():
                meta(f"{key}.{sub}", v)
        elif key not in ("counts", "per_class"):
            meta(key, value)
    for i, name in enumerate(LABEL_NAMES):
        writer.writerow(["counts", name] + [str(v) for v in doc["counts"][i]])
    writer.writerow(
        ["per_class", "accuracy"]
        + [_csv_scalar(v) for v in doc["per_class"]]
    )
    return buf.getvalue()


def _csv_scalar(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_csv_report(text: str) -> dict:
    """Recover counts, accuracy, per-class rates, and metadata from render_csv."""
    rows = list(csv.reader(io.StringIO(text)))
    counts = [[0] * NUM_CLASSES for _ in range(NUM_CLASSES)]
    meta: dict = {}
    per_class: list = [None] * NUM_CLASSES
    label_index = {name: i for i, name in enumerate(LABEL_NAMES)}
    for row in rows[1:]:
        section, name, values = row[0], row[1], row[2:]
        if section == "counts":
            counts[label_index[name]] = [int(v) for v in values]
        elif section == "per_class":
            per_class = [float(v) if v else None for v in values]
        elif section == "meta":
            meta[name] = values[0]
    return {
        "counts": counts,
        "per_class": per_class,
        "accuracy": float(meta["accuracy"]),
        "meta": meta,
    }


def render_report(report: EvaluationReport, fmt: str) -> str:
    fmt = choose("format", fmt, REPORT_FORMATS)
    if fmt == "text":
        return render_text(report)
    if fmt == "csv":
        return render_csv(report)
    return json.dumps(report.to_dict(), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Grid


def evaluate_grid(
    ds: LabeledDataset,
    classifiers: Sequence[ClassifierSpec],
    split: SplitSpec,
    angle_mode: str = FeatureConfig.angle_mode,
) -> list[EvaluationReport]:
    """Evaluate every (classifier, feature set) cell, a row per classifier spec.

    The dataset is split once, and each feature set gets one fold context
    shared by its cells: one extraction, one standardizer fit and, once an
    SVM cell needs them, one matrix of dot products. So a cell's
    timings_ms["extract"] is about 0, and the first SVM cell of each feature
    set carries the dot products in its timings_ms["train"]. Cells are
    mutually independent; this runs them sequentially so that the whole grid
    is one deterministic pass.
    """
    configs = [FeatureConfig.from_name(f, angle_mode) for f in GRID_FEATURE_SETS]
    train, test = stratified_split(ds, split)
    folds = [fold_context(ds, cfg, train, test) for cfg in configs]
    return [
        evaluate(ds, cfg, spec, split, fold)
        for spec in classifiers
        for cfg, fold in zip(configs, folds)
    ]


def render_grid(reports: list[EvaluationReport], fmt: str = GRID_FORMATS[0]) -> str:
    """Accuracy grid, classifiers down the rows and feature sets across, or
    the JSON list of the reports' documents.

    A cell whose model holds a non-converged binary SVM is marked with *.
    """
    if choose("format", fmt, GRID_FORMATS) == "json":
        return json.dumps([r.to_dict() for r in reports], sort_keys=True) + "\n"
    cells = {
        (r.classifier.name, r.features.name):
            _format_pct(100.0 * r.accuracy) + ("*" if r.nonconverged_machines else "")
        for r in reports
    }
    classifier_names = list(dict.fromkeys(cname for cname, _ in cells))
    feature_names = list(dict.fromkeys(fname for _, fname in cells))
    width = 12
    lines = [
        f"{'classifier':<16}" + "".join(f"{name:>{width}}" for name in feature_names)
    ]
    for cname in classifier_names:
        row = "".join(
            f"{cells.get((cname, fname), '-'):>{width}}" for fname in feature_names
        )
        lines.append(f"{cname:<16}{row}")
    if any(cell.endswith("*") for cell in cells.values()):
        lines.append("* binary SVMs did not converge (KKT violations left)")
    return "\n".join(lines) + "\n"
