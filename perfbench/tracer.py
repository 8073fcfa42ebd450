"""In-memory span tracer, installed from the outside around posturelab calls.

Each probe replaces the attribute that a caller looks up (for example
``posturelab.evaluation.extract_matrix`` or ``KernelSpec.gram``) with a
wrapper that records one span: name, start, end, parent span and operation
id. Spans live in flat arrays while the benchmark runs and are written out at
the end. A span's self time is its duration minus the durations of its
children; the program is single-threaded, so children never overlap.

Nothing in ``src/`` is edited: uninstalling restores every original.
"""
from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = (
    "bench", "cli", "dataset", "skeleton", "features",
    "evaluation", "classifiers", "svm", "kernels",
)


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        # One entry per operation: (label, unit, timed). A unit groups the
        # operations whose latency is reported together (one grid op, one
        # round of four predict calls, one frame).
        self.ops: list[tuple[str, int, bool]] = []
        self.counts: list[defaultdict] = []
        self.samples: defaultdict = defaultdict(list)
        self.context: dict = {}

    def begin_op(self, label: str, unit: int, timed: bool) -> None:
        self.ops.append((label, unit, timed))
        self.counts.append(defaultdict(float))

    def open(self) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.ops) - 1)
        self.name.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str) -> float:
        t = time.perf_counter()
        self._stack.pop()
        self.end[idx] = t
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name[idx] = nid
        return t - self.start[idx]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[-1][key] += value

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside one span; used for the benchmark's own roots."""
        idx = self.open()
        try:
            return fn(*args)
        finally:
            self.close(idx, name)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child_sum = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        return dur, dur - child_sum

    def per_unit(self):
        """Per timed unit: self time per layer, duration and calls per name.

        Returns (units, layer_self[unit, layer], name_dur[unit, name],
        name_calls[unit, name], counters[unit] as dicts).
        """
        dur, self_time = self.arrays()
        op_ids = np.frombuffer(self.op, dtype=np.int32)
        name_ids = np.frombuffer(self.name, dtype=np.int32)
        timed_units = sorted({u for _, u, timed in self.ops if timed})
        unit_pos = {u: i for i, u in enumerate(timed_units)}
        op_unit = np.array(
            [unit_pos[u] if timed else -1 for _, u, timed in self.ops] + [-1],
            dtype=np.int64,
        )
        span_unit = op_unit[op_ids]  # op id -1 (outside any op) maps to -1
        keep = span_unit >= 0
        n_units, n_names = len(timed_units), len(self.names)
        layer_of_name = np.array(
            [LAYERS.index(n.split(".")[0]) for n in self.names], dtype=np.int64
        )
        u, nm = span_unit[keep], name_ids[keep]
        shape = (n_units, n_names)
        name_dur = np.bincount(u * n_names + nm, weights=dur[keep],
                               minlength=n_units * n_names).reshape(shape)
        name_calls = np.bincount(u * n_names + nm,
                                 minlength=n_units * n_names).reshape(shape)
        n_layers = len(LAYERS)
        layer_self = np.bincount(
            u * n_layers + layer_of_name[nm], weights=self_time[keep],
            minlength=n_units * n_layers,
        ).reshape(n_units, n_layers)
        counters = [defaultdict(float) for _ in timed_units]
        for (_, unit, timed), c in zip(self.ops, self.counts):
            if timed:
                for k, v in c.items():
                    counters[unit_pos[unit]][k] += v
        return timed_units, layer_self, name_dur, name_calls, counters

    def durations_of(self, name: str, timed_only: bool = True) -> np.ndarray:
        nid = self._name_ids.get(name)
        if nid is None:
            return np.empty(0)
        dur, _ = self.arrays()
        mask = np.frombuffer(self.name, dtype=np.int32) == nid
        if timed_only:
            timed = np.array([t for _, _, t in self.ops] + [False])
            mask &= timed[np.frombuffer(self.op, dtype=np.int32)]
        return dur[mask]

    def write(self, path, max_ops: int) -> int:
        """Write spans of the first max_ops operations as JSON lines."""
        _, self_time = self.arrays()
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                op = self.op[i]
                if op >= max_ops:
                    continue
                label = self.ops[op][0] if op >= 0 else None
                fh.write(json.dumps({
                    "span": i, "name": self.names[self.name[i]],
                    "start": self.start[i], "end": self.end[i],
                    "self_s": float(self_time[i]), "parent": self.parent[i],
                    "op": op, "op_label": label,
                }) + "\n")
                written += 1
        return written


# -- probes -----------------------------------------------------------------


def _kind_of_model(model) -> str:
    kind = type(model).kind
    if kind != "ovo_svm":
        return kind
    kernel = model.machines[0].kernel
    if kernel.kind == "linear":
        return "svm_linear"
    return {2: "svm_quadratic", 3: "svm_cubic"}[kernel.degree]


def _rows(x) -> int:
    return 1 if x.ndim == 1 else int(x.shape[0])


def _gram_before(tr, args, kwargs):
    kernel, X, Y = args[0], np.asarray(args[1]), np.asarray(args[2])
    n, m, d = _rows(X), _rows(Y), int(X.shape[-1])
    # Computed from shapes, not measured: one multiply-add per (i, j, k) of
    # the dot products plus scale, add and power per entry for polynomials.
    tr.count("kernels.gram_flops", 2 * n * m * d + (3 * n * m if kernel.kind == "poly" else 0))
    tr.count("kernels.gram_bytes", 8 * (n * d + m * d + n * m))


def _evaluate_before(tr, args, kwargs):
    tr.context["cell"] = f"{args[2].name}/{args[1].name}"


def _smo_after(tr, args, kwargs, out, dur):
    tr.count("svm.passes", out.n_passes)
    tr.count("svm.support_vectors", out.support_vectors.shape[0])
    tr.count("svm.kkt_violations", out.kkt_violations)
    tr.count("svm.nonconverged", 0 if out.converged else 1)


def _ovo_after(tr, args, kwargs, out, dur):
    if not (tr.ops and tr.ops[-1][2]):
        return  # the set-up's warm-up grid trains on 40 records; not listed
    for pair, machine in zip(out.pairs, out.machines):
        if not machine.converged:
            tr.samples["nonconverged"].append({
                "cell": tr.context.get("cell"), "pair": list(pair),
                "kkt_violations": machine.kkt_violations,
                "passes": machine.n_passes,
            })


def _load_after(tr, args, kwargs, out, dur):
    tr.samples["dataset.load_records_per_s"].append(len(out) / dur)


def _model_load_after(tr, args, kwargs, out, dur):
    tr.samples[f"dataset.model_load_ms.{_kind_of_model(out.model)}"].append(dur * 1e3)


def _extract_matrix_after(tr, args, kwargs, out, dur):
    tr.count("features.rows_extracted", len(args[0]))


def _probe_table():
    import posturelab.classifiers as cl
    import posturelab.cli as cli
    import posturelab.dataset as dsm
    import posturelab.evaluation as ev
    import posturelab.features as ft
    from posturelab.kernels import KernelSpec

    train_name = lambda a, k, out: f"classifiers.train.{a[2].name}"  # noqa: E731
    predict_name = lambda a, k, out: f"classifiers.predict_batch.{_kind_of_model(a[0])}"  # noqa: E731
    model_load_name = lambda a, k, out: f"dataset.load_model.{_kind_of_model(out.model)}"  # noqa: E731
    table = []
    for owner in (cli, ev):
        table += [
            (owner, "extract_matrix", "features.extract_matrix", None, _extract_matrix_after),
            (owner, "train_classifier", train_name, None, None),
            (owner, "predict_batch", predict_name, None, None),
        ]
    table += [
        (cli, "load_dataset", "dataset.load", None, _load_after),
        (dsm, "load_dataset", "dataset.load", None, _load_after),
        (cli, "load_model", model_load_name, None, _model_load_after),
        (dsm, "load_model", model_load_name, None, _model_load_after),
        (cli, "save_model", "dataset.save_model", None, None),
        (cli, "save_dataset", "dataset.save", None, None),
        (cli, "synth_generate", "dataset.synth", None, None),
        (cli, "evaluate_grid", "evaluation.grid", None, None),
        (ev, "evaluate", "evaluation.evaluate", _evaluate_before, None),
        (ev, "stratified_split", "evaluation.split", None, None),
        (ev, "confusion_matrix", "evaluation.confusion", None, None),
        (dsm, "validate_skeleton", "skeleton.validate", None, None),
        (ft, "extract", "features.extract", None, None),
        (ft, "config_fingerprint", "features.fingerprint", None, None),
        (cl, "ovo_train", "classifiers.ovo_train", None, _ovo_after),
        (cl, "smo_train", "svm.smo_train", None, _smo_after),
        (cl, "decision_function", "svm.decision", None, None),
        (cl, "predict_label", "classifiers.predict_label", None, None),
        (KernelSpec, "gram", "kernels.gram", _gram_before, None),
    ]
    return table


def _wrap(tr: Tracer, fn, name, before, after):
    def traced(*args, **kwargs):
        if before is not None:
            before(tr, args, kwargs)
        idx = tr.open()
        out = None
        try:
            out = fn(*args, **kwargs)
        finally:
            label = name if isinstance(name, str) else (
                name(args, kwargs, out) if out is not None else "bench.error")
            dur = tr.close(idx, label)
        if after is not None:
            after(tr, args, kwargs, out, dur)
        return out

    return traced


class Probes:
    """Installs the probes of one tracer; ``remove`` restores the originals."""

    def __init__(self, tr: Tracer):
        self._saved = []
        for owner, attr, name, before, after in _probe_table():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tr, original, name, before, after))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
