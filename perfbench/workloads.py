"""The three workloads: how posturelab's users drive it, from one process.

Each workload writes its inputs from the workload seed (the program only sees
the generated files), sets up, and hands the measuring loop one *round* of
operations at a time. A round is the unit whose latency is reported: one grid
op, one predict call for each of the four saved models, or one frame.

Every operation returns True on success; its ``after`` hook runs outside the
timed region and keeps what the output checks need.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PROTOCOL_PER_CLASS = 208  # the paper's protocol: 5 x 208 = 1040 records
HELDOUT_PER_CLASS = 400  # 2000 held-out records for the classify workloads
HELDOUT_SEED_OFFSET = 1_000_003
WARMUP_SEED_OFFSET = 2_000_003
BATCH_KINDS = ("lda", "qda", "knn1", "svm_quadratic")
FRAME_KIND = "svm_quadratic"
GATE_CELL = ("svm_quadratic", "combined")
GATE_ACCURACY = 0.90  # the acceptance suite's paper gate for this cell


class Workload:
    name = ""
    root_span = "cli.run"
    setup_samples = 3  # cold set-ups timed per untraced run; setup_s is their median

    def __init__(self, pl, work: Path, seed: int):
        self.pl = pl  # the posturelab package under test
        self.work = work
        self.seed = seed
        self.errors: list[str] = []

    def cli(self, *argv) -> None:
        """A set-up step through the command line; set-up fails loudly."""
        rc = self.pl.cli.run([str(a) for a in argv])
        if rc != 0:
            raise RuntimeError(f"posturelab {argv[0]} exited {rc} during set-up")

    def synth(self, path: Path, seed: int, per_class: int) -> None:
        self.cli("synth", "--seed", seed, "--per-class", per_class, "--out", path)

    def train(self, data: Path, kind: str, out: Path) -> None:
        self.cli("train", "--data", data, "--classifier", kind,
                 "--features", "combined", "--seed", self.seed,
                 "--allow-nonconverged", "--model-out", out)

    def setup_outputs(self) -> list[Path]:
        """Set-up outputs whose bytes must repeat across set-up repetitions."""
        return []


class GridAdjacent(Workload):
    """`posturelab grid --format json` on the 1040-record protocol dataset."""

    name = "grid-adjacent"
    # This set-up lasts about a second, and single samples ranged over a factor
    # of two on a 2-vCPU VM; nine give a steady median within a run.
    setup_samples = 9

    def __init__(self, pl, work, seed):
        super().__init__(pl, work, seed)
        self.data = work / "protocol.jsonl"
        self.out = work / "grid.json"
        self.reference: str | None = None
        self.cells: dict | None = None
        self._round = [("grid", self._grid, self._after)]

    def setup(self) -> None:
        self.synth(self.data, self.seed, PROTOCOL_PER_CLASS)
        n = len(self.pl.dataset.load_dataset(self.data))
        if n != 5 * PROTOCOL_PER_CLASS:
            raise RuntimeError(f"protocol dataset has {n} records")
        # Warm-up: one small grid touches every first-call path (BLAS, LAPACK,
        # every classifier) so that it is paid here and not in the timed ops.
        tiny = self.work / "warmup.jsonl"
        self.synth(tiny, self.seed + WARMUP_SEED_OFFSET, 8)
        self.cli("grid", "--data", tiny, "--seed", self.seed, "--format", "json",
                 "--out", self.work / "warmup-grid.json")

    def setup_outputs(self):
        return [self.data]

    def round(self):
        return self._round

    def _grid(self) -> bool:
        return self.pl.cli.run([
            "grid", "--data", str(self.data), "--seed", str(self.seed),
            "--format", "json", "--out", str(self.out),
        ]) == 0

    def _after(self, ok: bool) -> None:
        if not ok:
            return
        docs = json.loads(self.out.read_text(encoding="utf-8"))
        for d in docs:
            d.pop("timings_ms", None)
        canonical = json.dumps(docs, sort_keys=True)
        if self.reference is None:
            self.reference = canonical
            self.cells = {
                (d["classifier"]["name"], d["features"]["set"]): d["accuracy"]
                for d in docs
            }
        elif canonical != self.reference:
            self.errors.append("grid JSON without timings differs between repeats")

    def check(self) -> list[str]:
        errors = list(self.errors)
        if self.cells is None:
            return errors + ["no grid op succeeded"]
        if len(self.cells) != 15:
            errors.append(f"grid has {len(self.cells)} cells, expected 15")
        gate = self.cells.get(GATE_CELL, 0.0)
        if gate < GATE_ACCURACY:
            errors.append(f"{'/'.join(GATE_CELL)} accuracy {gate} < {GATE_ACCURACY}")
        return errors

    def accuracy(self) -> float:
        return float(np.mean(list(self.cells.values()))) if self.cells else float("nan")


class ClassifyBatch(Workload):
    """`posturelab predict` with each of four saved models on a held-out file."""

    name = "classify-batch"

    def __init__(self, pl, work, seed):
        super().__init__(pl, work, seed)
        self.data = work / "protocol.jsonl"
        self.heldout = work / "heldout.jsonl"
        self.models = {k: work / f"model-{k}.json" for k in BATCH_KINDS}
        self.outs = {k: work / f"pred-{k}.jsonl" for k in BATCH_KINDS}
        self.truth: np.ndarray | None = None
        self.reference: dict[str, bytes] = {}
        self.correct: dict[str, int] = {}
        self._round = [(k, self._predictor(k), self._after(k)) for k in BATCH_KINDS]

    def setup(self) -> None:
        self.synth(self.data, self.seed, PROTOCOL_PER_CLASS)
        self.synth(self.heldout, self.seed + HELDOUT_SEED_OFFSET, HELDOUT_PER_CLASS)
        for kind, path in self.models.items():
            self.train(self.data, kind, path)
        self.truth = self.pl.dataset.load_dataset(self.heldout).label_indices()
        tiny = self.work / "warmup.jsonl"
        self.synth(tiny, self.seed + WARMUP_SEED_OFFSET, 4)
        for kind, path in self.models.items():
            self.cli("predict", "--model", path, "--data", tiny,
                     "--out", self.work / f"warmup-{kind}.jsonl")

    def setup_outputs(self):
        return [self.data, self.heldout, *self.models.values()]

    @property
    def records(self) -> int:
        return int(self.truth.shape[0])

    def round(self):
        return self._round

    def _predictor(self, kind: str):
        argv = ["predict", "--model", str(self.models[kind]),
                "--data", str(self.heldout), "--out", str(self.outs[kind])]
        return lambda: self.pl.cli.run(argv) == 0

    def _after(self, kind: str):
        def after(ok: bool) -> None:
            if not ok:
                return
            raw = self.outs[kind].read_bytes()
            first = self.reference.setdefault(kind, raw)
            if raw != first:
                self.errors.append(f"{kind}: predict output differs between repeats")
            elif kind not in self.correct:
                labels = [json.loads(line)["label"] for line in raw.decode().splitlines()]
                pred = np.array([int(self.pl.PostureLabel[n]) for n in labels])
                if pred.shape != self.truth.shape:
                    self.errors.append(f"{kind}: {pred.shape[0]} predictions "
                                       f"for {self.records} records")
                else:
                    self.correct[kind] = int(np.count_nonzero(pred == self.truth))
        return after

    def check(self) -> list[str]:
        missing = [k for k in BATCH_KINDS if k not in self.correct]
        return self.errors + [f"{k}: no predict op succeeded" for k in missing]

    def accuracy(self) -> float:
        if len(self.correct) != len(BATCH_KINDS):
            return float("nan")
        return sum(self.correct.values()) / (len(BATCH_KINDS) * self.records)


class ClassifyFrame(Workload):
    """Closed loop, one client: extract + predict_label per held-out skeleton."""

    name = "classify-frame"
    root_span = "bench.frame"

    def __init__(self, pl, work, seed):
        super().__init__(pl, work, seed)
        self.data = work / "protocol.jsonl"
        self.heldout = work / "heldout.jsonl"
        self.model_path = work / f"model-{FRAME_KIND}.json"
        self.next = 0
        self._round = [("frame", self._frame, self._after)]

    def setup(self) -> None:
        self.synth(self.data, self.seed, PROTOCOL_PER_CLASS)
        self.train(self.data, FRAME_KIND, self.model_path)
        mf = self.pl.dataset.load_model(self.model_path)
        self.model, self.cfg = mf.model, mf.feature_config
        self.synth(self.heldout, self.seed + HELDOUT_SEED_OFFSET, HELDOUT_PER_CLASS)
        ds = self.pl.dataset.load_dataset(self.heldout)
        self.skeletons = ds.skeletons()
        self.truth = ds.label_indices()
        self.labels = np.full(len(self.skeletons), -1, dtype=np.int64)
        self.mismatch = 0
        for skel in self.skeletons[:50]:  # warm-up
            self.pl.classifiers.predict_label(
                self.model, self.pl.features.extract(skel, self.cfg))

    def setup_outputs(self):
        return [self.data, self.heldout, self.model_path]

    def round(self):
        return self._round

    def _frame(self) -> bool:
        skel = self.skeletons[self.next % len(self.skeletons)]
        # Module attributes are looked up per call so that traced runs see
        # the probes installed on them.
        fv = self.pl.features.extract(skel, self.cfg)
        self._last = int(self.pl.classifiers.predict_label(self.model, fv))
        return True

    def _after(self, ok: bool) -> None:
        i = self.next % len(self.skeletons)
        self.next += 1
        if not ok:
            return
        if self.labels[i] < 0:
            self.labels[i] = self._last
        elif self.labels[i] != self._last:
            self.mismatch += 1

    def check(self) -> list[str]:
        errors = list(self.errors)
        if self.mismatch:
            errors.append(f"{self.mismatch} frames changed label between passes")
        seen = self.labels >= 0
        if not seen.any():
            return errors + ["no frame succeeded"]
        X, _ = self.pl.features.extract_matrix(self.skeletons, self.cfg)
        batch = self.pl.classifiers.predict_batch(self.model, X)
        differ = int(np.count_nonzero(batch[seen] != self.labels[seen]))
        if differ:
            errors.append(f"{differ} per-frame labels differ from predict_batch")
        return errors

    def accuracy(self) -> float:
        seen = self.labels >= 0
        return float(np.mean(self.labels[seen] == self.truth[seen]))


WORKLOADS = {w.name: w for w in (GridAdjacent, ClassifyBatch, ClassifyFrame)}
