"""posturelab benchmark: grid training, batch classification, per-frame latency.

One run:
    python3 perfbench/run.py --workload grid-adjacent --seed 1 --seconds 30 --trace 0

builds its inputs from --seed under perfbench/_work/, sets up, measures
operations for --seconds, checks the outputs and prints one JSON object as
its last stdout line: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; setup_s is the
median of the workload's `setup_samples` cold set-ups, each in a fresh
process, spread over the run. --trace 1 alternates untraced rounds with
rounds that run with span probes installed, and reports the per-layer metrics
plus the tracing overhead. The full record of each run (the environment,
every sample count, the non-converged SVM machines) goes to perfbench/out/.

Many runs, aggregated into one result file (each run in a fresh process):
    python3 perfbench/run.py --suite results.json --seeds 1-10 [--trace 0|1]

Two result files side by side:
    python3 perfbench/run.py --compare before.json after.json

The code under test is the checkout's own src/; without it the run fails.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np
from tracer import LAYERS, Probes, Tracer
from workloads import BATCH_KINDS as KINDS
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_TIMEOUT_S = 120
SPAN_FILE_MAX_OPS = 500
RUN_TIMEOUT_S = 900
THREAD_ENV_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def import_program():
    """Import posturelab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "posturelab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no posturelab sources under {src.name}/ "
                         "next to the benchmark")
    sys.path.insert(0, str(src))
    import posturelab
    import posturelab.cli  # noqa: F401  (not imported by the package itself)

    if src.resolve() not in Path(posturelab.__file__).resolve().parents:
        raise SystemExit("perfbench: posturelab was imported from outside src/")
    return posturelab


# -- environment ---------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _process_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version"),
                "config": blas.get("openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


# -- one run -----------------------------------------------------------------


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else float("nan")


def percentile(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=float), q)) if xs else float("nan")


class Measurement:
    def __init__(self):
        self.units: list[float] = []  # seconds per round
        self.traced: list[bool] = []  # whether each round ran with probes
        self.per_op: defaultdict = defaultdict(list)  # untraced seconds per op label
        self.attempted = 0
        self.failed = 0

    def overhead(self) -> float:
        """Median of traced / preceding untraced round, minus one."""
        pairs = [(a, b) for a, b, ta, tb in zip(self.units, self.units[1:],
                                                  self.traced, self.traced[1:])
                 if tb and not ta]
        return _median([b / a for a, b in pairs]) - 1.0 if pairs else float("nan")


def measure(wl, seconds: float, tracer=None, pause=None) -> Measurement:
    """Run whole rounds until the next one would end past `seconds`.

    Closed loop: an op starts only after the previous one returned. With a
    tracer, rounds alternate untraced and traced, the probes installed for
    the traced ones only, so that both sides sample the same host states.
    `pause(fraction_of_time_used)` runs between rounds and is not measured.
    """
    m = Measurement()
    deadline = time.perf_counter() + seconds
    unit = 0
    while True:
        traced = tracer is not None and unit % 2 == 1
        probes = Probes(tracer) if traced else None
        round_s = 0.0
        try:
            for label, run, after in wl.round():
                if traced:
                    tracer.begin_op(label, unit, True)
                t0 = time.perf_counter()
                try:
                    ok = tracer.span(wl.root_span, run) if traced else run()
                except Exception:  # an op that raises is a failed op, not a crash
                    ok = False
                    if m.failed < 3:
                        traceback.print_exc(file=sys.stderr)
                dt = time.perf_counter() - t0
                m.attempted += 1
                m.failed += not ok
                if not traced:
                    m.per_op[label].append(dt)
                round_s += dt
                after(ok)
        finally:
            if probes is not None:
                probes.remove()
        m.units.append(round_s)
        m.traced.append(traced)
        unit += 1
        if pause is not None:
            t0 = time.perf_counter()
            pause(1.0 - (deadline - t0) / seconds)
            deadline += time.perf_counter() - t0
        # A traced run ends on a traced round, so every untraced round has a pair.
        if time.perf_counter() + round_s > deadline and not (
                tracer is not None and not traced):
            return m


def _file_digests(paths) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def timed_setup(wl) -> tuple[float, dict]:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0, _file_digests(wl.setup_outputs())


class SetupSampler:
    """Times cold set-ups in fresh processes; their files must match the run's.

    The run's own set-up is the first sample. Every sample starts from a fresh
    interpreter, so each one pays the first-call costs of a cold start.
    """

    def __init__(self, args, samples: int, first_s: float, digests: dict):
        self.args = args
        self.samples = samples
        self.times = [first_s]
        self.digests = digests
        self.errors: list[str] = []

    def __call__(self, fraction: float) -> None:
        """Between rounds: take the samples whose share of the time is used."""
        while (len(self.times) < self.samples and not self.errors
               and fraction >= len(self.times) / self.samples):
            self.sample()

    def finish(self) -> list[float]:
        while len(self.times) < self.samples and not self.errors:
            self.sample()
        return self.times

    def sample(self) -> None:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
               self.args.workload, "--seed", str(self.args.seed), "--setup-only"]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, RuntimeError, IndexError,
                json.JSONDecodeError) as e:
            self.errors.append(f"set-up sample {len(self.times)} failed: {e!r}")
            self.times.append(float("nan"))
            return
        self.times.append(out["setup_s"])
        if out["digests"] != self.digests:
            self.errors.append(f"set-up sample {len(self.times) - 1} wrote different files")


def layer_metrics(tracer, wl) -> dict:
    """Per-layer numbers of the traced rounds, each the median over rounds."""
    units, layer_self, name_dur, name_calls, counters = tracer.per_unit()
    idx = {n: i for i, n in enumerate(tracer.names)}

    def med(col) -> float:
        return float(np.median(col)) if len(col) else 0.0

    def dur_ms(name):
        return med(name_dur[:, idx[name]]) * 1e3 if name in idx else 0.0

    def calls(name):
        return med(name_calls[:, idx[name]]) if name in idx else 0.0

    def counter(key):
        return med([c.get(key, 0.0) for c in counters])

    def per_call_us(name):
        d = tracer.durations_of(name)
        return float(d.mean()) * 1e6 if d.size else 0.0

    out = {f"{layer}.self_ms": med(layer_self[:, i]) * 1e3
           for i, layer in enumerate(LAYERS)}
    out["cli.run_ms"] = dur_ms("cli.run")
    synth = tracer.durations_of("dataset.synth", timed_only=False)
    save = tracer.durations_of("dataset.save", timed_only=False)
    out["dataset.synth_ms"] = med(synth) * 1e3
    out["dataset.save_ms"] = med(save) * 1e3
    out["dataset.load_ms"] = dur_ms("dataset.load")
    out["dataset.load_records_per_s"] = med(tracer.samples["dataset.load_records_per_s"])
    for kind in KINDS:
        out[f"dataset.model_load_ms.{kind}"] = med(
            tracer.samples[f"dataset.model_load_ms.{kind}"])
        model = wl.work / f"model-{kind}.json"
        out[f"dataset.model_bytes.{kind}"] = model.stat().st_size if model.exists() else 0
    out["skeleton.validate_calls"] = calls("skeleton.validate")
    out["skeleton.validate_ms"] = dur_ms("skeleton.validate")
    out["features.extract_matrix_calls"] = calls("features.extract_matrix")
    out["features.rows_extracted"] = counter("features.rows_extracted")
    out["features.extract_matrix_ms"] = dur_ms("features.extract_matrix")
    out["features.extract_calls"] = calls("features.extract")
    out["features.extract_us"] = per_call_us("features.extract")
    out["features.fingerprint_calls"] = calls("features.fingerprint")
    out["features.fingerprint_ms"] = dur_ms("features.fingerprint")
    out["evaluation.evaluate_calls"] = calls("evaluation.evaluate")
    out["evaluation.split_ms"] = dur_ms("evaluation.split")
    out["evaluation.confusion_ms"] = dur_ms("evaluation.confusion")
    for kind in wl.pl.classifiers.CLASSIFIER_NAMES:
        out[f"classifiers.train_ms.{kind}"] = dur_ms(f"classifiers.train.{kind}")
        out[f"classifiers.predict_batch_ms.{kind}"] = dur_ms(
            f"classifiers.predict_batch.{kind}")
    out["classifiers.predict_label_calls"] = calls("classifiers.predict_label")
    out["classifiers.predict_label_us"] = per_call_us("classifiers.predict_label")
    smo = tracer.durations_of("svm.smo_train")
    out["svm.smo_train_calls"] = calls("svm.smo_train")
    out["svm.smo_train_ms"] = dur_ms("svm.smo_train")
    out["svm.smo_train_ms_max"] = float(smo.max()) * 1e3 if smo.size else 0.0
    for key in ("svm.passes", "svm.support_vectors", "svm.kkt_violations",
                "svm.nonconverged"):
        out[key] = counter(key)
    out["svm.decision_calls"] = calls("svm.decision")
    out["svm.decision_ms"] = dur_ms("svm.decision")
    out["kernels.gram_calls"] = calls("kernels.gram")
    out["kernels.gram_ms"] = dur_ms("kernels.gram")
    out["kernels.gram_flops"] = counter("kernels.gram_flops")
    out["kernels.gram_bytes"] = counter("kernels.gram_bytes")
    out["trace.spans_per_round"] = med(name_calls.sum(axis=1))
    out["trace.rounds"] = len(units)
    return out


def run_once(args) -> int:
    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    pl = import_program()
    work = BENCH_DIR / "_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.setup_only:  # one cold set-up sample of an untraced run
            setup_s, digests = timed_setup(WORKLOADS[args.workload](pl, work, args.seed))
            print(json.dumps({"setup_s": setup_s, "digests": digests}))
            return 0
        return _run_in(pl, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(pl, work: Path, args) -> int:
    wl = WORKLOADS[args.workload](pl, work, args.seed)
    spec = {m["name"]: m["unit"]
            for m in load_benchmark()["per_layer" if args.trace else "end_to_end"]}
    tracer = None
    if not args.trace:
        setup_s, digests = timed_setup(wl)
        sampler = SetupSampler(args, wl.setup_samples, setup_s, digests)
        m = measure(wl, args.seconds, pause=sampler)
        setup_times = sampler.finish()
        errors = sampler.errors
        values = {
            "setup_s": _median(setup_times),
            "op_ms_p90": percentile(m.units, 90) * 1e3,
            "accuracy": wl.accuracy(),
        }
    else:
        tracer = Tracer()
        probes = Probes(tracer)
        tracer.begin_op("setup", -1, False)
        try:
            setup_s, _ = timed_setup(wl)
        finally:
            probes.remove()
        setup_times, errors = [setup_s], []
        m = measure(wl, args.seconds, tracer)
        values = layer_metrics(tracer, wl)
        values["trace.overhead_pct"] = m.overhead() * 100.0
        for kind in KINDS:
            t = m.per_op.get(kind, [])
            values[f"classify_rps.{kind}"] = wl.records / _median(t) if t else 0.0
    attempted, failed = m.attempted, m.failed
    metrics = {k: (v, spec.get(k)) for k, v in values.items()}
    errors += wl.check()
    if set(metrics) != set(spec):
        errors.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(spec))}")
    correct = not errors and failed == 0
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    env = environment()
    env["process_threads"] = _process_threads()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setup_s_samples": setup_times, "rounds": len(m.units),
        "round_ms_p50": _median([u for u, t in zip(m.units, m.traced) if not t]) * 1e3,
        "ops_per_label": {k: len(v) for k, v in m.per_op.items()},
        "op_ms_p50_per_label": {k: _median(v) * 1e3 for k, v in m.per_op.items()},
        "errors": errors,
    }
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    if tracer is not None:
        record["nonconverged_machines"] = _nonconverged_machines(tracer)
        record["round_ms_p50_traced"] = _median(
            [u for u, t in zip(m.units, m.traced) if t]) * 1e3
        spans = out_dir / f"{args.workload}_s{args.seed}.spans.jsonl"
        record["spans_written"] = tracer.write(spans, SPAN_FILE_MAX_OPS)
        for mc in record["nonconverged_machines"]:
            print(f"perfbench: non-converged SVM machine: cell {mc['cell']} "
                  f"pair {tuple(mc['pair'])} ({mc['kkt_violations']} KKT "
                  f"violations after {mc['passes']} passes)", file=sys.stderr)
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    path = out_dir / f"{args.workload}_s{args.seed}_t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"environment": env, "rounds": len(m.units),
                      "ops": m.attempted, "record": str(path.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0 if correct else 1


def _nonconverged_machines(tracer) -> list[dict]:
    """Each non-converged (cell, pair) once; every grid op trains the same ones."""
    seen, out = set(), []
    for mc in tracer.samples["nonconverged"]:
        key = (mc["cell"], tuple(mc["pair"]))
        if key not in seen:
            seen.add(key)
            out.append(mc)
    return out


# -- suites and comparison ---------------------------------------------------


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def run_suite(args) -> int:
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    seeds = _parse_seeds(args.seeds)
    runs, failures = defaultdict(list), []
    for seed in seeds:
        for name in workloads:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            wall = time.perf_counter() - t0
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if proc.returncode != 0 or result is None or not result["correct"]:
                failures.append({"workload": name, "seed": seed,
                                 "returncode": proc.returncode,
                                 "stderr": proc.stderr[-2000:]})
            if result is not None:
                runs[name].append({"seed": seed, "wall_s": wall, **result})
            print(f"{name} seed={seed} rc={proc.returncode} wall={wall:.1f}s "
                  + (" ".join(f"{k}={v['value']:.6g}" for k, v in
                              result["metrics"].items()) if result and not args.trace
                     else ""), file=sys.stderr, flush=True)
    doc = {
        "environment": environment(),
        "benchmark": bench, "seconds": seconds, "trace": args.trace,
        "seeds": seeds, "failures": failures,
        "workloads": {},
    }
    for name, rs in runs.items():
        metrics = {}
        for key in rs[0]["metrics"]:
            vals = [r["metrics"][key]["value"] for r in rs if key in r["metrics"]]
            metrics[key] = {"unit": rs[0]["metrics"][key]["unit"], **summarize(vals)}
        doc["workloads"][name] = {
            "runs": [{k: r[k] for k in ("seed", "wall_s", "correct", "attempted", "failed")}
                     for r in rs],
            "metrics": metrics,
        }
    Path(args.suite).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print_table(doc, bench)
    return 0 if not failures else 1


def print_table(doc, bench) -> None:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, w in doc["workloads"].items():
        for key, s in w["metrics"].items():
            bound = bounds.get(key)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  spread > bound/3"
            print(f"{name:16} {key:36} median={s['median']:.6g} {s['unit']:10} "
                  f"spread={s['spread']:.4f}"
                  + (f" bound={bound}" if bound is not None else "") + flag)


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    specs = {m["name"]: m for m in a["benchmark"]["end_to_end"] + a["benchmark"]["per_layer"]}
    print(f"A: {path_a} (commit {a['environment']['git_commit'][:12]}, "
          f"source {a['environment']['source_digest']})")
    print(f"B: {path_b} (commit {b['environment']['git_commit'][:12]}, "
          f"source {b['environment']['source_digest']})")
    print(f"{'workload':16} {'metric':40} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B/A':>8}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        for key, sa in wa["metrics"].items():
            sb = wb["metrics"].get(key)
            if sb is None:
                continue
            spec = specs.get(key, {})
            ratio = sb["median"] / sa["median"] if sa["median"] else float("nan")
            print(f"{name:16} {key:40} "
                  f"{_fmt(sa):>34} {_fmt(sb):>34} {ratio:8.4f}  {_verdict(spec, sa, sb)}")
    return 0


def _fmt(s) -> str:
    return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"


def _verdict(spec, sa, sb) -> str:
    bound = spec.get("bound")
    if bound is None:
        return ""
    if max(sa["spread"], sb["spread"]) > bound:
        lower = spec["better"] == "lower"
        if (max(sb["values"]) < min(sa["values"])) if lower else (
                min(sb["values"]) > max(sa["values"])):
            return "better (every run)"
        return "unresolved (spread > bound)"
    change = sb["median"] / sa["median"] - 1.0
    worse = change if spec["better"] == "lower" else -change
    if worse > bound:
        return f"worse by {worse:.1%} (> bound {bound:.0%})"
    return "within bound" if worse >= -bound else f"better by {-worse:.1%}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--suite", metavar="OUT_JSON")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold set-up of --workload (used by runs)")
    p.add_argument("--compare", nargs=2, metavar=("A_JSON", "B_JSON"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.suite:
        return run_suite(args)
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
