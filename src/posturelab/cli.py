"""Command-line entry point: synth, featurize, train, predict, evaluate, grid.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Diagnostics go to stderr; results go to files or stdout. A config file
(--config, JSON) may supply defaults, keyed by any command's value flag
names (paths are command-line only) without the dashes; explicit flags take
precedence, and the POSTURELAB_SEED environment variable supplies the
default seed.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .classifiers import (
    AUTO_SCALE_FACTOR,
    CLASSIFIER_NAMES,
    ClassifierSpec,
    predict_batch,
    train_classifier,
)
from .dataset import (
    ModelFile,
    SynthSpec,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    synth_generate,
)
from .errors import DataError, NonConvergence, NumericError, boolean, choose
from .evaluation import (
    GRID_CLASSIFIERS,
    GRID_FORMATS,
    REPORT_FORMATS,
    STRATIFY_MODES,
    SplitSpec,
    evaluate,
    evaluate_grid,
    render_grid,
    render_report,
)
from .features import FEATURE_SETS, AngleMode, FeatureConfig, extract_matrix
from .skeleton import LABEL_NAMES

SEED_ENV_VAR = "POSTURELAB_SEED"
_FORMATS = {"evaluate": REPORT_FORMATS, "grid": GRID_FORMATS}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, allow_abbrev=False, **kwargs):
        # No prefix matching: a removed flag must not parse as a longer one.
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _integer(value) -> int:
    """int of an integral number or numeral; 2.9, inf, true and null are rejected."""
    if (isinstance(value, bool)
            or isinstance(value, str) and not value.strip().lstrip("+-").isdecimal()
            or isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value} is not an integer")
    return int(value)


def _switch(value) -> bool:
    """A switch: true when its flag is given, else the config's JSON bool."""
    return boolean("a switch", value)


def _parse_list(raw, cast=float) -> tuple:
    """cast of each item of a JSON list, or of a comma-separated string."""
    if isinstance(raw, (list, tuple)):
        return tuple(cast(v) for v in raw)
    if not isinstance(raw, str):
        raise ValueError(f"expected a list or a comma-separated string, got {json.dumps(raw)}")
    return tuple(cast(v.strip()) for v in raw.split(",") if v.strip())


def _shown(value) -> str:
    """A default as help text: a number as %g, a sequence comma-separated."""
    if isinstance(value, tuple):
        return ",".join(map(_shown, value))
    return f"{value:g}" if isinstance(value, float) else str(value)


class _Flag(NamedTuple):
    """A value flag. A flag's string, a config's JSON value and the default
    alike go through cast; the spec that takes the value checks it."""

    what: str  # help text, before the accepted names and the default
    default: object  # where None, a config null is unset too
    cast: Callable = lambda value: value
    one_of: tuple = ()  # accepted names, for help
    per_command: dict | None = None  # each command's accepted names, the first the default
    env: str | None = None  # environment variable that, when set, replaces the default
    shown: str | None = None  # help's default, where the default is no value to show

    def of(self, command: str) -> _Flag:
        """The flag as command takes it."""
        if self.per_command is None:
            return self
        names = self.per_command[command]
        return self._replace(default=names[0], one_of=names)

    def add_to(self, parser: argparse.ArgumentParser, key: str) -> None:
        if self.cast is _switch:  # None when absent, so that the config is consulted
            parser.add_argument(f"--{key}", action="store_const", const=True, help=self.what)
            return
        listed = f": {', '.join(self.one_of)}" if self.one_of else ""
        shown = self.shown or _shown(self.default)
        shown = f"${self.env} or {shown}" if self.env else shown
        parser.add_argument(f"--{key}", help=f"{self.what}{listed} (default {shown})")


# Every value flag, once: its key is the flag without the dashes and its
# config key. A default is the field's of the spec that owns the value; the
# keys stand in the order of the config-key list.
_FLAGS = {
    "seed": _Flag("master seed", 0, _integer, env=SEED_ENV_VAR),
    "per-class": _Flag("records per class", SynthSpec.per_class, _integer),
    "noise": _Flag("joint noise stddev in m", SynthSpec.noise_std_m, float),
    "scale-min": _Flag("smallest participant body scale", SynthSpec.scale_range[0], float),
    "scale-max": _Flag("largest participant body scale", SynthSpec.scale_range[1], float),
    "orientations": _Flag("comma-separated degrees", SynthSpec.orientations_deg, _parse_list),
    "distances": _Flag("comma-separated meters", SynthSpec.distances_m, _parse_list),
    "participants": _Flag("number of participants", SynthSpec.participants, _integer),
    "features": _Flag("feature set", FeatureConfig().name, one_of=FEATURE_SETS),
    "angle-mode": _Flag("angle enumeration", FeatureConfig.angle_mode.value, AngleMode,
                        one_of=AngleMode),
    "classifier": _Flag("classifier", ClassifierSpec.name, one_of=CLASSIFIER_NAMES),
    "c": _Flag("SVM box constraint", ClassifierSpec.c, float),
    "tol": _Flag("SMO KKT tolerance", ClassifierSpec.tol, float),
    "kernel-scale": _Flag("polynomial kernel scale", ClassifierSpec.kernel_scale, float,
                          shown=f"{AUTO_SCALE_FACTOR:g}*sqrt(n_features)"),
    "allow-nonconverged": _Flag("save the model even if SMO left KKT violations", False, _switch),
    "train-fraction": _Flag("train fraction", SplitSpec.train_fraction, float),
    "stratify": _Flag("stratification mode", SplitSpec.stratify_by, one_of=STRATIFY_MODES),
    "resubstitution": _Flag("train and test on the full dataset (oracle mode)",
                            SplitSpec.resubstitution, _switch),
    "format": _Flag("report format", None, per_command=_FORMATS),
    "classifiers": _Flag(f"comma-separated subset of {_shown(CLASSIFIER_NAMES)}",
                         GRID_CLASSIFIERS, lambda raw: _parse_list(raw, str)),
}


@functools.cache  # a build takes about 2 ms; parsing leaves the parser as it was
def _build_parser() -> _Parser:
    """Flag names and help only: a value's default, cast and check are its
    _FLAGS entry's and its spec's, whether a flag or the config gives it. The
    environment and the config file are read per run, by _Resolver."""
    parser = _Parser(prog="posturelab", description=__doc__)
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, what, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=what)
        for flag in flags:
            if isinstance(flag, tuple):  # a path: plain argparse arguments
                p.add_argument(flag[0], **flag[1])
            else:
                _FLAGS[flag].of(command).add_to(p, flag)
    return parser


def _load_config(path: str | None) -> dict:
    """The config file's JSON object. Its keys are the value flags of every
    command, so that one file may serve all; any other key, a path flag's
    too, is a usage error."""
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}") from None
    except json.JSONDecodeError as e:
        raise DataError(f"config file {path}: {e.msg}") from None
    except UnicodeDecodeError:
        raise DataError(f"config file {path}: not UTF-8 text") from None
    if not isinstance(config, dict):
        raise DataError(f"config file {path}: expected a JSON object")
    for key in config:
        _spec(choose, what="config key", value=key, choices=_FLAGS)
    return config


class _Resolver(NamedTuple):
    """Flag value if given, else config-file value, else the builtin default."""

    args: argparse.Namespace
    config: dict

    def get(self, key: str):
        """The cast of the value of flag key, or a usage error naming the key."""
        flag = _FLAGS[key].of(self.args.command)
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None:
            value = self.config.get(key, flag.env and os.environ.get(flag.env) or flag.default)
        try:
            return None if value is None and flag.default is None else flag.cast(value)
        except (TypeError, ValueError, OverflowError) as e:
            raise UsageError(f"{key}: {e}") from None


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _spec(build, **values):
    """build(**values); a value that its check rejects is a usage error."""
    try:
        return build(**values)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e)) from None


def _format(r: _Resolver) -> str:
    return _spec(choose, what="format", value=r.get("format"), choices=_FORMATS[r.args.command])


def _feature_config(r: _Resolver) -> FeatureConfig:
    return _spec(FeatureConfig.from_name, features=r.get("features"),
                 angle_mode=r.get("angle-mode"))


def _classifier_spec(r: _Resolver, name: str | None = None) -> ClassifierSpec:
    """The spec of classifier name, else of the --classifier value."""
    return _spec(ClassifierSpec, name=r.get("classifier") if name is None else name,
                 c=r.get("c"), tol=r.get("tol"), kernel_scale=r.get("kernel-scale"),
                 seed=r.get("seed"))


def _split_spec(r: _Resolver) -> SplitSpec:
    return _spec(SplitSpec, train_fraction=r.get("train-fraction"), seed=r.get("seed"),
                 stratify_by=r.get("stratify"), resubstitution=r.get("resubstitution"))


def _synth_spec(r: _Resolver) -> SynthSpec:
    return _spec(SynthSpec, seed=r.get("seed"), per_class=r.get("per-class"),
                 orientations_deg=r.get("orientations"), distances_m=r.get("distances"),
                 noise_std_m=r.get("noise"), scale_range=(r.get("scale-min"), r.get("scale-max")),
                 participants=r.get("participants"))


def _existing(path: str, what: str) -> str:
    if not Path(path).exists():
        raise DataError(f"{what} file not found: {path}")
    return path


def _cmd_synth(r: _Resolver) -> int:
    spec = _synth_spec(r)
    ds = synth_generate(spec)
    save_dataset(ds, r.args.out, generator=spec.to_dict())
    print(f"wrote {len(ds)} records ({spec.per_class} per class) to {r.args.out} "
          f"[fingerprint {ds.fingerprint}]", file=sys.stderr)
    return 0


def _cmd_featurize(r: _Resolver) -> int:
    cfg = _feature_config(r)
    ds = load_dataset(_existing(r.args.data, "dataset"))
    X, fingerprint = extract_matrix(ds.positions, cfg)
    names = [*LABEL_NAMES, None]  # label -1 (unlabeled) reads the last
    lines = [
        json.dumps({"index": i, "label": names[y], "fingerprint": fingerprint,
                    "values": row}, sort_keys=True)
        for i, (y, row) in enumerate(zip(ds.labels.tolist(), X.tolist()))
    ]
    _write_out(r.args.out, "".join(line + "\n" for line in lines))
    return 0


def _cmd_train(r: _Resolver) -> int:
    cfg, spec = _feature_config(r), _classifier_spec(r)
    allow_nonconverged = r.get("allow-nonconverged")
    ds = load_dataset(_existing(r.args.data, "dataset"))
    X, fingerprint = extract_matrix(ds.positions, cfg)
    model = train_classifier(X, ds.label_indices(), spec, fingerprint)
    bad = model.nonconverged
    if bad:
        if not allow_nonconverged:
            raise NonConvergence(
                f"{bad} of {len(model.machines)} binary SVMs left KKT violations; "
                "re-run with --allow-nonconverged to save anyway"
            )
        print(f"warning: {bad} binary SVMs not converged", file=sys.stderr)
    save_model(ModelFile(model, cfg, ds.fingerprint), r.args.model_out)
    print(f"wrote {spec.name} model to {r.args.model_out}", file=sys.stderr)
    return 0


def _cmd_predict(r: _Resolver) -> int:
    mf = load_model(_existing(r.args.model, "model"))
    ds = load_dataset(_existing(r.args.data, "dataset"))
    X, _ = extract_matrix(ds.positions, mf.feature_config)  # ModelFile checks the fingerprint
    labels = {k: json.dumps(name) for k, name in enumerate(LABEL_NAMES)}
    # the bytes of json.dumps({"index": i, "label": name}, sort_keys=True)
    lines = [
        f'{{"index": {i}, "label": {labels[p]}}}'
        for i, p in enumerate(predict_batch(mf.model, X).tolist())
    ]
    _write_out(r.args.out, "".join(line + "\n" for line in lines))
    return 0


def _cmd_evaluate(r: _Resolver) -> int:
    fmt, cfg, spec, split = _format(r), _feature_config(r), _classifier_spec(r), _split_spec(r)
    report = evaluate(load_dataset(_existing(r.args.data, "dataset")), cfg, spec, split)
    _write_out(r.args.out, render_report(report, fmt))
    return 0


def _grid_specs(r: _Resolver) -> list[ClassifierSpec]:
    """A spec per grid row: --classifiers names the rows, each once; the other
    flags tune each."""
    names = r.get("classifiers")
    if not names:
        raise UsageError("classifiers: no classifier named")
    for i, name in enumerate(names):
        if name in names[:i]:
            raise UsageError(f"classifiers: {name!r} named more than once")
    return [_classifier_spec(r, name) for name in names]


def _cmd_grid(r: _Resolver) -> int:
    fmt, specs, split, mode = _format(r), _grid_specs(r), _split_spec(r), r.get("angle-mode")
    reports = evaluate_grid(load_dataset(_existing(r.args.data, "dataset")), specs, split, mode)
    _write_out(r.args.out, render_grid(reports, fmt))
    return 0


_DATA = ("--data", {"required": True})
_OUT = ("--out", {"default": "-"})
_HYPERPARAMETERS = ("c", "tol", "kernel-scale")
_SPLIT = ("train-fraction", "stratify", "resubstitution")

# Each command: its handler, its help, and its flags in --help order, a value
# flag by its _FLAGS key and a path flag by its plain argparse arguments.
_COMMANDS = {
    "synth": (_cmd_synth, "generate a synthetic dataset", (
        "seed", "per-class", "noise", "scale-min", "scale-max", "orientations", "distances",
        "participants", ("--out", {"required": True, "help": "output dataset path"}))),
    "featurize": (_cmd_featurize, "extract feature vectors to JSON lines", (
        "features", "angle-mode", _DATA,
        ("--out", {"default": "-", "help": "output path or - for stdout"}))),
    "train": (_cmd_train, "fit a classifier on a full dataset", (
        "seed", "features", "angle-mode", "classifier", *_HYPERPARAMETERS, _DATA,
        ("--model-out", {"required": True}), "allow-nonconverged")),
    "predict": (_cmd_predict, "predict labels with a saved model", (
        ("--model", {"required": True}), _DATA, _OUT)),
    "evaluate": (_cmd_evaluate, "split, fit, score, and report", (
        "seed", "features", "angle-mode", "classifier", *_HYPERPARAMETERS, *_SPLIT, _DATA,
        "format", _OUT)),
    "grid": (_cmd_grid, "classifier-by-featureset accuracy grid", (
        "seed", *_HYPERPARAMETERS, *_SPLIT, "angle-mode", "classifiers", "format", _DATA, _OUT)),
}


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](_Resolver(args, _load_config(args.config)))
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # argparse --help
        return 0 if (e.code or 0) == 0 else 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
