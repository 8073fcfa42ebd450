"""Command-line entry point: synth, featurize, train, predict, evaluate, grid.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Diagnostics go to stderr; results go to files or stdout. A config file
(--config, JSON) may supply defaults, keyed by any command's flag names
without the dashes; explicit flags take precedence, and the POSTURELAB_SEED
environment variable supplies the default seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

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


def _shown(value) -> str:
    """A default as help text: a number as %g, a sequence comma-separated."""
    if isinstance(value, tuple):
        return ",".join(map(_shown, value))
    return f"{value:g}" if isinstance(value, float) else str(value)


def _build_parser() -> _Parser:
    """Flag names and help only: the spec that a command builds from a value
    owns its default, cast and check, whether a flag or the config gives it."""
    parser = _Parser(prog="posturelab", description=__doc__)
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(p, flag, what, default, one_of=()):
        listed = f": {', '.join(one_of)}" if one_of else ""
        p.add_argument(flag, help=f"{what}{listed} (default {_shown(default)})")

    def add_switch(p, flag, what):
        # None when absent, so that the config is consulted
        p.add_argument(flag, action="store_const", const=True, help=what)

    def add_seed(p):
        add(p, "--seed", "master seed", f"${SEED_ENV_VAR} or 0")

    def add_angle_mode(p):
        add(p, "--angle-mode", "angle enumeration", FeatureConfig.angle_mode.value, AngleMode)

    def add_features(p):
        add(p, "--features", "feature set", FeatureConfig().name, FEATURE_SETS)
        add_angle_mode(p)

    def add_hyperparameters(p):
        add(p, "--c", "SVM box constraint", ClassifierSpec.c)
        add(p, "--tol", "SMO KKT tolerance", ClassifierSpec.tol)
        auto = f"{AUTO_SCALE_FACTOR:g}*sqrt(n_features)"
        add(p, "--kernel-scale", "polynomial kernel scale", auto)

    def add_classifier(p):
        add(p, "--classifier", "classifier", ClassifierSpec.name, CLASSIFIER_NAMES)
        add_hyperparameters(p)

    def add_split(p):
        add(p, "--train-fraction", "train fraction", SplitSpec.train_fraction)
        add(p, "--stratify", "stratification mode", SplitSpec.stratify_by, STRATIFY_MODES)
        add_switch(p, "--resubstitution", "train and test on the full dataset (oracle mode)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_seed(p)
    add(p, "--per-class", "records per class", SynthSpec.per_class)
    add(p, "--noise", "joint noise stddev in m", SynthSpec.noise_std_m)
    add(p, "--scale-min", "smallest participant body scale", SynthSpec.scale_range[0])
    add(p, "--scale-max", "largest participant body scale", SynthSpec.scale_range[1])
    add(p, "--orientations", "comma-separated degrees", SynthSpec.orientations_deg)
    add(p, "--distances", "comma-separated meters", SynthSpec.distances_m)
    add(p, "--participants", "number of participants", SynthSpec.participants)
    p.add_argument("--out", required=True, help="output dataset path")

    p = sub.add_parser("featurize", help="extract feature vectors to JSON lines")
    add_features(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="-", help="output path or - for stdout")

    p = sub.add_parser("train", help="fit a classifier on a full dataset")
    add_seed(p)
    add_features(p)
    add_classifier(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model-out", required=True)
    add_switch(p, "--allow-nonconverged", "save the model even if SMO left KKT violations")

    p = sub.add_parser("predict", help="predict labels with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("evaluate", help="split, fit, score, and report")
    add_seed(p)
    add_features(p)
    add_classifier(p)
    add_split(p)
    p.add_argument("--data", required=True)
    add(p, "--format", "report format", _FORMATS["evaluate"][0], _FORMATS["evaluate"])
    p.add_argument("--out", default="-")

    p = sub.add_parser("grid", help="classifier-by-featureset accuracy grid")
    add_seed(p)
    add_hyperparameters(p)
    add_split(p)
    add_angle_mode(p)
    add(p, "--classifiers", f"comma-separated subset of {_shown(CLASSIFIER_NAMES)}",
        GRID_CLASSIFIERS)
    add(p, "--format", "report format", _FORMATS["grid"][0], _FORMATS["grid"])
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="-")
    return parser


def _config_keys(parser: argparse.ArgumentParser) -> tuple[str, ...]:
    """The flags of every command, without dashes: one config file may serve
    all the commands, each reading the keys of its own flags."""
    (commands,) = [action.choices for action in parser._actions if action.dest == "command"]
    return tuple(dict.fromkeys(
        flag.lstrip("-") for command in commands.values() for action in command._actions
        if action.dest != "help" for flag in action.option_strings
    ))


def _load_config(path: str | None, parser: argparse.ArgumentParser) -> dict:
    """The config file's JSON object; a key that is no command's flag is a usage error."""
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
    keys = _config_keys(parser)
    for key in config:
        _spec(choose, what="config key", value=key, choices=keys)
    return config


class _Resolver:
    """Flag value if given, else config-file value, else the builtin default."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config

    def get(self, key: str, default, cast=lambda value: value):
        """cast of a flag's string or a config's JSON value alike, or a usage
        error naming the key; where the default is None, a null is unset."""
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None:
            value = self.config.get(key, default)
        try:
            return None if value is None and default is None else cast(value)
        except (TypeError, ValueError, OverflowError) as e:
            raise UsageError(f"{key}: {e}") from None

    def seed(self) -> int:
        return self.get("seed", os.environ.get(SEED_ENV_VAR) or 0, _integer)


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


def _write_out(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _parse_list(raw, cast=float) -> tuple:
    """cast of each item of a JSON list, or of a comma-separated string."""
    if isinstance(raw, (list, tuple)):
        return tuple(cast(v) for v in raw)
    return tuple(cast(v.strip()) for v in str(raw).split(",") if v.strip())


def _spec(build, **values):
    """build(**values); a value that its check rejects is a usage error."""
    try:
        return build(**values)
    except (TypeError, ValueError) as e:
        raise UsageError(str(e)) from None


def _format(r: _Resolver) -> str:
    choices = _FORMATS[r.args.command]
    return _spec(choose, what="format", value=r.get("format", choices[0]), choices=choices)


def _angle_mode(r: _Resolver) -> AngleMode:
    return r.get("angle-mode", FeatureConfig.angle_mode, AngleMode)


def _feature_config(r: _Resolver) -> FeatureConfig:
    return _spec(FeatureConfig.from_name, features=r.get("features", FeatureConfig().name),
                 angle_mode=_angle_mode(r))


def _classifier_spec(r: _Resolver, name: str | None = None) -> ClassifierSpec:
    """The spec of classifier name, else of the --classifier value."""
    return _spec(
        ClassifierSpec,
        name=r.get("classifier", ClassifierSpec.name) if name is None else name,
        c=r.get("c", ClassifierSpec.c, float),
        tol=r.get("tol", ClassifierSpec.tol, float),
        kernel_scale=r.get("kernel-scale", ClassifierSpec.kernel_scale, float),
        seed=r.seed(),
    )


def _split_spec(r: _Resolver) -> SplitSpec:
    return _spec(
        SplitSpec,
        train_fraction=r.get("train-fraction", SplitSpec.train_fraction, float),
        seed=r.seed(),
        stratify_by=r.get("stratify", SplitSpec.stratify_by),
        resubstitution=r.get("resubstitution", SplitSpec.resubstitution, _switch),
    )


def _synth_spec(r: _Resolver) -> SynthSpec:
    lo, hi = SynthSpec.scale_range
    return _spec(
        SynthSpec,
        seed=r.seed(),
        per_class=r.get("per-class", SynthSpec.per_class, _integer),
        orientations_deg=r.get("orientations", SynthSpec.orientations_deg, _parse_list),
        distances_m=r.get("distances", SynthSpec.distances_m, _parse_list),
        noise_std_m=r.get("noise", SynthSpec.noise_std_m, float),
        scale_range=(r.get("scale-min", lo, float), r.get("scale-max", hi, float)),
        participants=r.get("participants", SynthSpec.participants, _integer),
    )


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
    _write_out(r.args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_train(r: _Resolver) -> int:
    cfg, spec = _feature_config(r), _classifier_spec(r)
    allow_nonconverged = r.get("allow-nonconverged", False, _switch)
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
    _write_out(r.args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_evaluate(r: _Resolver) -> int:
    fmt, cfg, spec, split = _format(r), _feature_config(r), _classifier_spec(r), _split_spec(r)
    report = evaluate(load_dataset(_existing(r.args.data, "dataset")), cfg, spec, split)
    _write_out(r.args.out, render_report(report, fmt))
    return 0


def _grid_specs(r: _Resolver) -> list[ClassifierSpec]:
    """A spec per grid row: --classifiers names the rows, the other flags tune each."""
    names = r.get("classifiers", None, lambda raw: _parse_list(raw, str))
    if names == ():
        raise UsageError("classifiers: no classifier named")
    return [_classifier_spec(r, name) for name in names or GRID_CLASSIFIERS]


def _cmd_grid(r: _Resolver) -> int:
    fmt, specs, split, mode = _format(r), _grid_specs(r), _split_spec(r), _angle_mode(r)
    reports = evaluate_grid(load_dataset(_existing(r.args.data, "dataset")), specs, split, mode)
    _write_out(r.args.out, render_grid(reports, fmt))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "featurize": _cmd_featurize,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "grid": _cmd_grid,
}


def run(argv) -> int:
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](_Resolver(args, _load_config(args.config, parser)))
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
