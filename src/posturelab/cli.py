"""Command-line entry point: synth, featurize, train, predict, evaluate, grid.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Diagnostics go to stderr; results go to files or stdout. A config file
(--config, JSON) may supply defaults; explicit flags take precedence, and the
POSTURELAB_SEED environment variable supplies the default seed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .classifiers import CLASSIFIER_NAMES, ClassifierSpec, predict_batch, train_classifier
from .dataset import (
    LabeledDataset,
    ModelFile,
    SynthSpec,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
    synth_generate,
)
from .errors import DataError, NonConvergence, NumericError
from .evaluation import (
    GRID_CLASSIFIERS,
    SplitSpec,
    evaluate,
    evaluate_grid,
    render_grid,
    render_report,
)
from .features import AngleMode, FeatureConfig, extract_matrix
from .skeleton import LABEL_NAMES

SEED_ENV_VAR = "POSTURELAB_SEED"
_FORMATS = {"evaluate": ("text", "csv", "json"), "grid": ("text", "json")}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, allow_abbrev=False, **kwargs):
        # No prefix matching: a removed flag must not parse as a longer one.
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="posturelab", description=__doc__)
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default: ${SEED_ENV_VAR} or 0)")

    def add_features(p):
        p.add_argument("--features", choices=("distances", "angles", "combined"),
                       default=None, help="feature set (default combined)")
        p.add_argument("--angle-mode", choices=("adjacent", "all_triples"),
                       default=None, help="angle enumeration (default adjacent)")

    def add_hyperparameters(p):
        p.add_argument("--c", type=float, default=None, help="SVM box constraint")
        p.add_argument("--tol", type=float, default=None, help="SMO KKT tolerance")
        p.add_argument("--kernel-scale", type=float, default=None,
                       help="polynomial kernel scale (default: 4*sqrt(n_features))")

    def add_classifier(p):
        p.add_argument("--classifier", choices=CLASSIFIER_NAMES, default=None,
                       help="classifier (default svm_quadratic)")
        add_hyperparameters(p)

    def add_split(p):
        p.add_argument("--train-fraction", type=float, default=None,
                       help="train fraction (default 0.8)")
        p.add_argument("--stratify", choices=("label", "label_participant"),
                       default=None, help="stratification mode (default label)")
        p.add_argument("--resubstitution", action="store_true",
                       help="train and test on the full dataset (oracle mode)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_seed(p)
    p.add_argument("--per-class", type=int, default=None, help="records per class")
    p.add_argument("--noise", type=float, default=None, help="joint noise stddev (m)")
    p.add_argument("--scale-min", type=float, default=None)
    p.add_argument("--scale-max", type=float, default=None)
    p.add_argument("--orientations", default=None,
                   help="comma-separated degrees, e.g. 0,90,180,270")
    p.add_argument("--distances", default=None,
                   help="comma-separated meters, e.g. 1,2,3,4")
    p.add_argument("--participants", type=int, default=None)
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
    p.add_argument("--allow-nonconverged", action="store_true",
                   help="save the model even if SMO left KKT violations")

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
    p.add_argument("--format", choices=_FORMATS["evaluate"], default=None)
    p.add_argument("--out", default="-")

    p = sub.add_parser("grid", help="classifier-by-featureset accuracy grid")
    add_seed(p)
    add_hyperparameters(p)
    add_split(p)
    p.add_argument("--angle-mode", choices=("adjacent", "all_triples"), default=None)
    p.add_argument("--classifiers", default=None,
                   help=f"comma-separated subset of {','.join(CLASSIFIER_NAMES)}")
    p.add_argument("--format", choices=_FORMATS["grid"], default=None)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default="-")
    return parser


def _load_config(path: str | None) -> dict:
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
    return config


class _Resolver:
    """Flag value if given, else config-file value, else the builtin default."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = args
        self.config = config

    def get(self, key: str, default, cast=lambda value: value):
        """cast of the value; a value cast rejects is a usage error naming
        the key. Where the default is None, a null value is unset."""
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
    """int of an integral number or numeral; 2.9, inf and null are rejected."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


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


def _usage_errors(build):
    """Decorates a spec builder: a rejected or wrong-typed value is a usage error."""
    def wrapper(r: _Resolver, *args):
        try:
            return build(r, *args)
        except (TypeError, ValueError) as e:
            raise UsageError(str(e)) from None
    return wrapper


@_usage_errors
def _format(r: _Resolver) -> str:
    fmt = r.get("format", "text")
    choices = _FORMATS[r.args.command]
    if fmt not in choices:
        raise ValueError(f"unknown format {fmt!r}; choose from {choices}")
    return fmt


@_usage_errors
def _angle_mode(r: _Resolver) -> AngleMode:
    return r.get("angle-mode", "adjacent", AngleMode)


@_usage_errors
def _feature_config(r: _Resolver) -> FeatureConfig:
    return FeatureConfig.from_name(r.get("features", "combined"), _angle_mode(r))


@_usage_errors
def _classifier_spec(r: _Resolver, name: str | None = None) -> ClassifierSpec:
    """The spec of classifier name, else of the --classifier value."""
    return ClassifierSpec(
        name=r.get("classifier", "svm_quadratic") if name is None else name,
        c=r.get("c", 1.0, float),
        tol=r.get("tol", 1e-3, float),
        kernel_scale=r.get("kernel-scale", None, float),
        seed=r.seed(),
    )


@_usage_errors
def _split_spec(r: _Resolver) -> SplitSpec:
    return SplitSpec(
        train_fraction=r.get("train-fraction", 0.8, float),
        seed=r.seed(),
        stratify_by=r.get("stratify", "label"),
        resubstitution=bool(getattr(r.args, "resubstitution", False)),
    )


def _load_data(path: str) -> LabeledDataset:
    if not Path(path).exists():
        raise DataError(f"dataset file not found: {path}")
    return load_dataset(path)


@_usage_errors
def _synth_spec(r: _Resolver) -> SynthSpec:
    return SynthSpec(
        seed=r.seed(),
        per_class=r.get("per-class", 208, _integer),
        orientations_deg=r.get("orientations", "0,90,180,270", _parse_list),
        distances_m=r.get("distances", "1,2,3,4", _parse_list),
        noise_std_m=r.get("noise", 0.02, float),
        scale_range=(r.get("scale-min", 0.85, float), r.get("scale-max", 1.15, float)),
        participants=r.get("participants", 13, _integer),
    )


def _cmd_synth(r: _Resolver) -> int:
    spec = _synth_spec(r)
    ds = synth_generate(spec)
    save_dataset(ds, r.args.out, generator=spec.to_dict())
    print(
        f"wrote {len(ds)} records ({spec.per_class} per class) to {r.args.out} "
        f"[fingerprint {ds.fingerprint}]",
        file=sys.stderr,
    )
    return 0


def _cmd_featurize(r: _Resolver) -> int:
    ds = _load_data(r.args.data)
    cfg = _feature_config(r)
    X, fingerprint = extract_matrix(ds.skeletons(), cfg)
    names = [*LABEL_NAMES, None]  # label -1 (unlabeled) reads the last
    lines = [
        json.dumps({"index": i, "label": names[y], "fingerprint": fingerprint,
                    "values": row}, sort_keys=True)
        for i, (y, row) in enumerate(zip(ds.labels.tolist(), X.tolist()))
    ]
    _write_out(r.args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_train(r: _Resolver) -> int:
    ds = _load_data(r.args.data)
    cfg = _feature_config(r)
    spec = _classifier_spec(r)
    X, fingerprint = extract_matrix(ds.skeletons(), cfg)
    model = train_classifier(X, ds.label_indices(), spec, fingerprint)
    bad = model.nonconverged
    if bad:
        if not r.args.allow_nonconverged:
            raise NonConvergence(
                f"{bad} of {len(model.machines)} binary SVMs left KKT violations; "
                "re-run with --allow-nonconverged to save anyway"
            )
        print(f"warning: {bad} binary SVMs not converged", file=sys.stderr)
    save_model(ModelFile(model, cfg, ds.fingerprint), r.args.model_out)
    print(f"wrote {spec.name} model to {r.args.model_out}", file=sys.stderr)
    return 0


def _cmd_predict(r: _Resolver) -> int:
    if not Path(r.args.model).exists():
        raise DataError(f"model file not found: {r.args.model}")
    mf = load_model(r.args.model)
    ds = _load_data(r.args.data)
    X, _ = extract_matrix(ds.skeletons(), mf.feature_config)  # ModelFile checks the fingerprint
    labels = {k: json.dumps(name) for k, name in enumerate(LABEL_NAMES)}
    # the bytes of json.dumps({"index": i, "label": name}, sort_keys=True)
    lines = [
        f'{{"index": {i}, "label": {labels[p]}}}'
        for i, p in enumerate(predict_batch(mf.model, X).tolist())
    ]
    _write_out(r.args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_evaluate(r: _Resolver) -> int:
    fmt = _format(r)
    ds = _load_data(r.args.data)
    report = evaluate(ds, _feature_config(r), _classifier_spec(r), _split_spec(r))
    _write_out(r.args.out, render_report(report, fmt))
    return 0


@_usage_errors
def _grid_specs(r: _Resolver) -> list[ClassifierSpec]:
    """A spec per grid row: --classifiers names the rows, the other flags tune each."""
    names = r.get("classifiers", None)
    names = GRID_CLASSIFIERS if names is None else _parse_list(names, str)
    if not names:
        raise ValueError("classifiers: no classifier named")
    return [_classifier_spec(r, name) for name in names]


def _cmd_grid(r: _Resolver) -> int:
    fmt = _format(r)
    ds = _load_data(r.args.data)
    reports = evaluate_grid(ds, _grid_specs(r), _split_spec(r), _angle_mode(r))
    if fmt == "json":
        docs = [rep.to_dict() for rep in reports]
        _write_out(r.args.out, json.dumps(docs, sort_keys=True) + "\n")
    else:
        _write_out(r.args.out, render_grid(reports))
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return _COMMANDS[args.command](_Resolver(args, config))
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
