"""Every named choice of the package rejects an unknown name with one message:
unknown <what> '<name>'; choose from <the accepted names>. Every spec field
rejects a value of the wrong type with a message that names the field."""
import json
from types import SimpleNamespace

import pytest

from posturelab.classifiers import ClassifierSpec
from posturelab.cli import run
from posturelab.dataset import SynthSpec, load_model, synth_generate
from posturelab.errors import CorruptModel, choose, finite_real
from posturelab.evaluation import SplitSpec, evaluate, render_grid, render_report
from posturelab.features import AngleMode, FeatureConfig
from posturelab.kernels import KernelSpec

CLASSIFIERS = ("lda", "qda", "knn1", "svm_linear", "svm_quadratic", "svm_cubic")
MODEL_KINDS = ("lda", "qda", "knn1", "ovo_svm")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small dataset, an lda model trained on it, and a copy of the model
    whose kind is 'bogus'."""
    root = tmp_path_factory.mktemp("choices")
    data, model, bogus = root / "ds.jsonl", root / "model.json", root / "bogus.json"
    assert run(["synth", "--seed", "3", "--per-class", "6", "--out", str(data)]) == 0
    assert run(["train", "--data", str(data), "--classifier", "lda",
                "--model-out", str(model)]) == 0
    bogus.write_text(json.dumps({**json.loads(model.read_text()), "kind": "bogus"}))
    return data, bogus


@pytest.fixture(scope="module")
def report():
    ds = synth_generate(SynthSpec(seed=3, per_class=6))
    return evaluate(ds, FeatureConfig.from_name("distances"), ClassifierSpec("lda"), SplitSpec())


@pytest.fixture
def ctx(files, report, tmp_path, capsys):
    return SimpleNamespace(data=files[0], bogus_model=files[1], report=report,
                           out=tmp_path / "out", capsys=capsys)


def _raised(build, error=ValueError, prefix=""):
    """The message of the error that build(ctx) raises, without prefix."""
    def rejected(ctx):
        with pytest.raises(error) as e:
            build(ctx)
        return str(e.value).removeprefix(prefix)
    return rejected


def _printed(argv, code, prefix):
    """The one line that the CLI prints for argv, exiting code, without prefix."""
    def rejected(ctx):
        ctx.capsys.readouterr()
        assert run([*argv(ctx), "--out", str(ctx.out)]) == code
        assert not ctx.out.exists()
        err = ctx.capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1
        return err.removeprefix(prefix).rstrip("\n")
    return rejected


def _format_flag(command):
    argv = lambda ctx: [command, "--format", "bogus", "--data", str(ctx.data)]  # noqa: E731
    return _printed(argv, 1, "usage error: ")


# site -> (what, the accepted names, the rejection of 'bogus' returning its message)
SITES = {
    "AngleMode": ("angle mode", ("adjacent", "all_triples"),
                  _raised(lambda ctx: AngleMode("bogus"))),
    "FeatureConfig.from_name": ("feature set", ("distances", "angles", "combined"),
                                _raised(lambda ctx: FeatureConfig.from_name("bogus"))),
    "ClassifierSpec": ("classifier", CLASSIFIERS, _raised(lambda ctx: ClassifierSpec("bogus"))),
    "SplitSpec": ("stratify mode", ("label", "label_participant"),
                  _raised(lambda ctx: SplitSpec(stratify_by="bogus"))),
    "KernelSpec": ("kernel kind", ("linear", "poly"), _raised(lambda ctx: KernelSpec("bogus"))),
    "load_model": ("model kind", MODEL_KINDS,
                   _raised(lambda ctx: load_model(ctx.bogus_model), CorruptModel,
                           "malformed model file: ")),
    "predict": ("model kind", MODEL_KINDS,
                _printed(lambda ctx: ["predict", "--model", str(ctx.bogus_model),
                                      "--data", str(ctx.data)],
                         2, "data error: malformed model file: ")),
    "render_report": ("format", ("text", "csv", "json"),
                      _raised(lambda ctx: render_report(ctx.report, "bogus"))),
    "render_grid": ("format", ("text", "json"),
                    _raised(lambda ctx: render_grid([ctx.report], "bogus"))),
    "evaluate --format": ("format", ("text", "csv", "json"), _format_flag("evaluate")),
    "grid --format": ("format", ("text", "json"), _format_flag("grid")),
}


@pytest.mark.parametrize("site", SITES)
def test_unknown_name_has_one_message(site, ctx):
    what, names, rejected = SITES[site]
    assert rejected(ctx) == f"unknown {what} 'bogus'; choose from {names}"


@pytest.mark.parametrize("value", [["lda"], None, 3, {"lda": 1}])
def test_choose_rejects_a_value_that_is_no_string(value):
    with pytest.raises(ValueError, match=r"^unknown classifier .*; choose from \('lda',"):
        choose("classifier", value, CLASSIFIERS)


def test_choose_returns_an_accepted_name():
    assert choose("classifier", "qda", dict.fromkeys(CLASSIFIERS)) == "qda"


# Mistyped or out-of-range spec fields: id -> (the field as its message names it,
# the construction)
MISTYPED_FIELDS = {
    "synth-per-class-fraction": ("per_class", lambda: SynthSpec(per_class=2.5)),
    "synth-participants-fraction": ("participants", lambda: SynthSpec(participants=2.5)),
    "synth-per-class-beyond-int64": ("per_class", lambda: SynthSpec(per_class=2**63)),
    "synth-participants-beyond-int64": ("participants", lambda: SynthSpec(participants=2**63)),
    "synth-per-class-bool": ("per_class", lambda: SynthSpec(per_class=True)),
    "synth-noise-bool": ("noise_std_m", lambda: SynthSpec(noise_std_m=True)),
    "synth-orientation-bool": ("orientations_deg", lambda: SynthSpec(orientations_deg=(True,))),
    "synth-orientation-string": ("orientations_deg", lambda: SynthSpec(orientations_deg=("90",))),
    "split-resubstitution-string": ("resubstitution", lambda: SplitSpec(resubstitution="no")),
    "features-distances-int": ("use_distances", lambda: FeatureConfig(use_distances=0)),
    "features-angles-string": ("use_angles", lambda: FeatureConfig(use_angles="no")),
    "classifier-c-bool": ("c", lambda: ClassifierSpec(c=True)),
    "kernel-scale-bool": ("kernel scale", lambda: KernelSpec("poly", 2, True)),
}


@pytest.mark.parametrize("case", MISTYPED_FIELDS)
def test_mistyped_spec_field_is_rejected_by_name(case):
    field, build = MISTYPED_FIELDS[case]
    with pytest.raises(ValueError, match=f"^{field} must be "):
        build()


@pytest.mark.parametrize("value", [True, False, "1.0", None, float("nan"), float("inf"), 10**400])
def test_finite_real_rejects_what_is_no_finite_number(value):
    assert not finite_real(value)


@pytest.mark.parametrize("value", [0, -3, 1.5, 1e308])
def test_finite_real_accepts_a_finite_number(value):
    assert finite_real(value)
