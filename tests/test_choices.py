"""Every named choice of the package rejects an unknown name with one message:
unknown <what> '<name>'; choose from <the accepted names>."""
import json
from types import SimpleNamespace

import pytest

from posturelab.classifiers import ClassifierSpec
from posturelab.cli import run
from posturelab.dataset import SynthSpec, load_model, synth_generate
from posturelab.errors import CorruptModel, choose
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
