import dataclasses
import json

import numpy as np
import pytest

from posturelab.classifiers import ClassifierSpec, fit_standardizer, train_classifier
from posturelab.dataset import ModelFile, SynthSpec, model_file_to_dict, synth_generate
from posturelab.errors import ClassTooSmall, EmptyInput, LengthMismatch, UnknownLabel
from posturelab.evaluation import (
    GRID_CLASSIFIERS,
    SplitSpec,
    confusion_matrix,
    evaluate,
    evaluate_grid,
    parse_csv_report,
    render_grid,
    render_report,
    round_half_up,
    stratified_split,
)
from posturelab.features import FeatureConfig, extract_matrix
from posturelab.skeleton import LABEL_NAMES, PostureLabel


def small_dataset(seed=7, per_class=10, noise=0.02):
    return synth_generate(SynthSpec(seed=seed, per_class=per_class, noise_std_m=noise))


# Every seed is a non-negative int, and not a bool: (spec, seed) -> message.
REJECTED_SEEDS = {
    "split-fraction": (SplitSpec, 1.5, "seed must be an integer, got 1.5"),
    "split-bool": (SplitSpec, True, "seed must be an integer, got True"),
    "split-string": (SplitSpec, "1", "seed must be an integer, got '1'"),
    "synth-fraction": (SynthSpec, 1.5, "seed must be an integer, got 1.5"),
    "synth-negative": (SynthSpec, -1, "seed must not be negative, got -1"),
    "classifier-fraction": (ClassifierSpec, 1.5, "seed must be an integer, got 1.5"),
    "classifier-bool": (ClassifierSpec, False, "seed must be an integer, got False"),
}


@pytest.mark.parametrize("case", REJECTED_SEEDS)
def test_specs_reject_a_seed_that_is_no_integer(case):
    spec, seed, message = REJECTED_SEEDS[case]
    with pytest.raises(ValueError) as e:
        spec(seed=seed)
    assert str(e.value) == message


class TestStratifiedSplit:
    def test_paper_sized_dataset_splits_832_208(self):
        ds = synth_generate(SynthSpec(seed=1, per_class=208))
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.8, seed=5))
        assert train.shape[0] == 832
        assert test.shape[0] == 208

    def test_five_member_class_gives_4_1(self):
        ds = small_dataset(per_class=5)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.8, seed=5))
        y = ds.label_indices()
        for k in range(5):
            assert (y[train] == k).sum() == 4
            assert (y[test] == k).sum() == 1

    def test_disjoint_cover(self):
        ds = small_dataset(per_class=13)
        train, test = stratified_split(ds, SplitSpec(seed=3))
        combined = np.concatenate([train, test])
        assert np.array_equal(np.sort(combined), np.arange(len(ds)))

    def test_per_class_fraction_within_one_record(self):
        ds = small_dataset(per_class=17)
        spec = SplitSpec(train_fraction=0.8, seed=11)
        train, _ = stratified_split(ds, spec)
        y = ds.label_indices()
        for k in range(5):
            n_k = (y == k).sum()
            got = (y[train] == k).sum() / n_k
            assert abs(got - 0.8) <= 1.0 / n_k

    def test_deterministic(self):
        ds = small_dataset()
        a = stratified_split(ds, SplitSpec(seed=9))
        b = stratified_split(ds, SplitSpec(seed=9))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = stratified_split(ds, SplitSpec(seed=10))
        assert not np.array_equal(a[0], c[0])

    def test_class_too_small(self):
        ds = small_dataset(per_class=1)
        with pytest.raises(ClassTooSmall):
            stratified_split(ds, SplitSpec(seed=0))

    def test_resubstitution_returns_every_index_twice(self):
        ds = small_dataset(per_class=10)
        train, test = stratified_split(ds, SplitSpec(seed=0, resubstitution=True))
        assert np.array_equal(train, np.arange(50)) and np.array_equal(test, np.arange(50))

    def test_resubstitution_keeps_a_one_record_class_valid(self):
        ds = small_dataset(per_class=1)
        split = SplitSpec(seed=0, resubstitution=True)
        train, test = stratified_split(ds, split)
        assert np.array_equal(train, np.arange(5)) and np.array_equal(test, np.arange(5))
        report = evaluate(ds, FeatureConfig(), ClassifierSpec("knn1", seed=0), split)
        assert report.n_train == report.confusion.total == 5

    def test_evaluate_splits_through_stratified_split_under_resubstitution(self, monkeypatch):
        import posturelab.evaluation as ev

        calls = []

        def recording(ds, spec):
            calls.append(spec)
            return stratified_split(ds, spec)

        monkeypatch.setattr(ev, "stratified_split", recording)
        split = SplitSpec(seed=2, resubstitution=True)
        report = evaluate(small_dataset(), FeatureConfig(), ClassifierSpec("lda"), split)
        assert calls == [split]
        assert report.n_train == report.confusion.total == 50

    def test_label_and_participant_stratification(self):
        ds = small_dataset(per_class=40)
        train, test = stratified_split(
            ds, SplitSpec(seed=2, stratify_by="label_participant")
        )
        combined = np.concatenate([train, test])
        assert np.array_equal(np.sort(combined), np.arange(len(ds)))


class TestConfusionMatrix:
    def test_identity_predictions_are_diagonal(self):
        labels = [PostureLabel(i % 5) for i in range(40)]
        cm = confusion_matrix(labels, labels)
        assert np.array_equal(np.diag(np.diag(cm.counts)), cm.counts)
        assert cm.overall_accuracy == 1.0

    def test_counts_match_independent_tally_500_runs(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 60))
            truth = rng.integers(0, 5, n)
            pred = rng.integers(0, 5, n)
            cm = confusion_matrix(truth, pred)
            tally = {}
            for t, p in zip(truth, pred):
                tally[(int(t), int(p))] = tally.get((int(t), int(p)), 0) + 1
            for i in range(5):
                for j in range(5):
                    assert cm.counts[i, j] == tally.get((i, j), 0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion_matrix([PostureLabel.Standing], [])

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            confusion_matrix([], [])

    def test_negative_label_rejected(self):
        with pytest.raises(UnknownLabel, match="-1"):
            confusion_matrix([-1, 0], [0, 0])

    def test_label_above_range_rejected(self):
        with pytest.raises(UnknownLabel, match="5"):
            confusion_matrix([0], [5])

    def test_fractional_label_rejected(self):
        with pytest.raises(UnknownLabel, match="1.7"):
            confusion_matrix([1.7], [1])

    def test_accuracy_identities(self, rng):
        truth = rng.integers(0, 5, 200)
        pred = rng.integers(0, 5, 200)
        cm = confusion_matrix(truth, pred)
        assert cm.overall_accuracy == np.trace(cm.counts) / cm.counts.sum()
        per_class = cm.per_class_accuracy()
        for k in range(5):
            row = cm.counts[k].sum()
            if row:
                assert per_class[k] == cm.counts[k, k] / row

    def test_row_percentages_sum_to_100(self, rng):
        truth = rng.integers(0, 5, 500)
        pred = rng.integers(0, 5, 500)
        pct = confusion_matrix(truth, pred).row_percentages()
        for i in range(5):
            assert abs(pct[i].sum() - 100.0) <= 0.1 + 1e-9


class TestRounding:
    def test_half_up(self):
        assert round_half_up(92.25, 1) == 92.3
        assert round_half_up(92.34999, 1) == 92.3
        assert round_half_up(7.65, 1) == 7.7
        assert round_half_up(0.05, 1) == 0.1

    def test_elementwise_with_the_bits_of_each_value(self):
        values = np.array([92.25, 92.34999, 7.65, 0.05, 0.0, -0.05, -7.65, 12.5])
        rounded = round_half_up(values)
        assert rounded.tolist() == [92.3, 92.3, 7.7, 0.1, 0.0, -0.1, -7.7, 12.5]
        assert rounded.tolist() == [round_half_up(float(v)) for v in values]
        assert round_half_up(np.array([2.5, 3.5, -2.5]), 0).tolist() == [3.0, 4.0, -3.0]


class TestTableFixtures:
    """The renderer reproduces the row-normalized percentage convention."""

    def fixture_report(self):
        # Standing row: 13 true Standing, 12 correct and 1 as Walking
        # (92.3% / 7.7%); the rest of the matrix is diagonal
        truth = [PostureLabel.Standing] * 13 + [PostureLabel.Walking] * 42
        pred = [PostureLabel.Standing] * 12 + [PostureLabel.Walking] * 43
        truth += [PostureLabel.Bending] * 3 + [PostureLabel.Sitting] * 4
        pred += [PostureLabel.Bending] * 3 + [PostureLabel.Sitting] * 4
        return confusion_matrix(truth, pred)

    def test_standing_row_formats_as_92_3_and_7_7(self):
        cm = self.fixture_report()
        pct = cm.row_percentages()
        assert pct[0, 0] == 92.3
        assert pct[0, 3] == 7.7
        assert pct[0, 1] == pct[0, 2] == pct[0, 4] == 0.0

    def test_rows_are_true_classes_in_text_render(self):
        ds = small_dataset(per_class=8)
        report = evaluate(
            ds, FeatureConfig(), ClassifierSpec("knn1", seed=0), SplitSpec(seed=0)
        )
        text = render_report(report, "text")
        assert "rows: true class" in text
        for name in LABEL_NAMES:
            assert name in text

    def test_diagonal_matrix_renders_100_percent(self):
        labels = [PostureLabel(i % 5) for i in range(25)]
        cm = confusion_matrix(labels, labels)
        pct = cm.row_percentages()
        assert np.allclose(np.diag(pct), 100.0)


class TestEvaluate:
    def test_no_leakage_standardizer_fitted_on_train_only(self):
        ds = small_dataset(per_class=12)
        cfg = FeatureConfig()
        split = SplitSpec(seed=4)
        report = evaluate(ds, cfg, ClassifierSpec("knn1", seed=4), split)
        X, _ = extract_matrix(ds.skeletons(), cfg)
        train_idx, _ = stratified_split(ds, split)
        expected = fit_standardizer(X[train_idx])
        assert np.array_equal(report.model.standardizer.mean, expected.mean)
        assert np.array_equal(report.model.standardizer.std, expected.std)

    def test_resubstitution_knn_is_perfect(self):
        ds = small_dataset(per_class=10)
        report = evaluate(
            ds,
            FeatureConfig(),
            ClassifierSpec("knn1", seed=0),
            SplitSpec(seed=0, resubstitution=True),
        )
        assert report.accuracy == 1.0
        assert report.n_train == report.confusion.total == len(ds)

    def test_report_identities(self):
        ds = small_dataset(per_class=10)
        report = evaluate(
            ds, FeatureConfig(), ClassifierSpec("lda", seed=1), SplitSpec(seed=1)
        )
        cm = report.confusion
        assert report.accuracy == np.trace(cm.counts) / cm.counts.sum()
        assert cm.counts.sum() == report.to_dict()["split"]["n_test"]

    def test_deterministic_reports(self):
        ds = small_dataset(per_class=10)
        args = (ds, FeatureConfig(), ClassifierSpec("svm_linear", seed=6), SplitSpec(seed=6))
        a, b = (evaluate(*args).to_dict() for _ in range(2))
        del a["timings_ms"], b["timings_ms"]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


class TestRenderFormats:
    @pytest.fixture
    def report(self):
        ds = small_dataset(per_class=8)
        return evaluate(
            ds, FeatureConfig(), ClassifierSpec("knn1", seed=2), SplitSpec(seed=2)
        )

    def test_json_schema_fields(self, report):
        doc = json.loads(render_report(report, "json"))
        for key in ("version", "classifier", "features", "split", "counts",
                    "accuracy", "per_class", "timings_ms"):
            assert key in doc
        assert len(doc["counts"]) == 5
        assert all(len(row) == 5 for row in doc["counts"])
        assert len(doc["per_class"]) == 5

    def test_json_section_keys(self, report):
        doc = report.to_dict()
        assert list(doc["classifier"]) == ["name", "c", "tol", "kernel_scale", "seed"]
        assert list(doc["features"]) == [
            "set", "use_distances", "use_angles", "angle_mode", "fingerprint",
        ]
        assert list(doc["split"]) == [
            "train_fraction", "seed", "stratify_by", "resubstitution", "n_train", "n_test",
        ]
        assert doc["classifier"]["kernel_scale"] is None
        assert doc["features"]["angle_mode"] == "adjacent"

    def test_csv_meta_row_order(self, report):
        text = render_report(report, "csv")
        meta = [line.split(",")[1:3] for line in text.splitlines() if line.startswith("meta,")]
        assert [name for name, _ in meta] == [
            "version",
            "classifier.name", "classifier.c", "classifier.tol",
            "classifier.kernel_scale", "classifier.seed",
            "features.set", "features.use_distances", "features.use_angles",
            "features.angle_mode", "features.fingerprint",
            "split.train_fraction", "split.seed", "split.stratify_by",
            "split.resubstitution", "split.n_train", "split.n_test",
            "dataset_fingerprint", "accuracy",
            "timings_ms.extract", "timings_ms.train", "timings_ms.predict",
            "timings_ms.total",
        ]
        assert dict(meta)["features.angle_mode"] == "adjacent"

    def test_given_kernel_scale_is_reported(self):
        spec = ClassifierSpec("svm_quadratic", kernel_scale=7.5, seed=2)
        report = evaluate(small_dataset(per_class=8), FeatureConfig(), spec, SplitSpec(seed=2))
        assert json.loads(render_report(report, "json"))["classifier"]["kernel_scale"] == 7.5
        text = render_report(report, "csv")
        meta = dict(line.split(",")[1:3] for line in text.splitlines() if line.startswith("meta,"))
        assert meta["classifier.kernel_scale"] == "7.5"

    def test_json_csv_json_round_trip_preserves_counts(self, report):
        doc = json.loads(render_report(report, "json"))
        parsed = parse_csv_report(render_report(report, "csv"))
        assert parsed["counts"] == doc["counts"]
        assert parsed["accuracy"] == doc["accuracy"]
        assert parsed["per_class"] == doc["per_class"]

    def test_unknown_format_rejected(self, report):
        with pytest.raises(ValueError):
            render_report(report, "xml")


class TestGrid:
    def test_grid_is_15_reports_in_table_shape(self):
        ds = small_dataset(per_class=8)
        specs = [ClassifierSpec(name, seed=0) for name in GRID_CLASSIFIERS]
        reports = evaluate_grid(ds, specs, SplitSpec(seed=0))
        assert len(reports) == 15
        text = render_grid(reports)
        lines = text.strip().splitlines()
        assert len(lines) == 6  # header + five classifiers
        assert "angles" in lines[0] and "distances" in lines[0] and "combined" in lines[0]
        for name in ("lda", "knn1", "svm_linear", "svm_quadratic", "svm_cubic"):
            assert any(line.startswith(name) for line in lines[1:])

    def test_two_reports_in_one_cell_are_an_error(self):
        # two svm_linear rows: the text grid has one cell per (name, feature set)
        ds = synth_generate(SynthSpec(seed=1, per_class=12, noise_std_m=0.2))
        specs = [ClassifierSpec("svm_linear", c=0.01), ClassifierSpec("svm_linear", c=100.0)]
        reports = evaluate_grid(ds, specs, SplitSpec(seed=1))
        assert len(reports) == 6
        with pytest.raises(ValueError, match="svm_linear/angles"):
            render_grid(reports)
        assert len(json.loads(render_grid(reports, "json"))) == 6  # a list keeps every report


class TestNonConvergedReports:
    @pytest.fixture
    def reports(self):
        ds = small_dataset(per_class=8)
        report = evaluate(
            ds, FeatureConfig(), ClassifierSpec("svm_linear", seed=3), SplitSpec(seed=3)
        )
        first = report.model.machines[0]
        model = dataclasses.replace(
            report.model,
            machines=(dataclasses.replace(first, converged=False, kkt_violations=1),)
            + report.model.machines[1:],
        )
        return report, dataclasses.replace(report, model=model)

    def test_count_in_json_and_csv(self, reports):
        converged, flagged = reports
        assert json.loads(render_report(converged, "json"))["nonconverged_machines"] == 0
        assert json.loads(render_report(flagged, "json"))["nonconverged_machines"] == 1
        parsed = parse_csv_report(render_report(flagged, "csv"))
        assert parsed["meta"]["nonconverged_machines"] == "1"

    def test_text_report_warns(self, reports):
        converged, flagged = reports
        assert "warning" not in render_report(converged, "text")
        assert "warning: 1 of 10 binary SVMs did not converge" in render_report(
            flagged, "text"
        )

    def test_grid_cell_is_marked(self, reports):
        converged, flagged = reports
        assert "*" not in render_grid([converged])
        lines = render_grid([flagged]).strip().splitlines()
        assert lines[1].split()[-1] == f"{round_half_up(100 * flagged.accuracy):.1f}%*"
        assert lines[-1].startswith("* ")

    def test_count_absent_for_other_classifiers(self):
        ds = small_dataset(per_class=8)
        for name in ("lda", "knn1"):
            report = evaluate(
                ds, FeatureConfig(), ClassifierSpec(name, seed=3), SplitSpec(seed=3)
            )
            assert report.model.nonconverged is None
            assert "nonconverged_machines" not in report.to_dict()
            assert "nonconverged_machines" not in render_report(report, "csv")


class TestGridExtraction:
    def test_one_extraction_per_feature_set(self, monkeypatch):
        import posturelab.evaluation as ev

        calls = []

        def counting(skeletons, cfg):
            calls.append(cfg.name)
            return extract_matrix(skeletons, cfg)

        monkeypatch.setattr(ev, "extract_matrix", counting)
        ds = small_dataset(per_class=8)
        specs = [ClassifierSpec(name, seed=0) for name in ("lda", "knn1")]
        reports = evaluate_grid(ds, specs, SplitSpec(seed=0))
        assert len(reports) == 6
        assert sorted(calls) == ["angles", "combined", "distances"]

    def test_one_split_standardizer_and_training_gram_per_feature_set(self, monkeypatch):
        import posturelab.classifiers as cl
        import posturelab.evaluation as ev
        from posturelab.kernels import KernelSpec

        calls = {"split": 0, "standardizer": 0, "gram": 0, "training gram": 0}
        split, fit, gram = ev.stratified_split, cl.fit_standardizer, KernelSpec.gram

        def counting_split(*args):
            calls["split"] += 1
            return split(*args)

        def counting_fit(X):
            calls["standardizer"] += 1
            return fit(X)

        def counting_gram(kernel, X, Y):
            calls["gram"] += 1
            calls["training gram"] += X is Y  # the scorers pass test rows and support vectors
            return gram(kernel, X, Y)

        monkeypatch.setattr(ev, "stratified_split", counting_split)
        monkeypatch.setattr(cl, "fit_standardizer", counting_fit)
        monkeypatch.setattr(KernelSpec, "gram", counting_gram)
        ds = small_dataset(per_class=8)
        names = ("lda", "svm_linear", "svm_quadratic", "svm_cubic")
        reports = evaluate_grid(ds, [ClassifierSpec(name, seed=0) for name in names],
                                SplitSpec(seed=0))
        assert len(reports) == 12
        # one dot-product matrix per feature set; one scorer Gram per SVM cell
        assert calls == {"split": 1, "standardizer": 3, "gram": 3 + 9, "training gram": 3}

    def test_grid_cells_equal_single_evaluations(self):
        ds = small_dataset(per_class=8)
        split = SplitSpec(seed=4)
        specs = [ClassifierSpec(name, seed=4) for name in GRID_CLASSIFIERS]
        reports = evaluate_grid(ds, specs, split)
        train, _ = stratified_split(ds, split)
        for report in reports:
            alone = evaluate(ds, report.features, report.classifier, split)
            a, b = report.to_dict(), alone.to_dict()
            del a["timings_ms"], b["timings_ms"]
            assert a == b
            X, fingerprint = extract_matrix(ds.positions, report.features)
            trained = train_classifier(X[train], ds.label_indices()[train],
                                       report.classifier, fingerprint)
            assert (model_file_to_dict(ModelFile(report.model, report.features))
                    == model_file_to_dict(ModelFile(trained, report.features)))
