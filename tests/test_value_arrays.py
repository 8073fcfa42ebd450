"""The one rule for array fields: every value object holds read-only,
C-ordered arrays of its annotated dtype that share memory with no writable
array, copied only when the caller's value could change under it."""
import dataclasses

import numpy as np
import pytest

from posturelab.classifiers import Knn1Model, LdaModel, QdaModel, Standardizer
from posturelab.dataset import LabeledDataset
from posturelab.errors import DimensionMismatch, UnknownLabel
from posturelab.evaluation import ConfusionMatrix
from posturelab.features import FeatureVector
from posturelab.kernels import linear_kernel
from posturelab.skeleton import NUM_JOINTS, Skeleton
from posturelab.svm import BinarySvmModel


def _unit() -> Standardizer:
    return Standardizer(np.zeros(3), np.ones(3))


# type -> (its scalar fields, a valid value of each array field)
VALUE_TYPES = {
    "Skeleton": (Skeleton, {}, {"positions": np.arange(NUM_JOINTS * 3.0).reshape(NUM_JOINTS, 3)}),
    "FeatureVector": (FeatureVector, {"fingerprint": "fp"}, {"values": np.linspace(0.0, 1.0, 7)}),
    "Standardizer": (Standardizer, {}, {"mean": np.array([0.5, -1.0, 2.0]),
                                        "std": np.array([1.0, 2.0, 0.25])}),
    "ConfusionMatrix": (ConfusionMatrix, {}, {"counts": np.arange(25).reshape(5, 5)}),
    "LabeledDataset": (LabeledDataset, {}, {
        "positions": np.arange(2 * NUM_JOINTS * 3.0).reshape(2, NUM_JOINTS, 3),
        "labels": np.array([0, -1]),
        "participants": np.array(["p00", "p01"], dtype=object),
        "orientations_deg": np.array([0.0, 90.0]),
        "distances_m": np.array([1.0, 2.0]),
    }),
    "BinarySvmModel": (
        BinarySvmModel,
        {"bias": 0.5, "kernel": linear_kernel(), "c": 1.0, "converged": True},
        {"support_vectors": np.arange(6.0).reshape(2, 3), "dual_coef": np.array([0.5, -0.5])},
    ),
    "LdaModel": (LdaModel, {"standardizer": _unit(), "fingerprint": "", "seed": 0,
                            "classes": (0, 1)}, {
        "coef": np.arange(6.0).reshape(3, 2),
        "intercept": np.array([0.5, -0.5]),
    }),
    "QdaModel": (QdaModel, {"standardizer": _unit(), "fingerprint": "", "seed": 0,
                            "classes": (0, 1)}, {
        "means": np.arange(6.0).reshape(2, 3),
        "whiteners": np.stack([np.eye(3), np.sqrt(2.0) * np.eye(3)]),
        "log_dets": np.array([0.0, -3.0 * np.log(2.0)]),
        "log_priors": np.log([0.5, 0.5]),
    }),
    "Knn1Model": (Knn1Model, {"standardizer": _unit(), "fingerprint": "", "seed": 0}, {
        "points": np.arange(6.0).reshape(2, 3),
        "labels": np.array([4, 0]),
    }),
}


def _build(name: str, arrays: dict):
    cls, scalars, _ = VALUE_TYPES[name]
    return cls(**scalars, **arrays)


def _view_of_writable_base(a: np.ndarray, read_only: bool) -> tuple[np.ndarray, np.ndarray]:
    base = np.empty((2, *a.shape), dtype=a.dtype)
    base[1] = a
    view = base[1]
    view.setflags(write=not read_only)
    return view, base


def _overwrite(a: np.ndarray) -> None:
    a[...] = "changed" if a.dtype == object else 7


def _held_arrays(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), np.ndarray)}


@pytest.mark.parametrize("name", VALUE_TYPES)
@pytest.mark.parametrize("source", ["array", "view", "read-only view"])
def test_caller_writes_never_reach_a_built_value(name, source):
    arrays = {k: v.copy() for k, v in VALUE_TYPES[name][2].items()}
    if source == "array":
        given, writable = arrays, list(arrays.values())
    else:
        frozen = source == "read-only view"
        views = {k: _view_of_writable_base(v, frozen) for k, v in arrays.items()}
        given = {k: view for k, (view, _) in views.items()}
        writable = [base for _, base in views.values()]
        if source == "view":
            writable += list(given.values())
    obj = _build(name, given)
    held = _held_arrays(obj)
    assert held.keys() == arrays.keys()
    for a in writable:
        assert a.flags.writeable  # the caller's arrays are not frozen
    for field, arr in held.items():
        assert not arr.flags.writeable and arr.flags.c_contiguous, field
        assert arr.dtype == VALUE_TYPES[name][2][field].dtype, field
    before = {field: arr.tolist() for field, arr in held.items()}
    for a in writable:
        _overwrite(a)
    assert {field: arr.tolist() for field, arr in _held_arrays(obj).items()} == before


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_read_only_owned_arrays_are_held_uncopied(name):
    arrays = {k: v.copy() for k, v in VALUE_TYPES[name][2].items()}
    for a in arrays.values():
        a.setflags(write=False)
    held = _held_arrays(_build(name, arrays))
    assert all(held[field] is a for field, a in arrays.items())


def test_a_row_is_copied_only_while_its_stack_is_writable():
    owner = np.arange(2 * NUM_JOINTS * 3.0)
    stack = owner.reshape(2, NUM_JOINTS, 3)
    stack.setflags(write=False)  # a read-only view: the owner can still change it
    assert not np.shares_memory(Skeleton(stack[1]).positions, owner)
    owner.setflags(write=False)
    assert np.shares_memory(Skeleton(stack[1]).positions, owner)


class TestDtypeAndShape:
    @pytest.mark.parametrize("name, field", [
        ("ConfusionMatrix", "counts"), ("LabeledDataset", "labels"), ("Knn1Model", "labels"),
    ])
    def test_integer_fields_reject_fractions(self, name, field):
        arrays = dict(VALUE_TYPES[name][2])
        arrays[field] = arrays[field] + 0.5
        with pytest.raises(ValueError, match=field):
            _build(name, arrays)

    def test_integral_values_cast_to_float_fields(self):
        arrays = {"positions": np.arange(NUM_JOINTS * 3).reshape(NUM_JOINTS, 3)}
        positions = _build("Skeleton", arrays).positions
        assert positions.dtype == np.float64 and positions[1, 2] == 5.0

    @pytest.mark.parametrize("name, field, bad", [
        ("Skeleton", "positions", np.zeros((NUM_JOINTS, 2))),
        ("ConfusionMatrix", "counts", np.zeros((4, 5), dtype=np.int64)),
        ("BinarySvmModel", "dual_coef", np.array([0.5, -0.25, -0.25])),
        ("Standardizer", "std", np.ones(4)),
        ("LdaModel", "coef", np.ones((2, 2))),
    ])
    def test_a_wrong_shape_is_a_dimension_mismatch(self, name, field, bad):
        arrays = {**VALUE_TYPES[name][2], field: bad}
        with pytest.raises(DimensionMismatch, match=field):
            _build(name, arrays)


class TestLabeledDatasetColumns:
    def columns(self, **changes):
        return {**VALUE_TYPES["LabeledDataset"][2], **changes}

    @pytest.mark.parametrize("column", ["positions", "participants", "orientations_deg",
                                        "distances_m"])
    def test_columns_of_another_length_are_rejected(self, column):
        longer = np.concatenate([self.columns()[column]] * 2)[:3]
        with pytest.raises(DimensionMismatch, match=column):
            LabeledDataset(**self.columns(**{column: longer}))

    def test_positions_must_be_joint_stacks(self):
        with pytest.raises(DimensionMismatch, match="positions"):
            LabeledDataset(**self.columns(positions=np.zeros((2, NUM_JOINTS * 3))))

    def test_fractional_labels_are_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            LabeledDataset(**self.columns(labels=np.array([0.5, 1.0])))

    @pytest.mark.parametrize("label", [5, 7, -2])
    def test_a_label_outside_the_postures_is_unknown(self, label):
        with pytest.raises(UnknownLabel, match=str(label)):
            LabeledDataset(**self.columns(labels=np.array([0, label])))

    def test_plain_lists_build_typed_columns(self):
        ds = LabeledDataset(**{k: v.tolist() for k, v in self.columns().items()})
        assert len(ds) == 2
        assert ds.positions.dtype == np.float64 and ds.positions.shape == (2, NUM_JOINTS, 3)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, -1]
        assert ds.participants.dtype == object and ds.participants.tolist() == ["p00", "p01"]
        assert all(type(p) is str for p in ds.participants)
        assert ds.fingerprint == LabeledDataset(**self.columns()).fingerprint
