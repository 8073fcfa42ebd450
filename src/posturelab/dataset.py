"""Dataset and model files, plus the seeded synthetic dataset generator.

Dataset file: UTF-8, one JSON record per line, header line first. The header
carries the format version and a checksum of the canonical joint order; the
records carry exact joint and label spellings from the skeleton module.

Model file: a single versioned JSON document. Every array-valued parameter
is a payload {"dtype", "shape", "data"}: the little-endian dtype string of
its annotation, its shape, and the base64 of its C-order bytes (the idea of
NumPy's .npy format). Everything else stays readable JSON: the model kind,
class pairs and indices, kernels, biases, the feature config and the
fingerprints. Loading decodes the bytes, so a loaded model holds bit-identical
parameters and predicts identically.
"""
from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import operator
import sys
import types
from dataclasses import dataclass, is_dataclass
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin

import numpy as np
import numpy.typing as npt

from .classifiers import MODEL_KINDS, MulticlassModel
from .errors import (
    CorruptModel,
    DataError,
    DimensionMismatch,
    FingerprintMismatch,
    ParseError,
    UnknownLabel,
    VersionMismatch,
    array_dtype,
    choose,
    count,
    finite_real,
    integer,
    read_only,
    real,
    typed_fields,
)
from .features import FeatureConfig, config_fingerprint
from .poses import POSE_TEMPLATES, rotation_about_y
from .skeleton import (
    JOINT_NAMES,
    LABEL_NAMES,
    NUM_JOINTS,
    PostureLabel,
    Skeleton,
    check_finite,
    class_indices,
    validate_skeleton,
)

DATASET_FORMAT = "posturelab-dataset"
MODEL_FORMAT = "posturelab-model"
DATASET_VERSION = 1
MODEL_VERSION = 3  # 1 held arrays as nested JSON lists; 2 LDA/QDA precisions

_JOINT_CHECKSUM = hashlib.sha256(",".join(JOINT_NAMES).encode()).hexdigest()[:16]
_JOINTS_IN_ORDER = operator.itemgetter(*JOINT_NAMES)
# The label spelling of each class index; label -1 (unlabeled) reads the last.
LABEL_SPELLINGS = (*LABEL_NAMES, None)
# A record's label spelling -> its labels column value; absent or null is -1.
_LABEL_INDEX = {None: -1, **{name: i for i, name in enumerate(LABEL_NAMES)}}
_FLOAT_MAX = sys.float_info.max
_INT64_MAX = 2**63 - 1  # the largest count that numpy's repeat and integers take


@dataclass(frozen=True)
class LabeledDataset:
    """Records held once as read-only columns of one length n.

    positions is the (n, 25, 3) joint stack, finite (else a
    NonFiniteCoordinate naming the record); labels holds PostureLabel
    indices, -1 for an unlabeled record; participants (str), orientations_deg
    and distances_m (finite, else a DataError naming the record) carry the
    capture metadata. Record order is part of the identity: split
    determinism depends on it.
    """

    positions: npt.NDArray[np.float64]
    labels: npt.NDArray[np.int64]
    participants: npt.NDArray[np.object_]
    orientations_deg: npt.NDArray[np.float64]
    distances_m: npt.NDArray[np.float64]

    def __post_init__(self):
        # as given: read_only would cast the 1 of ["p00", 1] to "1"
        given = np.asarray(self.participants, dtype=object)
        n = (len(self.labels),)
        read_only(self, positions=(*n, NUM_JOINTS, 3), labels=n, participants=n,
                  orientations_deg=n, distances_m=n)
        check_finite(self.positions)  # what save_dataset and load_dataset require
        for name in ("orientations_deg", "distances_m"):  # so is the camera metadata
            column = getattr(self, name)
            if not np.isfinite(column).all():
                k = int(np.argmin(np.isfinite(column)))
                raise DataError(f"record {k}: {name} must be finite, got {column[k]}")
        class_indices(self.labels[self.labels != -1])
        for participant in given.tolist():  # save_dataset writes them as strings
            if not isinstance(participant, str):
                raise DataError(f"participant must be a string, got {participant!r}")

    def __len__(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def fingerprint(self) -> str:
        """First 16 hex digits of the sha256 of the content: the record
        count, the little-endian bytes of the numeric columns, then the JSON
        list of participants. Equal columns give an equal fingerprint, however
        a file spelled them."""
        h = hashlib.sha256(len(self).to_bytes(8, "little"))
        for column in (self.positions, self.labels, self.orientations_deg, self.distances_m):
            h.update(column.astype(column.dtype.newbyteorder("<"), copy=False).tobytes())
        h.update(json.dumps(self.participants.tolist()).encode())
        return h.hexdigest()[:16]

    def skeletons(self) -> list[Skeleton]:
        """One Skeleton per record, each a view of its row of positions."""
        return [Skeleton(p) for p in self.positions]

    def label_indices(self) -> np.ndarray:
        if self.labels.min(initial=0) < 0:  # argmin: the first -1
            raise DataError(f"record {self.labels.argmin()} has no label")
        return self.labels


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def record_lines(ds: LabeledDataset) -> list[str]:
    """Canonical one-line serialization of every record, in order."""
    columns = (ds.positions.tolist(), ds.labels.tolist(), ds.participants.tolist(),
               ds.orientations_deg.tolist(), ds.distances_m.tolist())
    return [
        _dumps({"participant": participant, "label": LABEL_SPELLINGS[label],
                "orientation_deg": orientation, "distance_m": distance,
                "joints": dict(zip(JOINT_NAMES, joints))})
        for joints, label, participant, orientation, distance in zip(*columns)
    ]


def save_dataset(ds: LabeledDataset, path, generator: dict | None = None) -> None:
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "joint_checksum": _JOINT_CHECKSUM,
        "generator": generator,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for line in record_lines(ds):
            fh.write(line + "\n")


def _validated(positions: list, lines: list[str], linenos: list[int]) -> np.ndarray:
    """The (n, 25, 3) stack of the records' positions, once validate_skeleton
    has rejected the first record with a non-finite or a JSON bool coordinate.
    np.array reads a bool as 0 or 1 ([true, 1.0, 2.0] as [1.0, 1.0, 2.0]), so a
    record holding a 0 or a 1 on a line that spells true or false is validated
    again, as is a record holding a NaN or an infinity."""
    stack = np.array(positions, dtype=np.float64).reshape(-1, NUM_JOINTS, 3)
    finite = np.isfinite(stack).all(axis=(1, 2))
    for k in np.flatnonzero(~finite | ((stack == 0) | (stack == 1)).any(axis=(1, 2))):
        line = lines[linenos[k] - 1]
        if not finite[k] or "true" in line or "false" in line:
            validate_skeleton(json.loads(line)["joints"], line=linenos[k])
    return stack


def load_dataset(path) -> LabeledDataset:
    """Parse and validate a dataset file; every error carries its line number."""
    data = Path(path).read_bytes()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as e:
        raise ParseError(data.count(b"\n", 0, e.start) + 1, "not UTF-8 text") from None
    if not lines:
        raise ParseError(1, "empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ParseError(1, f"bad header: {e.msg}") from None
    if not isinstance(header, dict) or header.get("format") != DATASET_FORMAT:
        raise ParseError(1, "not a posturelab dataset file")
    if header.get("version") != DATASET_VERSION:
        raise VersionMismatch(header.get("version"), DATASET_VERSION)
    if header.get("joint_checksum") != _JOINT_CHECKSUM:
        raise ParseError(1, "joint-order checksum mismatch")

    positions, labels, metadata, linenos = [], [], [], []
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if not line or line.isspace():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(lineno, f"bad record: {e.msg}") from None
            if not isinstance(rec, dict) or not isinstance(rec.get("joints"), dict):
                raise ParseError(lineno, "record must be an object with a 'joints' map")
            label = rec.get("label")
            try:
                labels.append(_LABEL_INDEX[label])
            except (KeyError, TypeError):
                if not isinstance(label, str):
                    raise ParseError(
                        lineno, f"label must be a string, got {json.dumps(label)}") from None
                raise UnknownLabel(label, lineno) from None
            try:  # one conversion; _validated checks finiteness for all records at once
                pos = np.array(_JOINTS_IN_ORDER(rec["joints"]))
                ok = pos.shape == (NUM_JOINTS, 3) and pos.dtype.kind in "iuf"
            except (KeyError, TypeError, ValueError):
                ok = False
            positions.append(pos if ok else validate_skeleton(rec["joints"], line=lineno).positions)
            linenos.append(lineno)
            camera = rec.get("orientation_deg", 0.0), rec.get("distance_m", 0.0)
            orientation, distance = camera  # a float in range passes on its type alone
            if not ((type(orientation) is float and abs(orientation) <= _FLOAT_MAX
                     and type(distance) is float and abs(distance) <= _FLOAT_MAX)
                    or all(map(finite_real, camera))):
                raise ParseError(
                    lineno, f"orientation_deg/distance_m must be finite numbers: {camera}")
            participant = rec.get("participant", "")
            if not isinstance(participant, str):
                raise ParseError(
                    lineno, f"participant must be a string, got {json.dumps(participant)}")
            metadata.append((participant, *camera))
    finally:  # before an error of a later line too, so that the first bad line is reported
        positions = _validated(positions, lines, linenos)
    participants, *camera = np.array(metadata, dtype=object).reshape(-1, 3).T
    return LabeledDataset(positions, np.array(labels, dtype=np.int64), participants,
                          *(column.astype(np.float64) for column in camera))


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass(frozen=True)
class SynthSpec:
    """Parameter space of the synthetic acquisition protocol.

    Per class: per_class records, each with an orientation and camera distance
    drawn from the given sets, a participant body scale drawn uniformly from
    scale_range, and i.i.d. Gaussian joint noise. Fully determined by seed.
    """

    seed: int = 0
    per_class: int = 208
    orientations_deg: tuple[float, ...] = (0.0, 90.0, 180.0, 270.0)
    distances_m: tuple[float, ...] = (1.0, 2.0, 3.0, 4.0)
    noise_std_m: float = 0.02
    scale_range: tuple[float, float] = (0.85, 1.15)
    participants: int = 13

    def __post_init__(self):
        count("seed", self.seed)
        for name in ("per_class", "participants"):
            if not 1 <= integer(name, getattr(self, name)) <= _INT64_MAX:
                raise ValueError(f"{name} must be in 1 to 2**63 - 1, got {getattr(self, name)}")
        if not real("noise_std_m", self.noise_std_m) >= 0:
            raise ValueError(f"noise_std_m must not be negative, got {self.noise_std_m}")
        lo, hi = (real("scale_range", v, positive=True) for v in self.scale_range)
        if not lo <= hi:
            raise ValueError(f"scale_range must satisfy min <= max, got {self.scale_range}")
        for name in ("orientations_deg", "distances_m"):
            values = tuple(sorted(float(real(name, v)) for v in getattr(self, name)))
            if not values:
                raise ValueError(f"{name} must not be empty")
            object.__setattr__(self, name, values)

    def to_dict(self) -> dict:
        return encode(SynthSpec, self)


def synth_generate(spec: SynthSpec) -> LabeledDataset:
    """Seeded synthetic dataset mirroring the acquisition protocol's shape."""
    labels = np.repeat(np.arange(len(PostureLabel)), spec.per_class)
    # Counter-based per-record seeding: parallel and sequential generation
    # agree. Each record's generator yields its draws in the order below.
    rngs = [np.random.default_rng((spec.seed, c)) for c in range(len(labels))]
    orientations = np.array([r.choice(spec.orientations_deg) for r in rngs])
    distances = np.array([r.choice(spec.distances_m) for r in rngs])
    scales = np.array([r.uniform(*spec.scale_range) for r in rngs])
    participants = np.array([f"p{r.integers(spec.participants):02d}" for r in rngs], dtype=object)
    rotations = np.array([rotation_about_y(math.radians(o)) for o in spec.orientations_deg])
    rotations = rotations[np.searchsorted(spec.orientations_deg, orientations)]  # sorted set
    offsets = np.zeros((len(labels), 1, 3))
    offsets[:, 0, 2] = distances
    pos = np.array([POSE_TEMPLATES[label] for label in PostureLabel])[labels]
    pos = pos * scales[:, None, None] @ rotations.transpose(0, 2, 1) + offsets
    if spec.noise_std_m > 0:
        pos = pos + np.array([r.normal(0.0, spec.noise_std_m, (NUM_JOINTS, 3)) for r in rngs])
    return LabeledDataset(pos, labels, participants, orientations, distances)


# ---------------------------------------------------------------------------
# Model files


@dataclass(frozen=True)
class ModelFile:
    """A trained model plus everything needed to apply it to new skeletons."""

    model: MulticlassModel
    feature_config: FeatureConfig
    dataset_fingerprint: str = ""

    def __post_init__(self):
        if config_fingerprint(self.feature_config) != self.model.fingerprint:
            raise FingerprintMismatch(f"the {self.feature_config.name} features do not have "
                                      f"the model's fingerprint {self.model.fingerprint}")
        if self.feature_config.length != self.model.dim:
            raise DimensionMismatch(f"the {self.feature_config.name} features have "
                                    f"{self.feature_config.length} values, the model "
                                    f"{self.model.dim}")


# The fields every model shares sit at the top level of the file, the others
# under "params": model field name -> top-level key.
_TOP_LEVEL_FIELDS = {
    "standardizer": "standardizer",
    "fingerprint": "feature_fingerprint",
    "seed": "seed",
}


def _item_types(tp, items) -> tuple:
    """Element types of tuple[T, ...] or tuple[T1, T2, ...] for these items."""
    args = get_args(tp)
    return (args[0],) * len(items) if args[-1] is Ellipsis else args


def encode(tp, value):
    """JSON form of a value of annotated type ``tp``: dataclasses as objects
    of their fields in field order, arrays as payloads of their bytes, tuples
    as lists, enums as their values, None as None; ``T | None`` encodes a
    value as a T."""
    if value is None:
        return None
    if is_dataclass(tp):
        return {name: encode(t, getattr(value, name)) for name, t in typed_fields(tp)}
    if get_origin(tp) is np.ndarray:
        dtype = array_dtype(tp).newbyteorder("<")
        arr = np.ascontiguousarray(value, dtype=dtype)
        data = base64.b64encode(arr.tobytes()).decode("ascii")
        return {"dtype": dtype.str, "shape": list(arr.shape), "data": data}
    if get_origin(tp) is tuple:
        return [encode(t, v) for t, v in zip(_item_types(tp, value), value)]
    if get_origin(tp) is types.UnionType:  # T | None
        return encode(get_args(tp)[0], value)
    value = tp(value)
    return value.value if isinstance(value, Enum) else value


def _decode_array(dtype: np.dtype, doc) -> np.ndarray:
    """Owned, aligned, native-order, read-only array of a payload of exactly
    this dtype."""
    if not isinstance(doc, dict) or doc.keys() != {"dtype", "shape", "data"}:
        raise ValueError("an array must be an object of dtype, shape and data")
    if doc["dtype"] != dtype.str:
        raise ValueError(f"array dtype {doc['dtype']!r}, expected {dtype.str!r}")
    shape = doc["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"array shape must be a list of non-negative ints: {shape!r}")
    data = base64.b64decode(doc["data"], validate=True)
    if len(data) != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"{len(data)} data bytes do not fill shape {shape}")
    arr = np.frombuffer(data, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError("array holds a non-finite value")
    arr.setflags(write=False)  # owned: the model holds it uncopied
    return arr


# The JSON values that a scalar field takes, by exact type: a bool is no
# number, and a float field takes an integer as JSON writes it.
_JSON_SCALARS = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}


def _decode(tp, doc):
    """Inverse of encode; array dtypes come from the annotation. A scalar must
    have its field's JSON type, and a non-finite float is rejected."""
    if is_dataclass(tp):
        return tp(**{name: _decode(t, doc[name]) for name, t in typed_fields(tp)})
    if get_origin(tp) is np.ndarray:
        return _decode_array(array_dtype(tp).newbyteorder("<"), doc)
    if get_origin(tp) is tuple:
        types = _item_types(tp, doc)
        return tuple(_decode(t, v) for t, v in zip(types, doc, strict=True))
    if tp in _JSON_SCALARS and type(doc) not in _JSON_SCALARS[tp]:
        raise ValueError(f"expected a {tp.__name__}, got {doc!r}")
    value = tp(doc)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite number {value!r}")
    return value


def model_file_to_dict(mf: ModelFile) -> dict:
    params = encode(type(mf.model), mf.model)
    doc = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "kind": type(mf.model).kind,
        "feature_config": encode(FeatureConfig, mf.feature_config),
        "dataset_fingerprint": mf.dataset_fingerprint,
    }
    doc.update({key: params.pop(name) for name, key in _TOP_LEVEL_FIELDS.items()})
    doc["params"] = params
    return doc


def model_file_from_dict(doc: dict) -> ModelFile:
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise CorruptModel("not a posturelab model file")
    if doc.get("version") != MODEL_VERSION:
        raise VersionMismatch(doc.get("version"), MODEL_VERSION, "retrain the model")
    try:
        cfg = _decode(FeatureConfig, doc["feature_config"])
        cls = MODEL_KINDS[choose("model kind", doc["kind"], MODEL_KINDS)]
        shared = {name: doc[key] for name, key in _TOP_LEVEL_FIELDS.items()}
        model = _decode(cls, {**doc["params"], **shared})
        return ModelFile(model, cfg, _decode(str, doc["dataset_fingerprint"]))
    except (KeyError, TypeError, ValueError, OverflowError, DataError) as e:
        raise CorruptModel(f"malformed model file: {e}") from None


def save_model(mf: ModelFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(model_file_to_dict(mf)) + "\n")


def load_model(path) -> ModelFile:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise CorruptModel(f"unreadable model file: {e.msg}") from None
    except UnicodeDecodeError:
        raise CorruptModel("unreadable model file: not UTF-8 text") from None
    return model_file_from_dict(doc)
