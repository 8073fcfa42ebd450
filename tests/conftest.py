import base64

import numpy as np
import pytest

from posturelab.features import normalizer
from posturelab.skeleton import NUM_JOINTS, JointId, Skeleton


def random_skeleton(rng: np.random.Generator, span: float = 1.0) -> Skeleton:
    """Random joint cloud with a non-degenerate spine segment."""
    while True:
        skel = Skeleton(rng.uniform(-span, span, (NUM_JOINTS, 3)))
        try:
            if normalizer(skel) > 1e-3:
                return skel
        except Exception:
            continue


def feature_stack() -> list[Skeleton]:
    """64 seeded random skeletons; in record 5 Head sits on Neck, a degenerate ray."""
    rng = np.random.default_rng(2018)
    skeletons = [random_skeleton(rng) for _ in range(64)]
    pos = skeletons[5].positions.copy()
    pos[JointId.Head] = pos[JointId.Neck]
    skeletons[5] = Skeleton(pos)
    return skeletons


def payload(arr, dtype="<f8") -> dict:
    """A model file's form of an array: dtype, shape, base64 of C-order bytes."""
    arr = np.ascontiguousarray(arr, dtype=dtype)
    data = base64.b64encode(arr.tobytes()).decode("ascii")
    return {"dtype": dtype, "shape": list(arr.shape), "data": data}


def unpayload(p: dict) -> np.ndarray:
    return np.frombuffer(base64.b64decode(p["data"]), p["dtype"]).reshape(p["shape"])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation matrix via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
