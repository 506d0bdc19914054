"""Corrupt binary artifacts fail as ValueError naming the file; writes are atomic."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placevision.binfile import write_atomic
from placevision.bovw import kmeans, read_vocabulary, write_vocabulary
from placevision.classify import Composite, KernelSpec, ThresholdSet, ova_train
from placevision.modelio import ClassifierModel, load_model, save_model
from placevision.sift import read_descriptor_shape, read_descriptors, write_descriptors

LOADERS = {
    "vocab.bin": read_vocabulary,
    "svm.bin": load_model,
    "nn.bin": load_model,
    "kp.desc": read_descriptors,
}


def _nn_model():
    items = Composite(
        (("rgb", "jeffrey", 0.6), ("bovw", "minkowski:1", 0.4)),
        (np.array([[0.2, 0.8], [0.9, 0.1]]), np.array([[0.5, 0.5], [0.1, 0.9]])),
    )
    return ClassifierModel("nn", "rgb:2:jeffrey:0.6|bovw:2:minkowski:1:0.4", ["a", "b"],
                           gallery=(["a", "b"], items), thresholds=ThresholdSet({"a": 0.25, "b": 0.5}))


def _random_features(rng, count, dim):
    """(keypoints (count, 4), values (count, dim)), drawn keypoint by keypoint."""
    rows = [(rng.random(4), rng.random(dim)) for _ in range(count)]
    return np.array([kp for kp, _ in rows]), np.array([v for _, v in rows])


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Bytes of one small valid file per binary format."""
    d = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(4)
    write_vocabulary(kmeans(rng.random((20, 4)), k=3, seed=1), d / "vocab.bin")
    x = np.vstack([rng.normal(0, 0.2, (4, 2)), rng.normal(2, 0.2, (4, 2))])
    svm = ova_train(x, ["down"] * 4 + ["up"] * 4, KernelSpec("rbf", sigma=0.9), c=4.0)
    save_model(ClassifierModel("svm", "rgb:8:jeffrey:1", svm.labels, svm=svm), d / "svm.bin")
    save_model(_nn_model(), d / "nn.bin")
    write_descriptors(_random_features(rng, 3, 8), d / "kp.desc")
    return {name: (d / name).read_bytes() for name in LOADERS}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_prefix_is_value_error_naming_the_file(tmp_path, valid, name):
    path = tmp_path / name
    data = valid[name]
    path.write_bytes(data)
    LOADERS[name](path)  # the whole file loads
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError) as exc:
            LOADERS[name](path)
        assert str(path) in str(exc.value), (cut, exc.value)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_trailing_bytes_are_value_error_naming_the_file(tmp_path, valid, name):
    path = tmp_path / name
    path.write_bytes(valid[name] + b"\0")
    with pytest.raises(ValueError, match="trailing bytes") as exc:
        LOADERS[name](path)
    assert str(path) in str(exc.value)


def test_descriptor_shape_is_read_from_the_header_and_checked_against_the_size(tmp_path, valid):
    path = tmp_path / "kp.desc"
    data = valid["kp.desc"]
    path.write_bytes(data)
    assert read_descriptor_shape(path) == (3, 8)
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match="truncated descriptor file") as exc:
            read_descriptor_shape(path)
        assert str(path) in str(exc.value), cut
    path.write_bytes(data + b"\0")
    with pytest.raises(ValueError, match=f"{path}: trailing bytes in descriptor file"):
        read_descriptor_shape(path)
    path.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(ValueError, match="not a descriptor file"):
        read_descriptor_shape(path)


@pytest.mark.parametrize("field, value", [(12, 2), (8, 64)])  # dim 128 -> 2, count 65 -> 64
def test_descriptor_file_with_corrupt_count_or_dim_is_value_error(tmp_path, field, value):
    path = tmp_path / "gallery.desc"
    write_descriptors(_random_features(np.random.default_rng(5), 65, 128), path)
    data = bytearray(path.read_bytes())
    data[field : field + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="trailing bytes in descriptor file"):
        read_descriptors(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", [0, 1])  # a keypoint field, a descriptor value
def test_non_finite_descriptor_value_is_value_error_naming_the_file(tmp_path, value, part):
    features = _random_features(np.random.default_rng(6), 3, 8)
    features[part][1, 2] = value
    path = tmp_path / "kp.desc"
    write_descriptors(features, path)
    with pytest.raises(ValueError, match="non-finite value in descriptor file") as exc:
        read_descriptors(path)
    assert str(path) in str(exc.value)


@given(
    name=st.sampled_from(sorted(LOADERS)),
    where=st.floats(0.0, 1.0, exclude_max=True),
    flip=st.integers(1, 255),
)
@settings(max_examples=400, deadline=None)
def test_single_byte_flip_loads_or_is_value_error(tmp_path_factory, valid, name, where, flip):
    data = bytearray(valid[name])
    data[int(where * len(data))] ^= flip
    path = tmp_path_factory.mktemp("flip") / name
    path.write_bytes(bytes(data))
    try:
        LOADERS[name](path)
    except ValueError:
        pass


def test_write_atomic_replaces_whole_or_not_at_all(tmp_path):
    path = tmp_path / "a.bin"
    write_atomic(path, [b"old"])
    write_atomic(path, [b"ne", b"w"])
    assert path.read_bytes() == b"new"

    def failing():
        yield b"partial"
        raise RuntimeError("disk gone")

    with pytest.raises(RuntimeError):
        write_atomic(path, failing())
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]
