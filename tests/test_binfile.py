"""Corrupt binary artifacts fail as ValueError naming the file; writes are atomic."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placevision.binfile import write_atomic
from placevision.bovw import kmeans, read_vocabulary, write_vocabulary
from placevision.classify import (
    CompositeFeature,
    CompositePart,
    KernelSpec,
    ThresholdSet,
    ova_train,
)
from placevision.modelio import ClassifierModel, load_model, save_model
from placevision.sift import Descriptor, Keypoint, read_descriptors, write_descriptors

LOADERS = {
    "vocab.bin": read_vocabulary,
    "svm.bin": load_model,
    "nn.bin": load_model,
    "kp.desc": read_descriptors,
}


def _nn_model():
    def cf(u, v):
        return CompositeFeature(
            (
                CompositePart("rgb", np.asarray(u, float), "jeffrey", 0.6),
                CompositePart("bovw", np.asarray(v, float), "minkowski:1", 0.4),
            )
        )

    gallery = [("a", cf([0.2, 0.8], [0.5, 0.5])), ("b", cf([0.9, 0.1], [0.1, 0.9]))]
    return ClassifierModel("nn", gallery[0][1].config_id(), ["a", "b"], gallery=gallery,
                           thresholds=ThresholdSet({"a": 0.25, "b": 0.5}))


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
    items = []
    for _ in range(3):
        kp = Keypoint(*rng.random(4), octave=0, layer=1)
        items.append((kp, Descriptor(rng.random(8), kp)))
    write_descriptors(items, d / "kp.desc")
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


@pytest.mark.parametrize("field, value", [(12, 2), (8, 64)])  # dim 128 -> 2, count 65 -> 64
def test_descriptor_file_with_corrupt_count_or_dim_is_value_error(tmp_path, field, value):
    rng = np.random.default_rng(5)
    items = []
    for _ in range(65):
        kp = Keypoint(*rng.random(4), octave=0, layer=1)
        items.append((kp, Descriptor(rng.random(128), kp)))
    path = tmp_path / "gallery.desc"
    write_descriptors(items, path)
    data = bytearray(path.read_bytes())
    data[field : field + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="trailing bytes in descriptor file"):
        read_descriptors(path)


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
