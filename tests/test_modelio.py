import struct

import numpy as np
import pytest

from placevision.classify import (
    CompositeFeature,
    CompositePart,
    KernelSpec,
    ThresholdSet,
    ova_train,
)
from placevision.modelio import ClassifierModel, load_model, save_model


def test_svm_model_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    x = np.vstack([rng.normal([0, 0], 0.2, (8, 2)), rng.normal([2, 2], 0.2, (8, 2))])
    labels = ["down"] * 8 + ["up"] * 8
    svm = ova_train(x, labels, KernelSpec("rbf", sigma=0.9), c=4.0)
    model = ClassifierModel("svm", "rgb:1000:jeffrey:0.5|hsv:1800:bhattacharyya:0.5",
                            svm.labels, svm=svm)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "svm"
    assert back.config_id == model.config_id
    assert back.labels == ["down", "up"]
    assert back.svm.kernel_spec == svm.kernel_spec
    assert back.svm.c == 4.0
    for lb in svm.labels:
        a, b = svm.machines[lb], back.svm.machines[lb]
        assert np.array_equal(a.support_vectors, b.support_vectors)
        assert np.array_equal(a.dual_coef, b.dual_coef)
        assert a.bias == b.bias
    # decisions identical through the round trip
    assert np.array_equal(svm.scores(x), back.svm.scores(x))
    # identical content, identical bytes
    save_model(model, tmp_path / "model2.bin")
    assert path.read_bytes() == (tmp_path / "model2.bin").read_bytes()


def test_nn_model_round_trip(tmp_path):
    def cf(u, v):
        return CompositeFeature(
            (
                CompositePart("rgb", np.asarray(u, float), "jeffrey", 0.6),
                CompositePart("bovw", np.asarray(v, float), "minkowski:1", 0.4),
            )
        )

    gallery = [
        ("a", cf([0.2, 0.8], [0.5, 0.25, 0.25])),
        ("b", cf([0.9, 0.1], [0.1, 0.1, 0.8])),
        ("a", cf([0.3, 0.7], [0.6, 0.2, 0.2])),
    ]
    thresholds = ThresholdSet({"a": 0.25, "b": 0.5})
    model = ClassifierModel("nn", gallery[0][1].config_id(), ["a", "b"],
                            gallery=gallery, thresholds=thresholds)
    path = tmp_path / "nn.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "nn"
    assert back.thresholds.by_label == thresholds.by_label
    assert len(back.gallery) == 3
    for (la, fa), (lb, fb) in zip(gallery, back.gallery):
        assert la == lb
        assert fa.config_id() == fb.config_id()
        for pa, pb in zip(fa.parts, fb.parts):
            assert np.array_equal(pa.vector, pb.vector)


def test_model_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOTAMODEL")
    with pytest.raises(ValueError):
        load_model(p)


def test_model_container_validation():
    with pytest.raises(ValueError):
        ClassifierModel("svm", "cfg", ["a"])
    with pytest.raises(ValueError):
        ClassifierModel("nn", "cfg", ["a"], gallery=None, thresholds=None)


def _nn_model_bytes(tmp_path):
    gallery = [
        ("a", CompositeFeature((CompositePart("rgb", np.array([0.2, 0.8]), "jeffrey", 1.0),))),
        ("b", CompositeFeature((CompositePart("rgb", np.array([0.9, 0.1]), "jeffrey", 1.0),))),
    ]
    model = ClassifierModel("nn", gallery[0][1].config_id(), ["a", "b"], gallery=gallery,
                            thresholds=ThresholdSet({"a": 0.5, "b": 0.5}))
    save_model(model, tmp_path / "nn.bin")
    return bytearray((tmp_path / "nn.bin").read_bytes()), model


def test_model_file_rejects_unknown_kind_code(tmp_path):
    data, _ = _nn_model_bytes(tmp_path)
    data[8] = 2  # after magic and version: 0 svm, 1 nn
    p = tmp_path / "kind.bin"
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="unknown model kind"):
        load_model(p)


def test_model_file_rejects_out_of_range_gallery_label(tmp_path):
    data, model = _nn_model_bytes(tmp_path)
    texts = [model.config_id, *model.labels, "rgb", "jeffrey"]
    # magic, version, kind, the texts, n_labels, n_parts, weight+dim, n_items
    first_index = 4 + 5 + sum(4 + len(t) for t in texts) + 4 + 4 + 12 + 4
    assert data[first_index : first_index + 4] == struct.pack("<I", 0)
    data[first_index : first_index + 4] = struct.pack("<I", 7)
    p = tmp_path / "label.bin"
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="label index 7"):
        load_model(p)
