import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placevision.binfile import pack_text
from placevision.classify import (BinarySvm, Composite, KernelSpec, SvmModel, ThresholdSet, gram_matrix,
                                  ova_train)
from placevision.modelio import _MODEL_HEADER, ClassifierModel, load_model, save_model
from tests.test_bovw import BLOCK_ALLOWANCE
from tests.test_classify import labeled, make_cf


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
    assert back.record == model.record
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


@pytest.mark.parametrize("spec", [KernelSpec("linear"), KernelSpec("rbf", sigma=0.7), KernelSpec("chi2")],
                         ids=["linear", "rbf", "chi2"])
def test_svm_scores_are_each_machines_kernel_over_its_training_rows(tmp_path, spec):
    rng = np.random.default_rng(11)
    x = rng.random((3, 5))[np.arange(40) % 3] + 0.2 * rng.random((40, 5))
    labels = [f"room{i % 3}" for i in range(40)]
    svm = ova_train(x, labels, spec, c=2.0)
    queries = rng.random((9, 5))
    reference = np.stack([gram_matrix(queries, x[m.rows], spec) @ m.dual_coef + m.bias
                          for m in (svm.machines[lb] for lb in svm.labels)], axis=1)
    path = tmp_path / "model.bin"
    save_model(ClassifierModel("svm", "cfg", svm.labels, svm=svm), path)
    back = load_model(path).svm
    assert len(back.store) < len(x)  # only the rows some machine uses
    assert svm.scores(queries).tobytes() == reference.tobytes()
    assert back.scores(queries).tobytes() == reference.tobytes()


def test_nn_model_round_trip(tmp_path):
    def cf(u, v):
        return Composite(
            (("rgb", "jeffrey", 0.6), ("bovw", "minkowski:1", 0.4)),
            (np.asarray(u, float)[None, :], np.asarray(v, float)[None, :]),
        )

    gallery = labeled([
        ("a", cf([0.2, 0.8], [0.5, 0.25, 0.25])),
        ("b", cf([0.9, 0.1], [0.1, 0.1, 0.8])),
        ("a", cf([0.3, 0.7], [0.6, 0.2, 0.2])),
    ])
    thresholds = ThresholdSet({"a": 0.25, "b": 0.5})
    model = ClassifierModel("nn", "rgb:2:jeffrey:0.6|bovw:3:minkowski:1:0.4", ["a", "b"],
                            gallery=gallery, thresholds=thresholds)
    path = tmp_path / "nn.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "nn"
    assert back.thresholds.by_label == thresholds.by_label
    assert len(back.gallery[1]) == 3
    assert back.gallery[0] == gallery[0]
    assert back.gallery[1].parts == gallery[1].parts
    for ma, mb in zip(gallery[1].matrices, back.gallery[1].matrices):
        assert np.array_equal(ma, mb)


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
    gallery = labeled([
        ("a", make_cf([0.2, 0.8], "jeffrey", "rgb")),
        ("b", make_cf([0.9, 0.1], "jeffrey", "rgb")),
    ])
    model = ClassifierModel("nn", "rgb:2:jeffrey:1", ["a", "b"], gallery=gallery,
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
    texts = [model.record, *model.labels, "rgb", "jeffrey"]
    # magic, version, kind, the texts, n_labels, n_parts, weight+dim, n_items,
    # then zero bytes up to a multiple of 8
    first_index = 4 + 5 + sum(4 + len(t) for t in texts) + 4 + 4 + 12 + 4
    first_index += -first_index % 8
    assert data[first_index : first_index + 4] == struct.pack("<I", 0)
    data[first_index : first_index + 4] = struct.pack("<I", 7)
    p = tmp_path / "label.bin"
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="label index 7"):
        load_model(p)


def _patched_model(tmp_path, model, old: bytes, new: bytes):
    """model.bin of ``model`` with the one occurrence of ``old`` replaced by ``new``."""
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = path.read_bytes()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))
    return path


_NAN = struct.pack("<d", np.nan)


def _svm_model():
    spec = KernelSpec("rbf", sigma=1.5)
    store = np.array([[0.125, 0.375], [0.25, 0.5]])
    machines = {
        "a": BinarySvm(store, np.array([0]), np.array([0.625]), 0.875, spec),
        "b": BinarySvm(store, np.array([1]), np.array([-0.625]), -0.875, spec),
    }
    return ClassifierModel("svm", "cfg", ["a", "b"], svm=SvmModel(["a", "b"], machines, spec, 4.0))


def _nn_model():
    gallery = labeled([("a", make_cf([0.125, 0.875], "jeffrey", "rgb")),
                       ("b", make_cf([0.375, 0.625], "jeffrey", "rgb"))])
    return ClassifierModel("nn", "rgb:2:jeffrey:1", ["a", "b"], gallery=gallery,
                           thresholds=ThresholdSet({"a": 0.25, "b": 0.75}))


@pytest.mark.parametrize("model, old, new, message", [
    (_svm_model, b"rbf:1.5", b"rbX:1.5", "unknown kernel 'rbX:1.5'"),
    (_svm_model, struct.pack("<d", 0.375), _NAN, "non-finite value in model file"),  # support vector
    (_svm_model, struct.pack("<d", 0.625), _NAN, "non-finite value in model file"),  # coefficient
    (_svm_model, struct.pack("<d", -0.875), _NAN, "non-finite value in model file"),  # bias
    (_nn_model, struct.pack("<d", 0.75), _NAN, "threshold for 'b' must be finite, got nan"),
    (_nn_model, struct.pack("<d", 0.375), _NAN, "non-finite value in model file"),  # gallery row
    (_svm_model, b"rbf:1.5", b"rbf:nan", "sigma must be a finite number > 0, got nan"),
    (_svm_model, b"rbf:1.5", b"rbf:0.0", "sigma must be a finite number > 0, got 0.0"),
    (_svm_model, b"rbf:1.5", b"rbf:-1.", "sigma must be a finite number > 0, got -1.0"),
    (_svm_model, b"rbf:1.5", b"rbf:1:5", "kernel 'rbf:1:5': rbf takes only sigma"),
    (_svm_model, struct.pack("<d", 4.0), _NAN, "C must be a finite number > 0, got nan"),
    (_svm_model, struct.pack("<d", 4.0), struct.pack("<d", 0.0), "C must be a finite number > 0, got 0.0"),
    (_svm_model, struct.pack("<d", 4.0), struct.pack("<d", -4.0), "C must be a finite number > 0, got -4.0"),
], ids=["kernel", "support-vector", "coefficient", "bias", "threshold", "gallery-row", "sigma-nan",
        "sigma-zero", "sigma-negative", "kernel-parameters", "c-nan", "c-zero", "c-negative"])
def test_bad_model_value_is_an_error_naming_the_file(tmp_path, model, old, new, message):
    path = _patched_model(tmp_path, model(), old, new)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_model(path)


def _reference_nn_bytes(model):
    """model.bin of an NN model written field by field: the reference layout,
    one label index per item, then one matrix per part, each array starting
    at a multiple of 8 bytes."""
    labels, items = model.gallery
    chunks = [_MODEL_HEADER, struct.pack("<B", 1), pack_text(model.record)]
    chunks.append(struct.pack("<I", len(model.labels)))
    chunks.extend(pack_text(lb) for lb in model.labels)
    chunks.append(struct.pack("<I", len(items.parts)))
    for (name, measure, weight), m in zip(items.parts, items.matrices):
        chunks += [pack_text(name), pack_text(measure), struct.pack("<dI", weight, m.shape[1])]
    chunks.append(struct.pack("<I", len(items)))
    chunks.append(bytes(-len(b"".join(chunks)) % 8))
    chunks.extend(struct.pack("<I", model.labels.index(lb)) for lb in labels)
    chunks.append(bytes(4 * (len(labels) % 2)))
    for m in items.matrices:
        chunks.extend(struct.pack("<d", v) for v in m.ravel())
    chunks.append(np.array([model.thresholds.by_label[lb] for lb in model.labels], "<f8").tobytes())
    return b"".join(chunks)


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 50), min_size=1, max_size=3),
    n_items=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
def test_nn_gallery_is_a_label_array_then_one_matrix_per_part(tmp_path_factory, dims, n_items, seed):
    rng = np.random.default_rng(seed)
    classes = ["kitchen", "office", "corridor"]
    labels = [classes[i] for i in rng.permutation(np.arange(n_items) % len(classes))]
    weights = rng.random(len(dims)) + 0.1
    parts = [(f"p{i}", "euclidean", w / weights.sum()) for i, w in enumerate(weights)]
    items = Composite(parts, [rng.random((n_items, d)) for d in dims])
    used = sorted(set(labels))
    model = ClassifierModel("nn", "cfg", used, gallery=(labels, items),
                            thresholds=ThresholdSet(dict(zip(used, rng.random(len(used))))))
    path = tmp_path_factory.mktemp("layout") / "model.bin"
    save_model(model, path)
    assert path.read_bytes() == _reference_nn_bytes(model)
    again = path.with_name("again.bin")
    save_model(load_model(path), again)
    assert again.read_bytes() == path.read_bytes()


def _reference_svm_bytes(model):
    """model.bin of an SVM model written field by field: the reference layout,
    the used rows once, then each machine's bias, count, row indices into
    them and coefficients, each array starting at a multiple of 8 bytes."""
    svm = model.svm
    used = sorted({int(i) for m in svm.machines.values() for i in m.rows})
    chunks = [_MODEL_HEADER, struct.pack("<B", 0), pack_text(model.record)]
    chunks.append(struct.pack("<I", len(model.labels)))
    chunks.extend(pack_text(lb) for lb in model.labels)
    chunks.append(pack_text(svm.kernel_spec.id_string()))
    chunks.append(struct.pack("<dII", svm.c, len(used), svm.store.shape[1]))
    chunks.append(bytes(-len(b"".join(chunks)) % 8))
    chunks.extend(struct.pack("<d", v) for i in used for v in svm.store[i])
    for lb in model.labels:
        m = svm.machines[lb]
        chunks += [struct.pack("<dI", m.bias, len(m.rows)), bytes(4)]
        chunks.extend(struct.pack("<I", used.index(int(i))) for i in m.rows)
        chunks.append(bytes(4 * (len(m.rows) % 2)))
        chunks.extend(struct.pack("<d", v) for v in m.dual_coef)
    return b"".join(chunks)


@settings(max_examples=60, deadline=None)
@given(
    n_rows=st.integers(1, 20),
    dim=st.integers(1, 12),
    n_labels=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
def test_svm_section_is_the_used_rows_once_then_each_machines_indices(tmp_path_factory, n_rows, dim,
                                                                      n_labels, seed):
    rng = np.random.default_rng(seed)
    store = rng.random((n_rows, dim))
    spec = KernelSpec("rbf", sigma=0.5)
    labels = [f"room{i}" for i in range(n_labels)]
    machines = {}
    for lb in labels:
        rows = np.flatnonzero(rng.random(n_rows) < 0.5)  # ascending, maybe none, maybe shared
        machines[lb] = BinarySvm(store, rows, rng.normal(size=len(rows)), float(rng.normal()), spec)
    model = ClassifierModel("svm", "cfg", labels, svm=SvmModel(labels, machines, spec, 2.5))
    path = tmp_path_factory.mktemp("layout") / "model.bin"
    save_model(model, path)
    assert path.read_bytes() == _reference_svm_bytes(model)
    back = load_model(path)
    for lb in labels:
        assert back.svm.machines[lb].support_vectors.tobytes() == machines[lb].support_vectors.tobytes()
    again = path.with_name("again.bin")
    save_model(back, again)
    assert again.read_bytes() == path.read_bytes()


def _first_row_index_offset(model, data: bytes) -> int:
    """Where the first machine's first row index sits in the bytes of model.bin."""
    store = model.svm.store.tobytes()
    assert data.count(store) == 1
    return data.index(store) + len(store) + 16  # after the store, the bias, the count and 4 zero bytes


def test_out_of_range_support_vector_row_is_an_error_naming_the_file(tmp_path):
    model = _svm_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    data = bytearray(path.read_bytes())
    at = _first_row_index_offset(model, data)
    assert data[at : at + 4] == struct.pack("<I", 0)
    data[at : at + 4] = struct.pack("<I", 2)  # the store has rows 0 and 1
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: support vector row index 2 out of range')}$"):
        load_model(path)


def _big_svm_model() -> ClassifierModel:
    """Four linear machines of 400 support vectors each, over a shared store of
    1,600 rows in 256 dims: 3.3 MB."""
    rng = np.random.default_rng(8)
    labels = ["a", "b", "c", "d"]
    spec = KernelSpec("linear")
    store = rng.random((1600, 256))
    machines = {lb: BinarySvm(store, np.arange(i, 1600, 4), rng.normal(size=400), 0.5, spec)
                for i, lb in enumerate(labels)}
    return ClassifierModel("svm", "cfg", labels, svm=SvmModel(labels, machines, spec, 10.0))


def _big_nn_model() -> ClassifierModel:
    """A gallery of 4,000 items of two 64-dim parts: 4.1 MB."""
    rng = np.random.default_rng(9)
    labels = ["a", "b", "c"]
    items = Composite((("p0", "euclidean", 0.5), ("p1", "euclidean", 0.5)),
                      (rng.random((4000, 64)), rng.random((4000, 64))))
    return ClassifierModel("nn", "cfg", labels, gallery=([labels[i % 3] for i in range(4000)], items),
                           thresholds=ThresholdSet({lb: 0.5 for lb in labels}))


@pytest.mark.parametrize("build", [_big_svm_model, _big_nn_model])
def test_save_model_holds_no_copy_of_the_model(tmp_path, build):
    model = build()  # held before tracing
    path = tmp_path / "model.bin"
    tracemalloc.start()
    try:
        save_model(model, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < BLOCK_ALLOWANCE, peak
    assert path.stat().st_size > BLOCK_ALLOWANCE  # so one copy of the model would fail


def test_load_model_holds_the_nn_gallery_as_views_of_the_file(tmp_path):
    path = tmp_path / "model.bin"
    save_model(_big_nn_model(), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        model = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes, once, and the label list: no copy of the gallery
    assert peak < size + (1 << 18), (peak, size)
    for m in model.gallery[1].matrices:
        assert m.flags.c_contiguous and m.flags.aligned and not m.flags.writeable


def test_load_model_holds_the_svm_rows_once_as_views_of_the_file(tmp_path):
    path = tmp_path / "model.bin"
    save_model(_big_svm_model(), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        svm = load_model(path).svm
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file's bytes, once: no machine holds a copy of its support vectors
    assert peak < size + (1 << 18), (peak, size)
    assert size > 3 << 20
    store = svm.store
    assert store.shape == (1600, 256)
    assert store.flags.c_contiguous and store.flags.aligned and not store.flags.writeable
    assert all(m.store is store for m in svm.machines.values())
