"""Versioned binary serialization for trained classifier models.

One container covers both families: per-class SVM machines (kernel spec,
one shared support-vector matrix, and per machine its row indices into
that matrix, dual coefficients and bias) or a nearest-neighbor gallery
with per-class rejection thresholds.  The file holds the record
of what the model was trained on, as the pipeline writes it; prediction
under a different record must be refused by the caller.

The SVM section is the kernel id and C, then once the ``<f8`` (rows, dim)
matrix of the rows that at least one machine uses, then for each label its
machine's bias, support-vector count, ``<u4`` row indices into that matrix
and ``<f8`` coefficients.  The NN gallery is its parts' (name, measure id,
weight, dim), then one ``<u4`` label index per item, then one ``<f8``
(items, dim) matrix per part.  Zero bytes start each of these arrays at a
multiple of 8 bytes, so the loaded row matrix and gallery are aligned views
of the file's bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .binfile import Reader, pack_text, write_atomic
from .classify import BinarySvm, Composite, KernelSpec, SvmModel, ThresholdSet
from .rules import POSITIVE

_MODEL_HEADER = b"PVMD" + struct.pack("<I", 4)  # tag, format version
_KINDS = ("svm", "nn")  # kind code = index


@dataclass
class ClassifierModel:
    kind: str  # "svm" | "nn"
    record: str
    labels: List[str]
    svm: Optional[SvmModel] = None
    gallery: Optional[Tuple[List[str], Composite]] = None
    thresholds: Optional[ThresholdSet] = None

    def __post_init__(self):
        if self.kind == "svm" and self.svm is None:
            raise ValueError("svm model requires the trained machines")
        if self.kind == "nn" and (self.gallery is None or self.thresholds is None):
            raise ValueError("nn model requires a gallery and thresholds")


def _f64(a: np.ndarray) -> np.ndarray:
    """a as a contiguous ``<f8`` array, written through the buffer protocol;
    a copy only when a is not one already."""
    return np.ascontiguousarray(a, dtype="<f8")


def _model_chunks(model: ClassifierModel):
    """The bytes of model.bin, chunk by chunk: no chunk holds more than one
    array of the model, which it is written from without a copy."""
    head = [_MODEL_HEADER, struct.pack("<B", _KINDS.index(model.kind)), pack_text(model.record),
            struct.pack("<I", len(model.labels)), *map(pack_text, model.labels)]
    if model.kind == "svm":
        svm = model.svm
        machines = [svm.machines[lb] for lb in model.labels]
        used = np.unique(np.concatenate([m.rows for m in machines]))
        head += [pack_text(svm.kernel_spec.id_string()),
                 struct.pack("<dII", svm.c, len(used), svm.store.shape[1])]
        yield from (*head, bytes(-sum(map(len, head)) % 8))
        yield from (_f64(svm.store[i]) for i in used)  # each a view of its row
        for m in machines:
            rows = np.searchsorted(used, m.rows).astype("<u4")
            yield from (struct.pack("<dI", m.bias, len(rows)), bytes(4), rows, bytes(-rows.nbytes % 8))
            yield _f64(m.dual_coef)
        return
    labels, items = model.gallery
    head.append(struct.pack("<I", len(items.parts)))
    for (name, measure, weight), m in zip(items.parts, items.matrices):
        head += [pack_text(name), pack_text(measure), struct.pack("<dI", weight, m.shape[1])]
    head.append(struct.pack("<I", len(items)))
    position = {lb: i for i, lb in enumerate(model.labels)}
    index = np.array([position[lb] for lb in labels], "<u4")
    yield from (*head, bytes(-sum(map(len, head)) % 8), index, bytes(-index.nbytes % 8))
    yield from (_f64(m) for m in items.matrices)
    yield _f64(np.array([model.thresholds.by_label[lb] for lb in model.labels]))


def save_model(model: ClassifierModel, path) -> None:
    write_atomic(path, _model_chunks(model))


def load_model(path) -> ClassifierModel:
    r = Reader(path, _MODEL_HEADER, "model")
    (kind_code,) = r.unpack("<B")
    if kind_code >= len(_KINDS):
        raise ValueError(f"{path}: unknown model kind code {kind_code}")
    record = r.text()
    (n_labels,) = r.unpack("<I")
    labels = [r.text() for _ in range(n_labels)]

    if _KINDS[kind_code] == "svm":
        spec = r.build(KernelSpec.parse, r.text())
        (c,) = r.unpack("<d")
        if not POSITIVE.admits(c):  # the rule of classifier.c
            raise ValueError(f"{path}: C must be {POSITIVE.text}, got {c!r}")
        n_rows, dim = r.unpack("<II")
        r.align()
        # a read-only aligned view of the file's bytes, which every machine indexes
        store = r.array("<f8", n_rows * dim).reshape(n_rows, dim)
        r.finite(store)
        machines: Dict[str, BinarySvm] = {}
        for lb in labels:
            bias, n_sv = r.unpack("<dI")
            r.align()
            rows = r.indices(n_sv, n_rows, "support vector row")
            r.align()
            coef = r.array("<f8", n_sv)
            r.finite(coef, bias)
            machines[lb] = BinarySvm(store, rows, coef, bias, spec)
        r.end()
        return ClassifierModel("svm", record, labels, svm=r.build(SvmModel, labels, machines, spec, c))

    (n_parts,) = r.unpack("<I")
    parts = [(r.text(), r.text(), *r.unpack("<dI")) for _ in range(n_parts)]
    (n_items,) = r.unpack("<I")
    r.align()
    index = r.indices(n_items, n_labels, "gallery label")
    r.align()
    # read-only aligned views of the file's bytes, which Composite freezes in place
    matrices = [r.array("<f8", n_items * dim).reshape(n_items, dim) for *_, dim in parts]
    r.finite(*matrices)
    items = r.build(Composite, [part[:3] for part in parts], matrices)
    gallery = ([labels[i] for i in index.tolist()], items)
    thresholds = r.build(ThresholdSet, dict(zip(labels, r.array("<f8", n_labels).tolist())))
    r.end()
    return ClassifierModel("nn", record, labels, gallery=gallery, thresholds=thresholds)
