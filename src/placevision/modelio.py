"""Versioned binary serialization for trained classifier models.

One container covers both families: per-class SVM machines (support
vectors, dual coefficients, bias, kernel spec) or a nearest-neighbor
gallery with per-class rejection thresholds.  The file holds the record
of what the model was trained on, as the pipeline writes it; prediction
under a different record must be refused by the caller.

The NN gallery is its parts' (name, measure id, weight, dim), then one
packed record per item: its ``<u4`` label index, then its ``<f8`` row of
each part.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .binfile import Reader, pack_text, write_atomic
from .classify import BinarySvm, Composite, KernelSpec, SvmModel, ThresholdSet
from .rules import POSITIVE

_MODEL_HEADER = b"PVMD" + struct.pack("<I", 2)  # tag, format version
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


def _gallery_record(dims: Sequence[int]) -> list:
    """The dtype spec of one gallery item: label index, then each part's row."""
    return [("label", "<u4"), *((f"p{i}", "<f8", (d,)) for i, d in enumerate(dims))]


_BLOCK_BYTES = 1 << 18  # gallery records packed at a time


def _model_chunks(model: ClassifierModel):
    """The bytes of model.bin, chunk by chunk: no chunk holds more than one
    array of the model or one bounded block of gallery records."""
    yield _MODEL_HEADER
    yield struct.pack("<B", _KINDS.index(model.kind))
    yield pack_text(model.record)
    yield struct.pack("<I", len(model.labels))
    yield from (pack_text(lb) for lb in model.labels)

    if model.kind == "svm":
        svm = model.svm
        yield pack_text(svm.kernel_spec.id_string())
        yield struct.pack("<d", svm.c)
        for lb in model.labels:
            m = svm.machines[lb]
            n_sv, dim = m.support_vectors.shape
            yield struct.pack("<IId", n_sv, dim, m.bias)
            yield _f64(m.support_vectors)
            yield _f64(m.dual_coef)
        return
    labels, items = model.gallery
    yield struct.pack("<I", len(items.parts))
    for (name, measure, weight), m in zip(items.parts, items.matrices):
        yield from (pack_text(name), pack_text(measure), struct.pack("<dI", weight, m.shape[1]))
    record = np.dtype(_gallery_record([m.shape[1] for m in items.matrices]))
    yield struct.pack("<I", len(items))
    rows = max(1, _BLOCK_BYTES // record.itemsize)
    for start in range(0, len(items), rows):
        block = np.empty(min(rows, len(items) - start), record)
        block["label"] = [model.labels.index(lb) for lb in labels[start : start + rows]]
        for i, m in enumerate(items.matrices):
            block[f"p{i}"] = m[start : start + rows]
        yield block
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
        machines: Dict[str, BinarySvm] = {}
        for lb in labels:
            n_sv, dim, bias = r.unpack("<IId")
            sv = r.array("<f8", n_sv * dim).reshape(n_sv, dim)
            coef = r.array("<f8", n_sv)
            r.finite(sv, coef, bias)
            machines[lb] = BinarySvm(sv.copy(), coef.copy(), bias, spec)
        r.end()
        return ClassifierModel("svm", record, labels, svm=SvmModel(labels, machines, spec, c))

    (n_parts,) = r.unpack("<I")
    parts = [(r.text(), r.text(), *r.unpack("<dI")) for _ in range(n_parts)]
    (n_items,) = r.unpack("<I")
    records = r.array(_gallery_record([dim for *_, dim in parts]), n_items)
    bad = np.flatnonzero(records["label"] >= n_labels)
    if bad.size:
        raise ValueError(f"{path}: gallery label index {records['label'][bad[0]]} out of range")
    matrices = [records[f"p{i}"] for i in range(n_parts)]
    r.finite(*matrices)
    items = r.build(Composite, [part[:3] for part in parts], matrices)
    gallery = ([labels[i] for i in records["label"].tolist()], items)
    thresholds = r.build(ThresholdSet, dict(zip(labels, r.array("<f8", n_labels).tolist())))
    r.end()
    return ClassifierModel("nn", record, labels, gallery=gallery, thresholds=thresholds)
