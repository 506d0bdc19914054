"""Versioned binary serialization for trained classifier models.

One container covers both families: per-class SVM machines (support
vectors, dual coefficients, bias, kernel spec) or a nearest-neighbor
gallery with per-class rejection thresholds.  The file records the
feature configuration id it was trained on; prediction on artifacts
with a different id must be refused by the caller.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .binfile import Reader, pack_text, write_atomic
from .classify import (
    BinarySvm,
    CompositeFeature,
    CompositePart,
    KernelSpec,
    SvmModel,
    ThresholdSet,
)

_MODEL_HEADER = b"PVMD" + struct.pack("<I", 1)  # tag, format version
_KINDS = ("svm", "nn")  # kind code = index


@dataclass
class ClassifierModel:
    kind: str  # "svm" | "nn"
    config_id: str
    labels: List[str]
    svm: Optional[SvmModel] = None
    gallery: Optional[List[Tuple[str, CompositeFeature]]] = None
    thresholds: Optional[ThresholdSet] = None

    def __post_init__(self):
        if self.kind == "svm" and self.svm is None:
            raise ValueError("svm model requires the trained machines")
        if self.kind == "nn" and (self.gallery is None or self.thresholds is None):
            raise ValueError("nn model requires a gallery and thresholds")


def _pack_f64(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def save_model(model: ClassifierModel, path) -> None:
    chunks = [_MODEL_HEADER, struct.pack("<B", _KINDS.index(model.kind))]
    chunks.append(pack_text(model.config_id))
    chunks.append(struct.pack("<I", len(model.labels)))
    chunks.extend(pack_text(lb) for lb in model.labels)

    if model.kind == "svm":
        svm = model.svm
        chunks.append(pack_text(svm.kernel_spec.id_string()))
        chunks.append(struct.pack("<d", svm.c))
        for lb in model.labels:
            m = svm.machines[lb]
            n_sv, dim = m.support_vectors.shape
            chunks.append(struct.pack("<IId", n_sv, dim, m.bias))
            chunks.append(_pack_f64(m.support_vectors))
            chunks.append(_pack_f64(m.dual_coef))
    else:
        ref = model.gallery[0][1]
        chunks.append(struct.pack("<I", len(ref.parts)))
        for p in ref.parts:
            chunks.append(pack_text(p.name))
            chunks.append(pack_text(p.measure_id))
            chunks.append(struct.pack("<dI", p.weight, len(p.vector)))
        chunks.append(struct.pack("<I", len(model.gallery)))
        label_index = {lb: i for i, lb in enumerate(model.labels)}
        for lb, feat in model.gallery:
            chunks.append(struct.pack("<I", label_index[lb]))
            for p in feat.parts:
                chunks.append(_pack_f64(p.vector))
        chunks.append(_pack_f64(np.array([model.thresholds.by_label[lb] for lb in model.labels])))
    write_atomic(path, chunks)


def load_model(path) -> ClassifierModel:
    r = Reader(path, _MODEL_HEADER, "model")
    (kind_code,) = r.unpack("<B")
    if kind_code >= len(_KINDS):
        raise ValueError(f"{path}: unknown model kind code {kind_code}")
    config_id = r.text()
    (n_labels,) = r.unpack("<I")
    labels = [r.text() for _ in range(n_labels)]

    if _KINDS[kind_code] == "svm":
        spec = KernelSpec.parse(r.text())
        (c,) = r.unpack("<d")
        machines: Dict[str, BinarySvm] = {}
        for lb in labels:
            n_sv, dim, bias = r.unpack("<IId")
            sv = r.array("<f8", n_sv * dim).reshape(n_sv, dim)
            coef = r.array("<f8", n_sv)
            machines[lb] = BinarySvm(sv.copy(), coef.copy(), bias, spec)
        r.end()
        return ClassifierModel("svm", config_id, labels, svm=SvmModel(labels, machines, spec, c))

    (n_parts,) = r.unpack("<I")
    part_meta = [(r.text(), r.text(), *r.unpack("<dI")) for _ in range(n_parts)]
    (n_items,) = r.unpack("<I")
    gallery = []
    for _ in range(n_items):
        (li,) = r.unpack("<I")
        if li >= n_labels:
            raise ValueError(f"{path}: gallery label index {li} out of range")
        parts = tuple(
            CompositePart(name, r.array("<f8", dim).copy(), measure, weight)
            for name, measure, weight, dim in part_meta
        )
        gallery.append((labels[li], CompositeFeature(parts)))
    thresholds = ThresholdSet(dict(zip(labels, r.array("<f8", n_labels).tolist())))
    r.end()
    return ClassifierModel("nn", config_id, labels, gallery=gallery, thresholds=thresholds)
