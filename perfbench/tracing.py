"""Outside-in tracing: spans and counts around the public placevision functions.

Nothing in ``src/`` knows about this module.  ``Tracer.install`` replaces a
function in every ``placevision.*`` module namespace that holds it, so a call
is timed wherever it is looked up: ``placevision.sift.refine_keypoint`` inside
``_detect_oriented_keypoints`` as well as ``placevision.pipeline.extract_sift``
inside the features stage.  Spans and counts stay in memory until ``dump``.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Hooks run after the wrapped call returns; they turn arguments and results
# into counts at the layer boundary where the work happens.
def _on_rows(t, args, kwargs, result):
    t.count("pipeline.rows", len(args[0].rows))


def _on_load(t, args, kwargs, result):
    t.count("image.load_pnm_calls")


def _on_extrema(t, args, kwargs, result):
    t.count("sift.candidates", len(result))


def _on_refine(t, args, kwargs, result):
    t.count("sift.refine_calls")
    t.count("sift.refine_accepted", result is not None)


def _on_orientation(t, args, kwargs, result):
    t.count("sift.orientation_calls")
    t.count("sift.oriented_keypoints", len(result))


def _on_descriptor(t, args, kwargs, result):
    t.count("sift.descriptor_calls")
    t.count("sift.descriptor_kept", result is not None)


def _on_extract(t, args, kwargs, result):
    t.sample("sift.keypoints_per_image", len(result))


def _on_desc_write(t, args, kwargs, result):
    t.count("sift.desc_bytes", _file_bytes(args[1]))


def _on_desc_read(t, args, kwargs, result):
    t.count("sift.desc_bytes", _file_bytes(args[0]))


def _on_kmeans(t, args, kwargs, result):
    t.count("bovw.kmeans_iters", len(result.cost_history))


def _on_pairwise(t, args, kwargs, result):
    q = np.atleast_2d(args[1])
    t.count("distances.pairwise_cells", q.shape[0] * result.shape[1] * q.shape[1])


def _on_svm_train(t, args, kwargs, result):
    t.count("classify.support_vectors", sum(len(m.support_vectors) for m in result.machines.values()))


def _on_model_write(t, args, kwargs, result):
    t.count("modelio.model_bytes", _file_bytes(args[1]))


def _on_model_read(t, args, kwargs, result):
    t.count("modelio.model_bytes", _file_bytes(args[0]))


# (module, function, span name, hook).  Several functions may share a span
# name; the layer's time is then their summed self time.
WRAPPED = [
    ("pipeline", "run_features", "pipeline.features", _on_rows),
    ("pipeline", "run_vocab", "pipeline.vocab", None),
    ("pipeline", "run_encode", "pipeline.encode", None),
    ("pipeline", "run_train", "pipeline.train", None),
    ("pipeline", "run_predict", "pipeline.predict", None),
    ("pipeline", "run_evaluate", "pipeline.evaluate", None),
    ("image", "load_pnm", "image.load_pnm", _on_load),
    ("image", "gaussian_blur", "image.gaussian_blur", None),
    ("histograms", "rgb_histogram", "histograms.compute", None),
    ("histograms", "hsv_histogram", "histograms.compute", None),
    ("histograms", "normalize_l1", "histograms.compute", None),
    ("histograms", "write_histogram_csv", "histograms.csv_write", None),
    ("histograms", "read_histogram_csv", "histograms.csv_read", None),
    ("sift", "extract_sift", "sift.extract", _on_extract),
    ("sift", "build_scale_space", "sift.scale_space", None),
    ("sift", "build_dog", "sift.dog", None),
    ("sift", "detect_extrema", "sift.extrema", _on_extrema),
    ("sift", "refine_keypoint", "sift.refine", _on_refine),
    ("sift", "assign_orientations", "sift.orientation", _on_orientation),
    ("sift", "compute_descriptor", "sift.descriptor", _on_descriptor),
    ("sift", "write_descriptors", "sift.desc_io", _on_desc_write),
    ("sift", "read_descriptors", "sift.desc_io", _on_desc_read),
    ("bovw", "kmeans", "bovw.kmeans", _on_kmeans),
    ("bovw", "encode_image", "bovw.encode", None),
    ("distances", "pairwise_distances", "distances.pairwise", _on_pairwise),
    ("classify", "nn_distances", "classify.nn_distances", None),
    ("classify", "ga_optimize_thresholds", "classify.ga", None),
    ("classify", "ova_train", "classify.svm_train", _on_svm_train),
    ("modelio", "save_model", "modelio.io", _on_model_write),
    ("modelio", "load_model", "modelio.io", _on_model_read),
    ("evaluate", "build_report", "evaluate.report", None),
    ("evaluate", "write_report", "evaluate.report", None),
]


class Tracer:
    """Nested spans ``[name, start, end, parent index, request id]`` plus counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.request = None
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def count(self, name, n=1):
        self.counts[name] += int(n)

    def sample(self, name, value):
        self.samples[name].append(value)

    def wrap(self, fn, name, hook=None):
        perf_counter = time.perf_counter
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, table=WRAPPED):
        """Wrap each listed function in every placevision namespace holding it."""
        namespaces = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "placevision" or n.startswith("placevision."))
        ]
        for module, func, name, hook in table:
            original = getattr(sys.modules[f"placevision.{module}"], func)
            traced = self.wrap(original, name, hook)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, traced)
                        self._patched.append((ns, attr, original))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()

    def self_times(self):
        """Span name -> summed self time: duration minus the child spans' time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def dump(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "request"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "samples": {k: list(v) for k, v in self.samples.items()},
                },
                fh,
            )
