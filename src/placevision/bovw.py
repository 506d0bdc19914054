"""Visual vocabularies and bag-of-visual-words encoding.

A vocabulary is an ordered list of k cluster centers in descriptor
space together with the distance used to build and query it.  Images
are encoded as the normalized histogram of nearest-word counts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

import numpy as np

from .binfile import Reader, pack_text, write_atomic
from .distances import get_measure, pairwise_distances, parse_measure
from .histograms import FeatureHistogram

DEFAULT_K = 100

_VOCAB_HEADER = b"PVVC" + struct.pack("<I", 1)  # tag, format version


@dataclass(frozen=True)
class Vocabulary:
    centers: np.ndarray  # (k, dim)
    distance_id: str = "euclidean"
    built_by: str = "kmeans"
    seed: int = 0
    cost_history: tuple = field(default=(), compare=False)

    def __post_init__(self):
        c = np.ascontiguousarray(self.centers, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError(f"centers must be a (k, dim) matrix, got {c.shape}")
        if not np.isfinite(c).all():
            raise ValueError("centers must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "centers", c)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class BowVector:
    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size < 1 or (w < 0).any():
            raise ValueError("weights must be a non-negative vector")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    def as_histogram(self) -> FeatureHistogram:
        return FeatureHistogram(self.weights, f"bovw:{self.weights.size}", normalized=True)


def _as_matrix(descriptors) -> np.ndarray:
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("descriptors must form a non-empty (n, dim) matrix")
    return x


def _is_euclidean(distance_id: str) -> bool:
    return parse_measure(distance_id)[1].get("r") == 2.0


def _distances_to(x: np.ndarray, distance_id: str):
    """Function of a (k, dim) center matrix giving the (n, k) distances from
    the rows of x.  Euclidean ones use the inner-product form of
    `sq_euclidean_gram`, with the row norms of x computed once here and the
    same operation order, in place."""
    if not _is_euclidean(distance_id):
        return lambda centers: pairwise_distances(distance_id, x, centers)
    xx = (x * x).sum(axis=1)[:, None]

    def euclidean(centers: np.ndarray) -> np.ndarray:
        d = xx + (centers * centers).sum(axis=1)[None, :]
        dots = x @ centers.T
        dots *= 2.0  # exact, so this equals (2.0 * x) @ centers.T bit for bit
        d -= dots
        np.maximum(d, 0.0, out=d)
        return np.sqrt(d, out=d)

    return euclidean


def kmeans(
    descriptors,
    k: int = DEFAULT_K,
    distance_id: str = "euclidean",
    seed: int = 0,
    max_iter: int = 100,
) -> Vocabulary:
    """Lloyd iterations with k-means++ seeding; deterministic given seed.

    Assignment uses the named distance, the update step is the
    arithmetic mean.  Under the Euclidean distance the within-cluster
    squared cost is checked to be non-increasing every iteration; for
    other assignment distances the mean update is a standard
    approximation and the cost trace is only recorded.
    """
    x = _as_matrix(descriptors)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    n_distinct = np.unique(x, axis=0).shape[0]
    if n_distinct < k:
        raise ValueError(f"need at least k={k} distinct descriptors, have {n_distinct}")
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    distances = _distances_to(x, distance_id)
    euclid = _is_euclidean(distance_id)

    # k-means++ seeding
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d = distances(centers[:1])[:, 0] ** 2
    for j in range(1, k):
        total = d.sum()
        # total <= 0 only when every row is at distance 0 from a center
        idx = rng.integers(n) if total <= 0 else rng.choice(n, p=d / total)
        centers[j] = x[idx]
        d = np.minimum(d, distances(centers[j : j + 1])[:, 0] ** 2)

    assign = np.full(n, -1)
    costs: List[float] = []
    for _ in range(max_iter):
        dists = distances(centers)
        new_assign = dists.argmin(axis=1)
        nearest = dists[np.arange(n), new_assign]
        cost = float((nearest**2).sum()) if euclid else float(nearest.sum())
        if costs and euclid and cost > costs[-1] + 1e-9 * max(1.0, costs[-1]):
            raise AssertionError("k-means cost increased between iterations")
        costs.append(cost)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        # each center is the mean of its rows, gathered in input order
        counts = np.bincount(assign, minlength=k)
        ends = np.cumsum(counts)
        members = np.argsort(assign, kind="stable")
        for j in np.flatnonzero(counts):
            centers[j] = x[members[ends[j] - counts[j] : ends[j]]].mean(axis=0)
        # re-seed empty clusters with the points farthest from their centers
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            centers[empty] = x[np.argsort(-nearest)[: empty.size]]
    return Vocabulary(centers, distance_id, "kmeans", seed, cost_history=tuple(costs))


def incremental_vocab(
    descriptors, threshold: float, distance_id: str = "euclidean"
) -> Vocabulary:
    """Order-sensitive single-pass vocabulary.

    Each descriptor is L1-normalized first; if its nearest existing word
    is within the threshold it is recognized, otherwise it becomes a new
    word.  Results depend on input order by construction.
    """
    x = _as_matrix(descriptors)
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    sums = np.abs(x).sum(axis=1)
    if (sums <= 0).any():
        raise ValueError("descriptors must have positive L1 norm")
    x = x / sums[:, None]
    measure = get_measure(distance_id)
    words = [x[0]]
    for row in x[1:]:
        best = min(measure(row, w) for w in words)
        if best > threshold:
            words.append(row)
    return Vocabulary(np.stack(words), distance_id, "incremental", 0)


def quantize(x, vocab: Vocabulary) -> int:
    """Index of the nearest visual word; ties break to the lowest index."""
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (vocab.dim,):
        raise ValueError(f"descriptor dim {v.shape} does not match vocabulary ({vocab.dim},)")
    d = _distances_to(v[None, :], vocab.distance_id)(vocab.centers)[0]
    return int(d.argmin())


def encode_image(descriptors, vocab: Vocabulary) -> BowVector:
    """Word-count histogram normalized to sum 1.

    An empty descriptor set is an error: a zero vector would break the
    unit-mass invariant downstream.
    """
    x = np.asarray(descriptors, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot encode an image with no descriptors")
    x = _as_matrix(x)
    d = _distances_to(x, vocab.distance_id)(vocab.centers)
    words = d.argmin(axis=1)
    counts = np.bincount(words, minlength=vocab.k).astype(np.float64)
    return BowVector(counts / counts.sum())


# ---------------------------------------------------------------------------
# vocabulary file: little-endian binary, plus a CSV export for inspection
# ---------------------------------------------------------------------------

def write_vocabulary(vocab: Vocabulary, path) -> None:
    sizes = struct.pack("<IIq", vocab.k, vocab.dim, vocab.seed)
    strings = pack_text(vocab.distance_id) + pack_text(vocab.built_by)
    write_atomic(path, [_VOCAB_HEADER, sizes, strings, np.asarray(vocab.centers, dtype="<f4").tobytes()])


def read_vocabulary(path) -> Vocabulary:
    r = Reader(path, _VOCAB_HEADER, "vocabulary")
    k, dim, seed = r.unpack("<IIq")
    did, built = r.text(), r.text()
    centers = r.array("<f4", k * dim).reshape(k, dim).astype(np.float64)
    r.end()
    return Vocabulary(centers, did, built, seed)


def write_vocabulary_csv(vocab: Vocabulary, path) -> None:
    lines = [f"# k={vocab.k} dim={vocab.dim} distance={vocab.distance_id} built_by={vocab.built_by} seed={vocab.seed}"]
    for row in vocab.centers:
        lines.append(",".join(f"{v:.9g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
