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

from .distances import get_measure, pairwise_distances, parse_measure, sq_euclidean_gram
from .histograms import FeatureHistogram

DEFAULT_K = 100

_VOCAB_MAGIC = b"PVVC"
_VOCAB_VERSION = 1


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


def _center_distances(x: np.ndarray, centers: np.ndarray, distance_id: str) -> np.ndarray:
    """(n, k) row-to-center distances, Euclidean ones by the inner-product form."""
    if _is_euclidean(distance_id):
        return np.sqrt(sq_euclidean_gram(x, centers))
    return pairwise_distances(distance_id, x, centers)


def _kmeans_pp_init(x: np.ndarray, k: int, distance_id: str, rng) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centers[0] = x[first]
    d = _center_distances(x, centers[:1], distance_id)[:, 0] ** 2
    for j in range(1, k):
        total = d.sum()
        if total <= 0:
            # all remaining points coincide with a center; pick any distinct row
            fresh = np.nonzero(d > 0)[0]
            idx = int(fresh[0]) if fresh.size else int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d / total))
        centers[j] = x[idx]
        d = np.minimum(d, _center_distances(x, centers[j : j + 1], distance_id)[:, 0] ** 2)
    return centers


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
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(x, k, distance_id, rng)
    euclid = _is_euclidean(distance_id)

    assign = np.full(x.shape[0], -1)
    costs: List[float] = []
    for _ in range(max_iter):
        dists = _center_distances(x, centers, distance_id)
        new_assign = dists.argmin(axis=1)
        nearest = dists[np.arange(x.shape[0]), new_assign]
        cost = float((nearest**2).sum()) if euclid else float(nearest.sum())
        if costs and euclid and cost > costs[-1] + 1e-9 * max(1.0, costs[-1]):
            raise AssertionError("k-means cost increased between iterations")
        costs.append(cost)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = x[assign == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        # re-seed empty clusters with the point farthest from its center
        empty = [j for j in range(k) if not np.any(assign == j)]
        if empty:
            order = np.argsort(-nearest)
            for slot, j in enumerate(empty):
                centers[j] = x[order[slot]]
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
    d = _center_distances(v[None, :], vocab.centers, vocab.distance_id)[0]
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
    d = _center_distances(x, vocab.centers, vocab.distance_id)
    words = d.argmin(axis=1)
    counts = np.bincount(words, minlength=vocab.k).astype(np.float64)
    return BowVector(counts / counts.sum())


# ---------------------------------------------------------------------------
# vocabulary file: little-endian binary, plus a CSV export for inspection
# ---------------------------------------------------------------------------

def write_vocabulary(vocab: Vocabulary, path) -> None:
    did = vocab.distance_id.encode("utf-8")
    built = vocab.built_by.encode("utf-8")
    head = _VOCAB_MAGIC + struct.pack(
        "<IIIqI", _VOCAB_VERSION, vocab.k, vocab.dim, vocab.seed, len(did)
    )
    head += did + struct.pack("<I", len(built)) + built
    Path(path).write_bytes(head + np.asarray(vocab.centers, dtype="<f4").tobytes())


def read_vocabulary(path) -> Vocabulary:
    data = Path(path).read_bytes()
    if data[:4] != _VOCAB_MAGIC:
        raise ValueError(f"{path}: not a vocabulary file")
    version, k, dim, seed, did_len = struct.unpack_from("<IIIqI", data, 4)
    if version != _VOCAB_VERSION:
        raise ValueError(f"{path}: unsupported vocabulary version {version}")
    pos = 4 + struct.calcsize("<IIIqI")
    did = data[pos : pos + did_len].decode("utf-8")
    pos += did_len
    (built_len,) = struct.unpack_from("<I", data, pos)
    pos += 4
    built = data[pos : pos + built_len].decode("utf-8")
    pos += built_len
    need = k * dim * 4
    if len(data) < pos + need:
        raise ValueError(f"{path}: truncated vocabulary file")
    centers = np.frombuffer(data, dtype="<f4", count=k * dim, offset=pos)
    return Vocabulary(centers.reshape(k, dim).astype(np.float64), did, built, seed)


def write_vocabulary_csv(vocab: Vocabulary, path) -> None:
    lines = [f"# k={vocab.k} dim={vocab.dim} distance={vocab.distance_id} built_by={vocab.built_by} seed={vocab.seed}"]
    for row in vocab.centers:
        lines.append(",".join(f"{v:.9g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
