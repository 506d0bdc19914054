"""Visual vocabularies and bag-of-visual-words encoding.

A vocabulary is an ordered list of k cluster centers in descriptor
space together with the distance used to build and query it, and the
record of what built it, which the pipeline writes and reads.  Images
are encoded as the normalized histogram of nearest-word counts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .binfile import Reader, pack_text, write_atomic
from .distances import pairwise_distances, parse_measure
from .histograms import FeatureHistogram

DEFAULT_K = 100

_VOCAB_HEADER = b"PVVC" + struct.pack("<I", 2)  # tag, format version


@dataclass(frozen=True)
class Vocabulary:
    centers: np.ndarray  # (k, dim)
    distance_id: str = "euclidean"
    built_by: str = "kmeans"
    record: str = ""  # what built it, as the pipeline writes it
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


def _as_matrix(descriptors) -> np.ndarray:
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("descriptors must form a non-empty (n, dim) matrix")
    return x


def _count_distinct_rows(x: np.ndarray, limit: int = None) -> int:
    """Number of distinct rows of a non-empty matrix, as
    ``np.unique(x, axis=0)`` counts them, or some number >= ``limit`` once
    that many are seen.  Rows are compared as raw bytes, ``+ 0.0`` folding
    -0.0 into 0.0, one bounded block of rows at a time: what is held beside
    x is the block and the distinct rows seen."""
    seen = set()
    rows = _block_rows(x)
    for start in range(0, x.shape[0], rows):
        block = np.ascontiguousarray(x[start : start + rows] + 0.0)
        seen.update(block.view(np.dtype((np.void, block.itemsize * block.shape[1])))[:, 0].tolist())
        if limit is not None and len(seen) >= limit:
            break
    return len(seen)


def _is_euclidean(distance_id: str) -> bool:
    return parse_measure(distance_id)[1].get("r") == 2.0


_BLOCK_CELLS = 1 << 15  # cells of a block of working rows: 256 KiB of float64


def _block_rows(m: np.ndarray) -> int:
    """Rows of m in one block of _BLOCK_CELLS cells."""
    return max(1, _BLOCK_CELLS // m.shape[1])


def _distances_to(x: np.ndarray, distance_id: str):
    """Function of a (k, dim) center matrix giving the (n, k) distances from
    the rows of x.  Euclidean ones use the inner-product form of
    `sq_euclidean_gram`, with the row norms of x computed once here and the
    same operation order, in place: into ``out`` when it is given, an (n, k)
    float64 buffer, with one bounded block of norm sums beside it.  The row
    norms are summed a bounded block of rows at a time, each row as
    ``(x * x).sum(axis=1)`` sums it.  Other distances ignore ``out``."""
    if not _is_euclidean(distance_id):
        return lambda centers, out=None: pairwise_distances(distance_id, x, centers)
    xx = np.empty((x.shape[0], 1))
    rows = _block_rows(x)
    for start in range(0, x.shape[0], rows):
        block = x[start : start + rows]
        np.sum(block * block, axis=1, out=xx[start : start + rows, 0])

    def euclidean(centers: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        cc = (centers * centers).sum(axis=1)[None, :]
        d = np.matmul(x, centers.T, out=out)
        d *= 2.0  # exact, so this equals (2.0 * x) @ centers.T bit for bit
        rows = _block_rows(d)
        for start in range(0, d.shape[0], rows):
            block = d[start : start + rows]
            np.subtract(xx[start : start + rows] + cc, block, out=block)
            np.maximum(block, 0.0, out=block)
            np.sqrt(block, out=block)
        return d

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

    Working memory beside the input: under the Euclidean distance, one
    (n, k) float64 buffer that every Lloyd iteration reuses, blocks of a
    bounded number of rows, vectors of n, and the rows of one cluster while
    its mean is taken.  No copy of the input is made.
    """
    x = _as_matrix(descriptors)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    n_distinct = _count_distinct_rows(x, k)
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

    buf = np.empty((n, k)) if euclid else None
    assign = np.full(n, -1)
    costs: List[float] = []
    for _ in range(max_iter):
        dists = distances(centers, buf)
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
    return Vocabulary(centers, distance_id, "kmeans", cost_history=tuple(costs))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """The rows of x L1-normalized: the scale an incremental vocabulary is
    built and queried at."""
    sums = np.abs(x).sum(axis=1)
    if (sums <= 0).any():
        raise ValueError("descriptors must have positive L1 norm")
    return x / sums[:, None]


def incremental_vocab(
    descriptors, threshold: float, distance_id: str = "euclidean"
) -> Vocabulary:
    """Order-sensitive single-pass vocabulary.

    Each descriptor is L1-normalized first; if its nearest existing word
    is within the threshold it is recognized, otherwise it becomes a new
    word.  Results depend on input order by construction.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    x = _unit_rows(_as_matrix(descriptors))
    words = np.empty_like(x)
    words[0] = x[0]
    k = 1
    for row in x[1:]:
        if pairwise_distances(distance_id, row, words[:k]).min() > threshold:
            words[k] = row
            k += 1
    return Vocabulary(words[:k].copy(), distance_id, "incremental")


def quantize(descriptors, vocab: Vocabulary) -> np.ndarray:
    """Index of each row's nearest visual word, (n,), at the scale the
    vocabulary was built at; ties break to the lowest index."""
    x = _as_matrix(descriptors)
    if vocab.built_by == "incremental":
        x = _unit_rows(x)
    return _distances_to(x, vocab.distance_id)(vocab.centers).argmin(axis=1)


def encode_image(descriptors, vocab: Vocabulary) -> FeatureHistogram:
    """Word-count histogram normalized to sum 1, binned ``bovw:<k>``.

    An empty descriptor set is an error: a zero vector would break the
    unit-mass invariant downstream.
    """
    if np.size(descriptors) == 0:
        raise ValueError("cannot encode an image with no descriptors")
    counts = np.bincount(quantize(descriptors, vocab), minlength=vocab.k).astype(np.float64)
    return FeatureHistogram(counts / counts.sum(), f"bovw:{vocab.k}", normalized=True)


# ---------------------------------------------------------------------------
# vocabulary file: little-endian binary
# ---------------------------------------------------------------------------

def write_vocabulary(vocab: Vocabulary, path) -> None:
    sizes = struct.pack("<II", vocab.k, vocab.dim)
    strings = pack_text(vocab.distance_id) + pack_text(vocab.built_by) + pack_text(vocab.record)
    write_atomic(path, [_VOCAB_HEADER, sizes, strings, np.asarray(vocab.centers, dtype="<f4").tobytes()])


def read_vocabulary(path) -> Vocabulary:
    r = Reader(path, _VOCAB_HEADER, "vocabulary")
    k, dim = r.unpack("<II")
    did, built, record = r.text(), r.text(), r.text()
    centers = r.array("<f4", k * dim).reshape(k, dim).astype(np.float64)
    r.end()
    return r.build(Vocabulary, centers, did, built, record)
