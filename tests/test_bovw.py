import tracemalloc

import numpy as np
import pytest

from placevision.bovw import (
    DEFAULT_K,
    BowVector,
    Vocabulary,
    encode_image,
    incremental_vocab,
    kmeans,
    quantize,
    read_vocabulary,
    write_vocabulary,
    write_vocabulary_csv,
)
from placevision.distances import pairwise_distances, parse_measure, sq_euclidean_gram


def three_clusters(rng, n_per=10, spread=0.12):
    centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    pts = np.vstack([rng.normal(c, spread, size=(n_per, 2)) for c in centers])
    labels = np.repeat(np.arange(3), n_per)
    return pts, labels


def exhaustive_best_partition(x, k):
    """Brute force over all k^n labelings; feasible only for tiny n.

    Vectorized: per-cluster cost is sum|x|^2 - |sum x|^2 / count.
    """
    n = len(x)
    codes = np.arange(k**n)
    labels = np.stack([(codes // k**i) % k for i in range(n)], axis=1).astype(np.int8)
    sq = (x**2).sum(axis=1)
    total = np.zeros(len(codes))
    for j in range(k):
        mask = (labels == j).astype(np.float64)
        count = mask.sum(axis=1)
        sums = mask @ x
        with np.errstate(invalid="ignore", divide="ignore"):
            within = mask @ sq - (sums**2).sum(axis=1) / count
        total += np.where(count > 0, within, 0.0)
    best = int(total.argmin())
    return float(total[best]), labels[best]


def test_default_vocabulary_size_is_100():
    assert DEFAULT_K == 100


def test_kmeans_with_k_equal_to_distinct_points():
    rng = np.random.default_rng(0)
    pts = rng.random((6, 3))
    vocab = kmeans(pts, k=6, seed=1)
    assert vocab.cost_history[-1] == pytest.approx(0.0, abs=1e-20)
    assert {tuple(np.round(c, 12)) for c in vocab.centers} == {
        tuple(np.round(p, 12)) for p in pts
    }


def test_kmeans_requires_enough_distinct_points():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        kmeans(pts, k=3)


def test_kmeans_recovers_separated_clusters_vs_exhaustive_oracle():
    # 12 points, 3^12 labelings: the honest brute force
    rng = np.random.default_rng(5)
    pts, true_labels = three_clusters(rng, n_per=4)
    best_cost, best_labels = exhaustive_best_partition(pts, 3)
    vocab = kmeans(pts, k=3, seed=2)
    dists = ((pts[:, None, :] - vocab.centers[None, :, :]) ** 2).sum(-1)
    got_labels = dists.argmin(1)
    cost = sum(
        ((pts[got_labels == j] - vocab.centers[j]) ** 2).sum() for j in range(3)
    )
    assert cost == pytest.approx(best_cost, rel=1e-9)
    # same partition up to cluster relabeling
    mapping = {}
    for g, b in zip(got_labels, best_labels):
        mapping.setdefault(g, b)
        assert mapping[g] == b


def test_kmeans_recovers_separated_clusters_30_points():
    # separation argument: if the generating partition's cost is below
    # d_min^2/2 for the smallest inter-cluster gap, any partition mixing
    # two clusters costs more, so the generating partition is optimal
    rng = np.random.default_rng(6)
    pts, true_labels = three_clusters(rng, n_per=10)
    gen_cost = sum(
        ((pts[true_labels == j] - pts[true_labels == j].mean(0)) ** 2).sum()
        for j in range(3)
    )
    d_min = min(
        np.linalg.norm(a - b)
        for i, a in enumerate(pts)
        for j, b in enumerate(pts)
        if true_labels[i] != true_labels[j]
    )
    assert gen_cost < d_min**2 / 2, "construction not separated enough"
    vocab = kmeans(pts, k=3, seed=3)
    got = ((pts[:, None, :] - vocab.centers[None, :, :]) ** 2).sum(-1).argmin(1)
    mapping = {}
    for g, t in zip(got, true_labels):
        mapping.setdefault(g, t)
        assert mapping[g] == t


def test_kmeans_cost_history_non_increasing():
    rng = np.random.default_rng(7)
    pts = rng.random((400, 8))
    vocab = kmeans(pts, k=12, seed=4, max_iter=50)
    costs = np.array(vocab.cost_history)
    assert len(costs) >= 2
    assert np.all(np.diff(costs) <= 1e-9)


def test_kmeans_deterministic_given_seed():
    rng = np.random.default_rng(8)
    pts = rng.random((200, 5))
    a = kmeans(pts, k=7, seed=11)
    b = kmeans(pts, k=7, seed=11)
    assert np.array_equal(a.centers, b.centers)
    c = kmeans(pts, k=7, seed=12)
    assert not np.array_equal(a.centers, c.centers)


def mask_loop_kmeans(x, k, distance_id, seed, max_iter, events):
    """The per-cluster definition of `kmeans`: k-means++ seeding, then Lloyd
    steps with one boolean mask per cluster.  Counts zero-total seeding
    draws and empty-cluster re-seeds in `events`."""
    euclid = parse_measure(distance_id)[1].get("r") == 2.0

    def dist(c):
        if euclid:
            return np.sqrt(sq_euclidean_gram(x, c))
        return pairwise_distances(distance_id, x, c)

    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d = dist(centers[:1])[:, 0] ** 2
    for j in range(1, k):
        total = d.sum()
        if total <= 0:
            events["zero_total"] += 1
            fresh = np.nonzero(d > 0)[0]
            idx = int(fresh[0]) if fresh.size else int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d / total))
        centers[j] = x[idx]
        d = np.minimum(d, dist(centers[j : j + 1])[:, 0] ** 2)
    assign = np.full(n, -1)
    costs = []
    for _ in range(max_iter):
        dists = dist(centers)
        new_assign = dists.argmin(axis=1)
        nearest = dists[np.arange(n), new_assign]
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
        empty = [j for j in range(k) if not np.any(assign == j)]
        events["reseeds"] += len(empty)
        order = np.argsort(-nearest)
        for slot, j in enumerate(empty):
            centers[j] = x[order[slot]]
    return centers, tuple(costs)


def assert_matches_mask_loop(x, k, distance_id, seed, max_iter, events):
    try:
        want = mask_loop_kmeans(x, k, distance_id, seed, max_iter, events)
    except AssertionError:
        with pytest.raises(AssertionError):
            kmeans(x, k, distance_id, seed, max_iter)
        return
    got = kmeans(x, k, distance_id, seed, max_iter)
    assert got.centers.tobytes() == want[0].tobytes(), (k, distance_id, seed, max_iter)
    assert got.cost_history == want[1], (k, distance_id, seed, max_iter)


@pytest.mark.parametrize("distance_id", ["euclidean", "minkowski:1", "chi2sym"])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_kmeans_is_bit_identical_to_mask_loop_definition(distance_id, scale):
    events = {"zero_total": 0, "reseeds": 0}
    for case, (n, dim, k, max_iter) in enumerate(
        [(20, 2, 3, 100), (60, 4, 8, 3), (40, 3, 12, 100), (200, 16, 20, 100)]
    ):
        for seed in range(3):
            x = np.random.default_rng([case, seed]).random((n, dim)) * scale
            assert_matches_mask_loop(x, k, distance_id, seed, max_iter, events)


def test_kmeans_matches_mask_loop_when_clusters_empty():
    # rows that differ by 1e-11 at magnitude 1e3 are 0 apart in the
    # inner-product form: seeding draws at zero total and clusters empty
    events = {"zero_total": 0, "reseeds": 0}
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, k, dim = int(rng.integers(10, 40)), int(rng.integers(2, 8)), int(rng.integers(1, 6))
        x = np.vstack([1e3 + rng.integers(0, 5, size=(n, dim)) * 1e-11, 1e3 + rng.random((3, dim))])
        if np.unique(x, axis=0).shape[0] >= k:
            assert_matches_mask_loop(x, k, "euclidean", seed, 100, events)
    assert events["zero_total"] > 0 and events["reseeds"] > 0, events


def test_kmeans_peak_memory_is_bounded():
    x = np.random.default_rng(13).random((4000, 128))
    tracemalloc.start()
    try:
        kmeans(x, k=100, seed=1, max_iter=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * x.nbytes, (peak, x.nbytes)


def test_incremental_threshold_extremes():
    rng = np.random.default_rng(9)
    pts = np.abs(rng.random((40, 4))) + 0.01
    assert incremental_vocab(pts, threshold=np.inf).k == 1
    normalized = pts / np.abs(pts).sum(1, keepdims=True)
    distinct = np.unique(np.round(normalized, 12), axis=0).shape[0]
    assert incremental_vocab(pts, threshold=0.0).k == distinct


def test_incremental_is_order_sensitive():
    # frozen regression: the scan order decides which items become words
    a, b, c = [1.0, 0.0], [0.6, 0.4], [0.2, 0.8]
    v1 = incremental_vocab(np.array([a, b, c]), threshold=0.6)
    v2 = incremental_vocab(np.array([b, a, c]), threshold=0.6)
    assert v1.k == 2
    assert v2.k == 1
    assert v1.built_by == "incremental"


def test_incremental_rejects_empty_and_zero_rows():
    with pytest.raises(ValueError):
        incremental_vocab(np.zeros((0, 3)), 0.5)
    with pytest.raises(ValueError):
        incremental_vocab(np.array([[0.0, 0.0]]), 0.5)


def test_quantize_exact_center_and_tie_rule():
    centers = np.zeros((8, 2))
    centers[:, 0] = np.arange(8)
    vocab = Vocabulary(centers)
    assert quantize(centers[7], vocab) == 7
    # equidistant to centers 2 and 5(?): craft equidistant to 2 and 3
    assert quantize([2.5, 0.0], vocab) == 2
    with pytest.raises(ValueError):
        quantize([1.0, 2.0, 3.0], vocab)


def test_quantize_matches_linear_scan_oracle():
    rng = np.random.default_rng(10)
    vocab = Vocabulary(rng.random((30, 6)))
    queries = rng.random((1000, 6))
    for q in queries:
        want = int(np.argmin([np.linalg.norm(q - c) for c in vocab.centers]))
        assert quantize(q, vocab) == want


def test_encode_single_word_and_normalization():
    vocab = Vocabulary(np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]))
    descs = np.full((5, 1), 3.1)
    vec = encode_image(descs, vocab)
    assert vec.weights[3] == 1.0
    assert vec.weights.sum() == 1.0


def test_encode_matches_count_oracle():
    rng = np.random.default_rng(11)
    vocab = Vocabulary(rng.random((12, 4)))
    descs = rng.random((200, 4))
    vec = encode_image(descs, vocab)
    counts = np.zeros(12)
    for d in descs:
        counts[quantize(d, vocab)] += 1
    assert np.allclose(vec.weights, counts / counts.sum(), atol=1e-12)
    assert vec.weights.sum() == pytest.approx(1.0, abs=1e-9)
    # encode support equals the set of quantize results
    support = set(np.nonzero(vec.weights)[0].tolist())
    assert support == {quantize(d, vocab) for d in descs}


def test_encode_rejects_empty_descriptor_set():
    vocab = Vocabulary(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        encode_image(np.zeros((0, 4)), vocab)


def test_bow_vector_invariant():
    with pytest.raises(ValueError):
        BowVector(np.array([0.5, 0.4]))  # sums to 0.9


def test_vocabulary_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    vocab = kmeans(rng.random((50, 16)).astype(np.float32), k=5, seed=3)
    path = tmp_path / "vocab.bin"
    write_vocabulary(vocab, path)
    back = read_vocabulary(path)
    assert back.k == 5 and back.dim == 16
    assert back.distance_id == vocab.distance_id
    assert back.built_by == "kmeans"
    assert back.seed == 3
    assert np.abs(back.centers - vocab.centers).max() < 1e-6  # f32 storage
    # identical content gives identical bytes
    write_vocabulary(vocab, tmp_path / "vocab2.bin")
    assert (tmp_path / "vocab.bin").read_bytes() == (tmp_path / "vocab2.bin").read_bytes()
    write_vocabulary_csv(vocab, tmp_path / "vocab.csv")
    assert (tmp_path / "vocab.csv").read_text().startswith("# k=5 dim=16")


def test_vocabulary_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"????12345")
    with pytest.raises(ValueError):
        read_vocabulary(p)
