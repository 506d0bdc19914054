import re
from dataclasses import replace
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placevision import bovw
from placevision.bovw import (
    DEFAULT_K,
    Vocabulary,
    encode_image,
    incremental_vocab,
    kmeans,
    quantize,
    read_vocabulary,
    write_vocabulary,
)
from placevision.distances import pairwise_distances, parse_measure, sq_euclidean_gram
from placevision.histograms import FeatureHistogram
from placevision.pipeline import (
    DataError,
    Manifest,
    ManifestRow,
    _record_text,
    artifact_stem,
    parse_config_text,
    run_vocab,
    stage_record,
)
from placevision.sift import read_descriptors, write_descriptors
from tests.test_distances import ALL_MEASURE_IDS


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
    # 99 distinct rows repeated over many blocks of the count: the error
    # still states the exact count
    rows = np.random.default_rng(3).random((99, 384))
    x = rows[np.arange(4000) % 99]
    with pytest.raises(ValueError, match="need at least k=100 distinct descriptors, have 99"):
        kmeans(x, k=100)


@pytest.mark.parametrize("seed", range(6))
def test_distinct_row_count_matches_unique_rows(seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(-1, 2, (rng.integers(1, 60), 3)).astype(float)  # many repeated rows
    x[rng.random(x.shape) < 0.3] *= -1.0  # turns some zeros into -0.0
    assert bovw._count_distinct_rows(x) == np.unique(x, axis=0).shape[0]


def test_signed_zeros_are_one_distinct_row():
    pts = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 2.0]])
    assert np.unique(pts, axis=0).shape[0] == 2
    with pytest.raises(ValueError, match="need at least k=3 distinct descriptors, have 2"):
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
    draws and empty-cluster re-seeds in `events`, and records there the
    rows of the largest cluster whose mean a Lloyd step took."""
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
                events["largest"] = max(events.get("largest", 0), len(members))
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


@pytest.mark.parametrize("dim", [128, 384])
def test_kmeans_is_bit_identical_to_mask_loop_at_pipeline_shapes(dim):
    # the vocab stage clusters about 4,000 SIFT (128) or RGB-SIFT (384)
    # descriptors into 100 words; BLAS takes other kernel paths there than
    # at the small shapes above
    events = {"zero_total": 0, "reseeds": 0}
    for seed in range(3):
        x = np.random.default_rng([dim, seed]).random((4000, dim))
        want = mask_loop_kmeans(x, 100, "euclidean", seed, 6, events)
        got = kmeans(x, 100, "euclidean", seed, 6)
        assert got.centers.tobytes() == want[0].tobytes(), (dim, seed)
        assert got.cost_history == want[1], (dim, seed)


def test_kmeans_working_memory_is_one_distance_buffer():
    n, k = 4000, 100
    x = np.random.default_rng(13).random((n, 128))  # allocated before tracing
    tracemalloc.start()
    try:
        kmeans(x, k=k, seed=1, max_iter=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * max(x.nbytes, n * k * 8), (peak, x.nbytes)


def test_vocab_stage_holds_one_copy_of_the_descriptors(tmp_path):
    config = parse_config_text("features.parts = bovw\nbovw.k = 100\nvocab.max_iter = 5\n")
    feat = tmp_path / "features"
    feat.mkdir()
    (feat / "config_id.txt").write_text(_record_text(stage_record(config, "features")), encoding="utf-8")
    rng = np.random.default_rng(5)
    rows = [ManifestRow(f"img{i:02d}.png", "room", 1) for i in range(40)]
    dim = 128
    for row in rows:
        values = rng.random((100, dim)).astype("<f4")
        write_descriptors((np.zeros((100, 4)), values), feat / f"{artifact_stem(row.path)}.desc")
    n = 100 * len(rows)
    matrix, stack, buffer = n * dim * 8, n * (4 + dim) * 8, n * 100 * 8  # float64 bytes
    tracemalloc.start()
    try:
        run_vocab(Manifest(rows, tmp_path), config, tmp_path, log=lambda msg: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the stacked matrix, the per-file records it was stacked from, one
    # (n, k) distance buffer: all three at once bound what the stage holds
    assert peak < matrix + stack + buffer, (peak, matrix)


@settings(max_examples=15, deadline=None)
@given(counts=st.lists(st.integers(0, 400), min_size=1, max_size=8).filter(lambda c: sum(c) < 1500),
       cap=st.integers(1, 1499), seeds=st.lists(st.integers(0, 99), min_size=2, max_size=2))
def test_vocab_sample_is_the_evenly_spaced_rows_whatever_the_seed(tmp_path_factory, counts, cap, seeds):
    """1,500 descriptors over files of any sizes: over vocab.sample_cap, the
    vocab stage clusters rows ``np.arange(cap) * 1500 // cap``, at any seed."""
    out = tmp_path_factory.mktemp("sample")
    (out / "features").mkdir()
    counts = [*counts, 1500 - sum(counts)]
    rows = [ManifestRow(f"img{i:02d}.png", "room", 1) for i in range(len(counts))]
    values = np.random.default_rng(cap).random((1500, 8)).astype("<f4")
    for row, lo, hi in zip(rows, np.cumsum([0, *counts[:-1]]), np.cumsum(counts)):
        write_descriptors((np.zeros((hi - lo, 4)), values[lo:hi]), out / "features" / f"{artifact_stem(row.path)}.desc")
    text = f"features.parts = bovw\nbovw.k = 1\nvocab.max_iter = 1\nvocab.sample_cap = {cap}\n"
    (out / "features" / "config_id.txt").write_text(_record_text(stage_record(parse_config_text(text), "features")))
    clustered = []

    def recording_kmeans(x, *args):
        clustered.append(x.copy())
        return kmeans(x, *args)

    for seed in seeds:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bovw, "kmeans", recording_kmeans)
            run_vocab(Manifest(rows, out), parse_config_text(text + f"seed = {seed}\n"), out, log=lambda msg: None)
    expected = values[np.arange(cap) * 1500 // cap].astype(np.float64)
    assert len(clustered) == 2 and all(np.array_equal(x, expected) for x in clustered), cap


BLOCK_ALLOWANCE = 2 << 20  # bytes beside the arrays a stage needs, at any n


@pytest.mark.parametrize("dim", [1, 2, 5, 128])
def test_kmeans_is_bit_identical_to_mask_loop_in_small_blocks(dim, monkeypatch):
    # blocks of a few rows: the distinct-row count and the norm sums span
    # many blocks
    monkeypatch.setattr(bovw, "_BLOCK_CELLS", 3 * dim)
    events = {"zero_total": 0, "reseeds": 0}
    for seed in range(3):
        x = np.random.default_rng([dim, seed, 1]).random((300, dim))
        want = mask_loop_kmeans(x, 6, "euclidean", seed, 20, events)
        got = kmeans(x, 6, "euclidean", seed, 20)
        assert got.centers.tobytes() == want[0].tobytes(), (dim, seed)
        assert got.cost_history == want[1], (dim, seed)


@pytest.mark.parametrize("n", [4000, 16000])
def test_kmeans_holds_one_distance_buffer_one_cluster_and_bounded_blocks(n):
    k, dim = 100, 384
    x = np.random.default_rng(13).random((n, dim))  # allocated before tracing
    events = {"zero_total": 0, "reseeds": 0}
    mask_loop_kmeans(x, k, "euclidean", 1, 3, events)
    cluster = events["largest"] * dim * 8  # the rows a cluster mean gathers
    tracemalloc.start()
    try:
        kmeans(x, k=k, seed=1, max_iter=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - n * k * 8 - cluster < BLOCK_ALLOWANCE, (peak, cluster, n)


def _vocab_stage_peak(tmp_path, config_text, files, rows, dim):
    """Traced peak of run_vocab over ``files`` descriptor files of ``rows``
    random ``dim``-dim descriptors each."""
    config = parse_config_text(config_text)
    feat = tmp_path / "features"
    feat.mkdir()
    (feat / "config_id.txt").write_text(_record_text(stage_record(config, "features")), encoding="utf-8")
    rng = np.random.default_rng(5)
    manifest = [ManifestRow(f"img{i:02d}.png", "room", 1) for i in range(files)]
    for row in manifest:
        values = rng.random((rows, dim)).astype("<f4")
        write_descriptors((np.zeros((rows, 4)), values), feat / f"{artifact_stem(row.path)}.desc")
    tracemalloc.start()
    try:
        run_vocab(Manifest(manifest, tmp_path), config, tmp_path, log=lambda msg: None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_vocab_stage_holds_the_matrix_and_one_distance_buffer(tmp_path):
    n, dim, k = 40 * 100, 384, 100
    config = f"features.parts = bovw\nbovw.feature = rgbsift\nbovw.k = {k}\nvocab.max_iter = 3\n"
    peak = _vocab_stage_peak(tmp_path, config, 40, 100, dim)
    assert peak < n * dim * 8 + n * k * 8 + BLOCK_ALLOWANCE, peak


def test_capped_vocab_stage_holds_only_its_sample(tmp_path):
    cap, dim, k = 400, 384, 20
    config = (f"features.parts = bovw\nbovw.feature = rgbsift\nbovw.k = {k}\n"
              f"vocab.max_iter = 3\nvocab.sample_cap = {cap}\n")
    peak = _vocab_stage_peak(tmp_path, config, 40, 100, dim)  # 4,000 descriptors
    assert peak < cap * dim * 8 + cap * k * 8 + BLOCK_ALLOWANCE, peak


def test_vocab_stage_refuses_descriptor_files_of_two_dimensions(tmp_path):
    config = parse_config_text("features.parts = bovw\nbovw.k = 2\n")
    feat = tmp_path / "features"
    feat.mkdir()
    (feat / "config_id.txt").write_text(_record_text(stage_record(config, "features")), encoding="utf-8")
    rows = [ManifestRow(f"img{i}.png", "room", 1) for i in range(2)]
    for row, dim in zip(rows, (128, 384)):
        write_descriptors((np.zeros((3, 4)), np.ones((3, dim))), feat / f"{artifact_stem(row.path)}.desc")
    with pytest.raises(DataError, match="img1.desc holds 384-dim descriptors, .*img0.desc 128-dim"):
        run_vocab(Manifest(rows, tmp_path), config, tmp_path, log=lambda msg: None)


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


def loop_incremental_vocab(descriptors, threshold, distance_id):
    """Reference: the builder as a loop of one scalar comparison per word."""
    x = np.asarray(descriptors, dtype=np.float64)
    x = x / np.abs(x).sum(axis=1)[:, None]
    words = [x[0]]
    for row in x[1:]:
        best = min(pairwise_distances(distance_id, row, w)[0, 0] for w in words)
        if best > threshold:
            words.append(row)
    return np.stack(words)


@pytest.mark.parametrize("mid", ALL_MEASURE_IDS)
def test_incremental_equals_the_per_word_loop_byte_for_byte(mid):
    rng = np.random.default_rng(21)
    x = rng.random((80, 12)) + 0.01
    xn = x / x.sum(axis=1, keepdims=True)
    d = pairwise_distances(mid, xn, xn)
    # a threshold at the 20% quantile of the pair distances: 2 <= k <= n/2
    threshold = np.quantile(d[np.triu_indices(len(x), 1)], 0.2)
    want = loop_incremental_vocab(x, threshold, mid)
    assert 2 <= len(want) <= len(x) // 2
    assert incremental_vocab(x, threshold, mid).centers.tobytes() == want.tobytes()
    # each row's distances to the stacked words are the scalar values, bit for bit
    for row in xn:
        scalar = [pairwise_distances(mid, row, w)[0, 0] for w in want]
        assert pairwise_distances(mid, row, want)[0].tobytes() == np.array(scalar).tobytes()


def test_incremental_rejects_empty_and_zero_rows():
    with pytest.raises(ValueError):
        incremental_vocab(np.zeros((0, 3)), 0.5)
    with pytest.raises(ValueError):
        incremental_vocab(np.array([[0.0, 0.0]]), 0.5)


@pytest.mark.parametrize("mid", ["euclidean", "minkowski:1", "chi2sym"])
def test_incremental_word_source_descriptor_maps_to_its_word(tmp_path, mid):
    # descriptors at SIFT scale (rows of 16 values up to 255), as the encode
    # stage reads them from a .desc file and the vocabulary from vocab.bin
    rng = np.random.default_rng(8)
    write_descriptors((np.zeros((60, 4)), rng.random((60, 16)) * 255), tmp_path / "img.desc")
    _, x = read_descriptors(tmp_path / "img.desc")
    unit = x / np.abs(x).sum(axis=1, keepdims=True)
    threshold = np.quantile(pairwise_distances(mid, unit, unit), 0.2)
    built = incremental_vocab(x, threshold, mid)
    assert 2 <= built.k <= len(x) // 2
    write_vocabulary(built, tmp_path / "vocab.bin")
    sources = [int(np.flatnonzero((unit == word).all(axis=1))[0]) for word in built.centers]
    assert quantize(x[sources], read_vocabulary(tmp_path / "vocab.bin")).tolist() == list(range(built.k))


def test_quantize_exact_center_and_tie_rule():
    centers = np.zeros((8, 2))
    centers[:, 0] = np.arange(8)
    vocab = Vocabulary(centers)
    assert quantize(centers[7:8], vocab).tolist() == [7]
    # equidistant to centers 2 and 5(?): craft equidistant to 2 and 3
    assert quantize([[2.5, 0.0]], vocab).tolist() == [2]
    with pytest.raises(ValueError):
        quantize([[1.0, 2.0, 3.0]], vocab)


def test_quantize_matches_linear_scan_oracle():
    rng = np.random.default_rng(10)
    vocab = Vocabulary(rng.random((30, 6)))
    queries = rng.random((1000, 6))
    for q, got in zip(queries, quantize(queries, vocab)):
        want = int(np.argmin([np.linalg.norm(q - c) for c in vocab.centers]))
        assert got == want


def test_encode_single_word_and_normalization():
    vocab = Vocabulary(np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]))
    descs = np.full((5, 1), 3.1)
    vec = encode_image(descs, vocab)
    assert vec.binning == "bovw:5" and vec.normalized
    assert vec.bins[3] == 1.0
    assert vec.bins.sum() == 1.0


def test_encode_matches_count_oracle():
    rng = np.random.default_rng(11)
    vocab = Vocabulary(rng.random((12, 4)))
    descs = rng.random((200, 4))
    vec = encode_image(descs, vocab)
    counts = np.zeros(12)
    for d in descs:
        counts[quantize(d[None], vocab)[0]] += 1
    assert np.allclose(vec.bins, counts / counts.sum(), atol=1e-12)
    assert vec.bins.sum() == pytest.approx(1.0, abs=1e-9)
    # encode support equals the set of quantize results
    support = set(np.nonzero(vec.bins)[0].tolist())
    assert support == set(quantize(descs, vocab).tolist())


def test_encode_rejects_empty_descriptor_set():
    vocab = Vocabulary(np.zeros((3, 4)))
    with pytest.raises(ValueError):
        encode_image(np.zeros((0, 4)), vocab)


def test_bow_vector_invariant():
    with pytest.raises(ValueError, match=r"^normalized histogram sums to 0\.9, not 1$"):
        FeatureHistogram(np.array([0.5, 0.4]), "bovw:2", normalized=True)


def test_vocabulary_file_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    vocab = replace(kmeans(rng.random((50, 16)).astype(np.float32), k=5, seed=3), record="bovw.k = 5\nseed = 3\n")
    path = tmp_path / "vocab.bin"
    write_vocabulary(vocab, path)
    back = read_vocabulary(path)
    assert back.k == 5 and back.dim == 16
    assert back.distance_id == vocab.distance_id
    assert back.built_by == "kmeans"
    assert back.record == "bovw.k = 5\nseed = 3\n"
    assert np.abs(back.centers - vocab.centers).max() < 1e-6  # f32 storage
    # identical content gives identical bytes
    write_vocabulary(vocab, tmp_path / "vocab2.bin")
    assert (tmp_path / "vocab.bin").read_bytes() == (tmp_path / "vocab2.bin").read_bytes()


def test_vocabulary_file_with_non_finite_centre_is_an_error_naming_it(tmp_path):
    path = tmp_path / "vocab.bin"
    write_vocabulary(Vocabulary(np.eye(3, 4)), path)
    data = bytearray(path.read_bytes())
    data[-4:] = np.array([np.nan], dtype="<f4").tobytes()  # the last centre value
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: centers must be finite$"):
        read_vocabulary(path)


def test_vocabulary_file_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"????12345")
    with pytest.raises(ValueError):
        read_vocabulary(p)
