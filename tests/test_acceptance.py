"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned in the assertions below.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from placevision.bovw import Vocabulary, encode_image, kmeans, quantize
from placevision.classify import (
    GaParams,
    KernelSpec,
    ga_optimize_thresholds,
    gram_matrix,
    ova_train,
    svm_train,
)
from placevision.cli import main as cli_main
from placevision.distances import emd, linear_ground_distance, pairwise_distances
from placevision.evaluate import metrics
from placevision.image import GrayImage
from placevision.pipeline import (
    parse_config_text,
    read_manifest,
    run_encode,
    run_evaluate,
    run_features,
    run_predict,
    run_train,
    run_vocab,
)
from placevision.sift import SiftParams, extract_rgb_sift, extract_sift
from tests.test_distances import lp_emd_oracle


def report(criterion: int, description: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} [criterion {criterion}] {description}")
    assert ok, f"criterion {criterion}: {description}"


# ---------------------------------------------------------------------------
# 1. dissimilarity oracle suite
# ---------------------------------------------------------------------------

def test_criterion_1_dissimilarity_oracle_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)

    identity_ok = True
    h = rng.random(16)
    h /= h.sum()
    for mid in ["euclidean", "minkowski:1", "minkowski:3", "kl", "jeffrey",
                "chi2", "chi2sym", "bhattacharyya", "emd", "match"]:
        identity_ok &= abs(pairwise_distances(mid, h, h.copy())[0, 0]) <= 1e-12

    triangle_ok = True
    for _ in range(1000):
        a, b, c = rng.random((3, 6)) * 10
        for r in (1.0, 2.0, 3.0):
            d = pairwise_distances(f"minkowski:{r}", [a, b], [b, c])  # rows a, b; columns b, c
            if d[0, 1] > d[0, 0] + d[1, 1] + 1e-9:
                triangle_ok = False

    emd_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        u = rng.random(n) * rng.choice([0.5, 1.0, 2.0])
        v = rng.random(n)
        if rng.random() < 0.3:
            u[rng.integers(0, n)] = 0.0
        pts = rng.random((n, 2))
        ground = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        got, _ = emd(u, v, ground)
        if abs(got - lp_emd_oracle(u, v, ground)) > 1e-6:
            emd_ok = False

    match_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 9))
        u = rng.random(n)
        u /= u.sum()
        v = rng.random(n)
        v /= v.sum()
        cost, _ = emd(u, v, linear_ground_distance(n))
        if abs(cost - pairwise_distances("match", u, v)[0, 0]) > 1e-9:
            match_ok = False

    elapsed = time.time() - t0
    report(
        1,
        f"measure identities, Minkowski triangle inequality, EMD vs LP oracle, "
        f"match==linear EMD ({elapsed:.1f}s < 30s)",
        identity_ok and triangle_ok and emd_ok and match_ok and elapsed < 30.0,
    )


# ---------------------------------------------------------------------------
# 2. hand values
# ---------------------------------------------------------------------------

def test_criterion_2_hand_values():
    ok = abs(pairwise_distances("jeffrey", [1.0, 0.0], [0.0, 1.0])[0, 0] - 2 * math.log(2)) <= 1e-9
    ok &= abs(pairwise_distances("chi2", [0.5, 0.5], [0.25, 0.75])[0, 0] - 0.25) <= 1e-12
    ok &= abs(pairwise_distances("bhattacharyya", [0.64, 0.36], [0.36, 0.64])[0, 0] - (-math.log(0.96))) <= 1e-9
    report(2, "jeffrey=2ln2, chi2=0.25, bhattacharyya=-ln(0.96)", ok)


# ---------------------------------------------------------------------------
# 3. SIFT invariance suite
# ---------------------------------------------------------------------------

def _mutual_nn_pairs(fa, fb):
    (_, da), (_, db) = fa, fb
    d2 = ((da[:, None, :] - db[None, :, :]) ** 2).sum(-1)
    nn12 = d2.argmin(1)
    nn21 = d2.argmin(0)
    return [(i, int(nn12[i])) for i in range(len(da)) if nn21[nn12[i]] == i]


def _bilinear_upsample2(a):
    h, w = a.shape
    ys = np.arange(2 * h) / 2.0
    xs = np.arange(2 * w) / 2.0
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.clip(y0 + 1, 0, h - 1)
    x1 = np.clip(x0 + 1, 0, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    return (
        a[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
        + a[np.ix_(y0, x1)] * (1 - fy) * fx
        + a[np.ix_(y1, x0)] * fy * (1 - fx)
        + a[np.ix_(y1, x1)] * fy * fx
    )


def test_criterion_3_sift_invariance_suite(texture):
    t0 = time.time()
    feats = extract_sift(texture)
    pos = feats[0][:, :3]

    # 90-degree rotation repeatability
    rot = GrayImage(np.rot90(texture.intensities, 1).copy())
    feats_rot = extract_sift(rot)
    w = texture.width
    pos_rot = feats_rot[0][:, :2]
    mapped = np.stack([w - 1 - pos_rot[:, 1], pos_rot[:, 0]], axis=1)
    good_rot = sum(
        1
        for i, j in _mutual_nn_pairs(feats, feats_rot)
        if math.hypot(pos[i, 0] - mapped[j, 0], pos[i, 1] - mapped[j, 1]) <= 2.0
    )
    rot_rate = good_rot / len(pos)

    # 2x upsample repeatability with one extra octave of headroom
    up = GrayImage(np.clip(_bilinear_upsample2(texture.intensities), 0, 1))
    feats_up = extract_sift(up, SiftParams(octaves=5))
    pos_up = feats_up[0][:, :3]
    good_scale = 0
    for i, j in _mutual_nn_pairs(feats, feats_up):
        if (
            math.hypot(pos[i, 0] - pos_up[j, 0] / 2, pos[i, 1] - pos_up[j, 1] / 2) <= 2.0
            and 1.5 <= pos_up[j, 2] / pos[i, 2] <= 2.5
        ):
            good_scale += 1
    scale_rate = good_scale / len(pos)

    # photometric invariance on position-matched keypoints
    def keyed(fs):
        keypoints, values = fs
        return {
            (round(x, 3), round(y, 3), round(o, 4)): v
            for (x, y, _, o), v in zip(keypoints.tolist(), values)
        }

    base = keyed(feats)
    half = keyed(extract_sift(GrayImage(texture.intensities * 0.5)))
    shift = keyed(extract_sift(GrayImage(np.clip(texture.intensities + 0.2, 0, 1))))
    common_h = set(base) & set(half)
    common_s = set(base) & set(shift)
    worst_half = max(np.linalg.norm(base[c] - half[c]) for c in common_h)
    worst_shift = max(np.linalg.norm(base[c] - shift[c]) for c in common_s)

    sift_dim = feats[1].shape[1]
    from placevision.image import Image

    rgb = extract_rgb_sift(Image(np.repeat(texture.intensities[:, :, None], 3, axis=2)))
    rgb_dim = rgb[1].shape[1]
    elapsed = time.time() - t0

    report(
        3,
        f"rotation {rot_rate:.0%}>=70%, scale {scale_rate:.0%}>=50%, "
        f"contrast L2 {worst_half:.1e}<=1e-6, brightness L2 {worst_shift:.1e}<=1e-6, "
        f"dims {sift_dim}/{rgb_dim} ({elapsed:.0f}s < 120s)",
        rot_rate >= 0.70
        and scale_rate >= 0.50
        and len(common_h) > 50
        and len(common_s) > 50
        and worst_half <= 1e-6
        and worst_shift <= 1e-6
        and sift_dim == 128
        and rgb_dim == 384
        and elapsed < 120.0,
    )


# ---------------------------------------------------------------------------
# 4. DoG vs scale-normalized Laplacian
# ---------------------------------------------------------------------------

def test_criterion_4_dog_approximates_scale_normalized_laplacian():
    # pointwise relative error is undefined at the zero crossings, so the
    # residual RMS is expressed relative to the reference peak magnitude
    sigma, k = 1.6, math.sqrt(2.0)
    grid = np.arange(33) - 16.0
    xs, ys = np.meshgrid(grid, grid)
    r2 = xs**2 + ys**2

    def gauss(s):
        return np.exp(-r2 / (2 * s * s)) / (2 * math.pi * s * s)

    diff = gauss(k * sigma) - gauss(sigma)
    ref = (k - 1) * sigma**2 * (r2 - 2 * sigma**2) / sigma**4 * gauss(sigma)
    rms = math.sqrt(np.mean((diff - ref) ** 2)) / np.abs(ref).max()
    report(4, f"33x33 grid, sigma=1.6, k=sqrt2: peak-relative RMS {rms:.3f} < 0.10", rms < 0.10)


# ---------------------------------------------------------------------------
# 5. bag-of-visual-words suite
# ---------------------------------------------------------------------------

def test_criterion_5_bovw_suite():
    rng = np.random.default_rng(105)
    pts = rng.random((500, 8))
    vocab = kmeans(pts, k=10, seed=1, max_iter=60)
    monotone = np.all(np.diff(vocab.cost_history) <= 1e-9)

    from tests.test_bovw import exhaustive_best_partition, three_clusters

    cpts, _ = three_clusters(np.random.default_rng(6), n_per=4)
    best_cost, _ = exhaustive_best_partition(cpts, 3)
    v3 = kmeans(cpts, k=3, seed=2)
    labels = ((cpts[:, None, :] - v3.centers[None, :, :]) ** 2).sum(-1).argmin(1)
    got_cost = sum(((cpts[labels == j] - v3.centers[j]) ** 2).sum() for j in range(3))
    cluster_ok = abs(got_cost - best_cost) <= 1e-9 * max(1.0, best_cost)

    sums_ok = True
    for _ in range(25):
        descs = rng.random((int(rng.integers(1, 50)), 8))
        if abs(encode_image(descs, vocab).bins.sum() - 1.0) > 1e-9:
            sums_ok = False

    oracle_vocab = Vocabulary(rng.random((25, 5)))
    queries = rng.random((1000, 5))
    quantize_ok = all(
        got == int(np.argmin(np.linalg.norm(oracle_vocab.centers - q, axis=1)))
        for q, got in zip(queries, quantize(queries, oracle_vocab))
    )

    report(
        5,
        "k-means cost monotone, exhaustive 3-cluster optimum, encode sums to 1, "
        "quantize matches linear scan on 1000 queries",
        bool(monotone and cluster_ok and sums_ok and quantize_ok),
    )


# ---------------------------------------------------------------------------
# 6. SVM suite
# ---------------------------------------------------------------------------

def test_criterion_6_svm_suite():
    t0 = time.time()
    two = svm_train(np.array([[-1.0], [1.0]]), [-1.0, 1.0], KernelSpec("linear"), c=1000.0)
    boundary_ok = abs(two.decision(np.array([[0.0]]))[0]) <= 1e-3

    rng = np.random.default_rng(106)
    centers = np.array([[0, 0], [3, 0], [0, 3]])
    x = np.vstack([rng.normal(c, 0.1, (30, 2)) for c in centers])
    labels = ["a"] * 30 + ["b"] * 30 + ["c"] * 30
    model = ova_train(x, labels, KernelSpec("rbf", sigma=1.0), c=10.0)
    acc = np.mean([p == lb for p, lb in zip(model.decide(model.scores(x))[0], labels)])
    dual_ok = all(abs(m.dual_coef.sum()) <= 1e-6 for m in model.machines.values())
    dual_ok &= abs(two.dual_coef.sum()) <= 1e-6

    pts = rng.random((50, 6))
    gram = gram_matrix(pts, pts, KernelSpec("rbf", sigma=0.7))
    min_eig = float(np.linalg.eigvalsh((gram + gram.T) / 2).min())
    elapsed = time.time() - t0
    report(
        6,
        f"2-point boundary at 0, 3-blob acc {acc:.0%}>=99%, sum(alpha*y)<=1e-6, "
        f"RBF Gram min eig {min_eig:.1e}>=-1e-8 ({elapsed:.1f}s < 60s)",
        boundary_ok and acc >= 0.99 and dual_ok and min_eig >= -1e-8 and elapsed < 60.0,
    )


# ---------------------------------------------------------------------------
# 7. GA suite
# ---------------------------------------------------------------------------

def test_criterion_7_ga_suite():
    from tests.test_classify import labeled, make_cf

    rng = np.random.default_rng(107)
    train = [("a", make_cf([0.0, 0.0])), ("b", make_cf([2.0, 2.0]))]
    val = [("a", make_cf(rng.normal([0, 0], 0.2, 2))) for _ in range(10)]
    val += [("b", make_cf(rng.normal([2, 2], 0.2, 2))) for _ in range(10)]

    defaults = GaParams()
    defaults_ok = (
        defaults.population,
        defaults.mutation_rate,
        defaults.crossover_rate,
        defaults.generations,
    ) == (200, 0.15, 0.7, 1000)

    full = ga_optimize_thresholds(labeled(train), labeled(val), GaParams(seed=2))  # thesis defaults
    monotone = np.all(np.diff(full.history) >= 0) and len(full.history) == 1000

    quick = ga_optimize_thresholds(labeled(train), labeled(val), GaParams(generations=50, seed=3))
    hit = quick.best_fitness >= 1.0 and int(np.argmax(quick.history >= 1.0)) < 50

    report(
        7,
        "defaults (200, 0.15, 0.7, 1000), elitist fitness monotone over 1000 "
        "generations, separable toy reaches F=1 within 50",
        bool(defaults_ok and monotone and hit),
    )


# ---------------------------------------------------------------------------
# 8. metrics exactness
# ---------------------------------------------------------------------------

def test_criterion_8_metrics_exactness():
    p, r, f, er = metrics(8, 10, 16)
    exact_ok = (
        p == 0.8 and r == 0.5 and abs(f - 2 * 0.4 / 1.3) <= 1e-12 and er == 0.5
    )
    rng = np.random.default_rng(108)
    complement_ok = True
    for _ in range(1000):
        relevant = int(rng.integers(1, 10000))
        retrieved = int(rng.integers(0, 12000))
        rr = int(rng.integers(0, min(relevant, retrieved) + 1))
        _, rec, _, err = metrics(rr, retrieved, relevant)
        if err + rec != 1.0:
            complement_ok = False
    report(8, "metrics(8,10,16)=(0.8,0.5,0.6154,0.5); ER+R==1 on 1000 triples",
           exact_ok and complement_ok)


# ---------------------------------------------------------------------------
# 9 & 10. end-to-end synthetic benchmark and determinism
# ---------------------------------------------------------------------------

COMPOSITE_CFG = """
features.parts = rgb,hsv,bovw
bovw.k = 100
classifier.kind = svm
classifier.kernel = rbf
vocab.max_iter = 40
seed = 7
"""

RGB_ONLY_CFG = """
features.parts = rgb
classifier.kind = nn
seed = 7
"""


def test_criterion_9_end_to_end_synthetic_benchmark(tmp_path):
    t0 = time.time()
    data = tmp_path / "data"
    assert cli_main(["synth-dataset", "--out", str(data), "--classes", "9",
                     "--per-class", "60", "--size", "96", "--seed", "7"]) == 0
    manifest = read_manifest(data / "manifest.tsv")
    train_m = manifest.select([1, 3])
    test_m = manifest.select([2])
    quiet = lambda msg: None

    composite = parse_config_text(COMPOSITE_CFG)
    out_c = tmp_path / "composite"
    run_features(manifest, composite, out_c, jobs=1, log=quiet)
    run_vocab(train_m, composite, out_c, log=quiet)
    run_encode(manifest, composite, out_c, log=quiet)
    run_train(train_m, composite, out_c, log=quiet)
    run_predict(test_m, composite, out_c, log=quiet)
    rep_c, _ = run_evaluate(out_c / "predictions.csv", test_m, out_c / "report", log=quiet)

    rgb_only = parse_config_text(RGB_ONLY_CFG)
    out_r = tmp_path / "rgbonly"
    run_features(manifest, rgb_only, out_r, jobs=1, log=quiet)
    run_train(train_m, rgb_only, out_r, log=quiet)
    run_predict(test_m, rgb_only, out_r, log=quiet)
    rep_r, _ = run_evaluate(out_r / "predictions.csv", test_m, out_r / "report", log=quiet)

    elapsed = time.time() - t0
    report(
        9,
        f"held-out accuracy {rep_c.accuracy:.1%}>=90%, composite F "
        f"{rep_c.aggregate[2]:.3f} >= rgb-only F {rep_r.aggregate[2]:.3f} "
        f"({elapsed:.0f}s < 600s)",
        rep_c.accuracy >= 0.90
        and rep_c.aggregate[2] >= rep_r.aggregate[2]
        and elapsed < 600.0,
    )


def _pipeline_digests(data: Path, out: Path, cfg: Path, jobs: int) -> dict:
    man = str(data / "manifest.tsv")
    for stage in (
        ["features", "--jobs", str(jobs)],
        ["vocab", "--sequences", "1,3"],
        ["encode"],
        ["train", "--sequences", "1,3"],
        ["predict", "--sequences", "2"],
    ):
        assert cli_main([stage[0], "--manifest", man, "--config", str(cfg),
                         "--out", str(out)] + stage[1:]) == 0
    assert cli_main(["evaluate", "--manifest", man, "--out", str(out),
                     "--sequences", "2"]) == 0
    files = ["vocab.bin", "model.bin", "predictions.csv",
             "report/confusion.csv", "report/pr_curve.csv", "report/summary.csv"]
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}


def test_criterion_10_pipeline_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli_main(["synth-dataset", "--out", str(data), "--classes", "9",
                     "--per-class", "9", "--size", "96", "--seed", "11"]) == 0
    cfg = tmp_path / "cfg"
    cfg.write_text("features.parts = rgb,hsv,bovw\nbovw.k = 30\nvocab.max_iter = 20\n"
                   "classifier.kind = svm\nseed = 11\n")
    runs = [
        _pipeline_digests(data, tmp_path / "r1", cfg, jobs=1),
        _pipeline_digests(data, tmp_path / "r2", cfg, jobs=2),
        _pipeline_digests(data, tmp_path / "r3", cfg, jobs=1),
    ]
    same = all(runs[0] == other for other in runs[1:])
    report(10, "vocabulary/model/report files byte-identical across reruns and --jobs", same)
