import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from placevision.distances import (
    INFINITE_DISTANCE,
    bhattacharyya,
    chi_square,
    emd,
    euclidean,
    get_measure,
    jeffrey,
    kullback_leibler,
    linear_ground_distance,
    match_distance,
    minkowski,
    pairwise_distances,
)

ALL_MEASURE_IDS = [
    "euclidean",
    "minkowski:1",
    "minkowski:3",
    "kl",
    "jeffrey",
    "chi2",
    "chi2sym",
    "bhattacharyya",
    "emd",
    "match",
]


def lp_emd_oracle(h, k, ground):
    """Brute-force EMD via an explicit linear program over all n^2 flows."""
    h = np.asarray(h, float)
    k = np.asarray(k, float)
    n = h.size
    c = np.asarray(ground, float).ravel()
    a_ub, b_ub = [], []
    for i in range(n):
        row = np.zeros((n, n))
        row[i, :] = 1
        a_ub.append(row.ravel())
        b_ub.append(h[i])
    for j in range(n):
        col = np.zeros((n, n))
        col[:, j] = 1
        a_ub.append(col.ravel())
        b_ub.append(k[j])
    total = min(h.sum(), k.sum())
    res = linprog(
        c,
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        A_eq=np.ones((1, n * n)),
        b_eq=[total],
        bounds=(0, None),
        method="highs",
    )
    assert res.success
    return res.fun / total


# ---------------------------------------------------------------------------
# hand-computed values
# ---------------------------------------------------------------------------

def test_identity_gives_zero_for_every_measure():
    rng = np.random.default_rng(0)
    h = rng.random(8)
    h /= h.sum()
    for mid in ALL_MEASURE_IDS:
        fn = get_measure(mid)
        assert abs(fn(h, h.copy())) < 1e-12, mid


def test_minkowski_hand_values():
    assert minkowski([1, 0], [0, 1], 2) == pytest.approx(math.sqrt(2))
    assert euclidean([1, 0], [0, 1]) == pytest.approx(math.sqrt(2))


def test_minkowski_r1_matches_direct_loop():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.random(12), rng.random(12)
        direct = sum(abs(x - y) for x, y in zip(a, b))
        assert minkowski(a, b, 1) == pytest.approx(direct, abs=1e-12)


def test_minkowski_rejects_bad_inputs():
    with pytest.raises(ValueError):
        minkowski([1, 2], [1, 2, 3], 2)
    with pytest.raises(ValueError):
        minkowski([1], [1], 0.5)


def test_kl_hand_value_and_asymmetry():
    h, k = np.array([0.75, 0.25]), np.array([0.25, 0.75])
    assert kullback_leibler(h, k) == pytest.approx(0.5 * math.log(3), abs=1e-12)
    a, b = np.array([0.9, 0.1]), np.array([0.5, 0.5])
    assert kullback_leibler(a, b) != pytest.approx(kullback_leibler(b, a))


def test_kl_requires_normalized():
    with pytest.raises(ValueError):
        kullback_leibler([1.0, 1.0], [0.5, 0.5])


def test_kl_printed_form_flag():
    # comparison-only variant without the H_i weight
    h, k = np.array([0.75, 0.25]), np.array([0.25, 0.75])
    printed = kullback_leibler(h, k, printed_form=True)
    assert printed == pytest.approx(math.log(3) + math.log(1 / 3), abs=1e-12)
    assert printed != pytest.approx(kullback_leibler(h, k))


def test_jeffrey_hand_value_and_symmetry():
    assert jeffrey([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2 * math.log(2), abs=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b = rng.random(6), rng.random(6)
        assert jeffrey(a, b) == pytest.approx(jeffrey(b, a), abs=1e-12)


def test_chi_square_hand_value_and_zero_bin_skip():
    assert chi_square([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25, abs=1e-15)
    # H_i = 0 bins contribute nothing in the asymmetric form
    assert chi_square([0.0, 1.0], [0.5, 1.0]) == pytest.approx(0.0)
    # printed form is asymmetric; symmetric flag restores symmetry
    a, b = np.array([0.9, 0.1]), np.array([0.5, 0.5])
    assert chi_square(a, b) != pytest.approx(chi_square(b, a))
    assert chi_square(a, b, symmetric=True) == pytest.approx(
        chi_square(b, a, symmetric=True), abs=1e-12
    )


def test_bhattacharyya_hand_values():
    assert bhattacharyya([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
    assert bhattacharyya([0.64, 0.36], [0.36, 0.64]) == pytest.approx(
        -math.log(0.96), abs=1e-12
    )
    assert bhattacharyya([1.0, 0.0], [0.0, 1.0]) == INFINITE_DISTANCE


def test_match_distance_hand_value_and_mass_check():
    assert match_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        match_distance([1.0, 0.0], [0.0, 2.0])


# ---------------------------------------------------------------------------
# EMD against the LP oracle
# ---------------------------------------------------------------------------

def test_emd_identity_diagonal_flow():
    h = np.array([0.2, 0.3, 0.5])
    cost, flow = emd(h, h.copy())
    assert cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(flow, np.diag(h))


def test_emd_two_ends_hand_value():
    cost, flow = emd([1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert cost == pytest.approx(2.0, abs=1e-12)
    assert flow[0, 2] == pytest.approx(1.0)


def test_emd_matches_lp_oracle_random_instances():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(2, 9))
        h = rng.random(n) * rng.choice([0.5, 1.0, 3.0])
        k = rng.random(n)
        if rng.random() < 0.3:
            h[rng.integers(0, n)] = 0.0
        if rng.random() < 0.5:
            k *= h.sum() / k.sum()  # equal-mass case
        pts = rng.random((n, 2))
        ground = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        got, flow = emd(h, k, ground)
        want = lp_emd_oracle(h, k, ground)
        assert got == pytest.approx(want, abs=1e-6), f"trial {trial}"
        # flow feasibility
        assert flow.min() >= -1e-12
        assert (flow.sum(axis=1) <= h + 1e-9).all()
        assert (flow.sum(axis=0) <= k + 1e-9).all()
        assert flow.sum() == pytest.approx(min(h.sum(), k.sum()), abs=1e-9)


def test_emd_equals_match_distance_for_equal_mass_1d():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        h = rng.random(n)
        h /= h.sum()
        k = rng.random(n)
        k /= k.sum()
        cost, _ = emd(h, k, linear_ground_distance(n))
        assert cost == pytest.approx(match_distance(h, k), abs=1e-9)


def test_emd_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        emd([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        emd([1.0, 0.0], [0.0, 1.0], np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# metric and symmetry properties
# ---------------------------------------------------------------------------

nonneg_vectors = arrays(np.float64, 6, elements=st.floats(0, 100))


@given(nonneg_vectors, nonneg_vectors, nonneg_vectors, st.sampled_from([1.0, 2.0, 3.0]))
@settings(max_examples=300, deadline=None)
def test_minkowski_is_a_metric(a, b, c, r):
    dab, dbc, dac = minkowski(a, b, r), minkowski(b, c, r), minkowski(a, c, r)
    assert dab >= 0
    assert dab == pytest.approx(minkowski(b, a, r), abs=1e-9)
    assert dac <= dab + dbc + 1e-9
    assert minkowski(a, a, r) == 0.0


def test_symmetric_measures_are_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.random(7)
        b = rng.random(7)
        an, bn = a / a.sum(), b / b.sum()
        assert jeffrey(a, b) == pytest.approx(jeffrey(b, a), abs=1e-12)
        assert bhattacharyya(an, bn) == pytest.approx(bhattacharyya(bn, an), abs=1e-12)
        assert chi_square(a, b, symmetric=True) == pytest.approx(
            chi_square(b, a, symmetric=True), abs=1e-12
        )
        ec, _ = emd(an, bn)
        ec2, _ = emd(bn, an)
        assert ec == pytest.approx(ec2, abs=1e-9)
        assert match_distance(an, bn) == pytest.approx(match_distance(bn, an), abs=1e-12)


def test_stored_asymmetry_counterexample():
    a, b = np.array([0.9, 0.1]), np.array([0.5, 0.5])
    assert abs(kullback_leibler(a, b) - kullback_leibler(b, a)) > 0.1
    assert abs(chi_square(a, b) - chi_square(b, a)) > 0.1


def test_measure_registry_ids():
    for mid in ALL_MEASURE_IDS:
        assert callable(get_measure(mid))
    for bad in ("nosuch", "minkowski:0.5", "minkowski:x", "minkowski:", "minkowski:inf"):
        with pytest.raises(ValueError):
            get_measure(bad)
    assert get_measure("minkowski:3")([0, 1], [0, 1]) == 0.0


def test_pairwise_matches_scalar_measures():
    rng = np.random.default_rng(13)
    q = rng.random((4, 9))
    g = rng.random((5, 9))
    qn = q / q.sum(axis=1, keepdims=True)
    gn = g / g.sum(axis=1, keepdims=True)
    for mid in ALL_MEASURE_IDS:
        fn = get_measure(mid)
        mat = pairwise_distances(mid, qn, gn)
        assert mat.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert mat[i, j] == pytest.approx(fn(qn[i], gn[j]), abs=1e-9), mid
    for mid in ["euclidean", "minkowski:1", "minkowski:3", "jeffrey", "chi2", "chi2sym"]:
        fn = get_measure(mid)
        mat = pairwise_distances(mid, q, g)
        for i in range(4):
            for j in range(5):
                assert mat[i, j] == pytest.approx(fn(q[i], g[j]), abs=1e-9), mid
    # emd: the closed form (equal masses) and the simplex (unequal) agree with emd()
    for a, b in ((qn, gn), (q, g)):
        mat = pairwise_distances("emd", a, b)
        for i in range(4):
            for j in range(5):
                assert mat[i, j] == pytest.approx(emd(a[i], b[j])[0], abs=1e-9)


def test_pairwise_applies_the_scalar_input_checks():
    rng = np.random.default_rng(14)
    q = rng.random((3, 6))
    qn = q / q.sum(axis=1, keepdims=True)
    for mid in ("kl", "bhattacharyya"):
        with pytest.raises(ValueError):
            pairwise_distances(mid, q, qn)
        with pytest.raises(ValueError):
            pairwise_distances(mid, qn, q)
    with pytest.raises(ValueError):
        pairwise_distances("match", q, qn)


@pytest.mark.parametrize("mid", ["minkowski:1", "bhattacharyya", "jeffrey"])
def test_pairwise_peak_memory_is_bounded(mid):
    rng = np.random.default_rng(15)
    q = rng.random((200, 1000))
    q /= q.sum(axis=1, keepdims=True)
    g = rng.random((400, 1000))
    g /= g.sum(axis=1, keepdims=True)
    tracemalloc.start()
    try:
        pairwise_distances(mid, q, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a full (200, 400, 1000) float64 broadcast would need 640 MB
    assert peak < 64 * 2**20, f"{mid}: peak {peak / 2**20:.0f} MB"
