import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from placevision import distances
from placevision.distances import (
    INFINITE_DISTANCE,
    emd,
    linear_ground_distance,
    pairwise_distances,
    parse_measure,
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
        assert abs(pairwise_distances(mid, h, h.copy())[0, 0]) < 1e-12, mid


def test_minkowski_hand_values():
    assert pairwise_distances("minkowski:2", [1, 0], [0, 1])[0, 0] == pytest.approx(math.sqrt(2))
    assert pairwise_distances("euclidean", [1, 0], [0, 1])[0, 0] == pytest.approx(math.sqrt(2))


def test_minkowski_r1_matches_direct_loop():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.random(12), rng.random(12)
        direct = sum(abs(x - y) for x, y in zip(a, b))
        assert pairwise_distances("minkowski:1", a, b)[0, 0] == pytest.approx(direct, abs=1e-12)


def test_minkowski_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pairwise_distances("minkowski:2", [1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pairwise_distances("minkowski:0.5", [1], [1])


def test_kl_hand_value_and_asymmetry():
    h, k = np.array([0.75, 0.25]), np.array([0.25, 0.75])
    assert pairwise_distances("kl", h, k)[0, 0] == pytest.approx(0.5 * math.log(3), abs=1e-12)
    a, b = np.array([0.9, 0.1]), np.array([0.5, 0.5])
    assert pairwise_distances("kl", a, b)[0, 0] != pytest.approx(pairwise_distances("kl", b, a)[0, 0])


def test_kl_requires_normalized():
    with pytest.raises(ValueError):
        pairwise_distances("kl", [1.0, 1.0], [0.5, 0.5])
    # the error names the id as the caller wrote it, and the row's sum
    with pytest.raises(ValueError, match=r"^KL requires L1-normalized inputs; second sums to 2\.0$"):
        pairwise_distances("KL", [0.5, 0.5], [[0.5, 0.5], [1.0, 1.0]])


def test_jeffrey_hand_value_and_symmetry():
    assert pairwise_distances("jeffrey", [1.0, 0.0], [0.0, 1.0])[0, 0] == pytest.approx(2 * math.log(2), abs=1e-12)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a, b = rng.random(6), rng.random(6)
        assert pairwise_distances("jeffrey", a, b)[0, 0] == pytest.approx(
            pairwise_distances("jeffrey", b, a)[0, 0], abs=1e-12
        )


def test_chi_square_hand_value_and_zero_bin_skip():
    assert pairwise_distances("chi2", [0.5, 0.5], [0.25, 0.75])[0, 0] == pytest.approx(0.25, abs=1e-15)
    # H_i = 0 bins contribute nothing in the asymmetric form
    assert pairwise_distances("chi2", [0.0, 1.0], [0.5, 1.0])[0, 0] == pytest.approx(0.0)
    # printed form is asymmetric; symmetric flag restores symmetry
    a, b = np.array([0.9, 0.1]), np.array([0.5, 0.5])
    assert pairwise_distances("chi2", a, b)[0, 0] != pytest.approx(pairwise_distances("chi2", b, a)[0, 0])
    assert pairwise_distances("chi2sym", a, b)[0, 0] == pytest.approx(
        pairwise_distances("chi2sym", b, a)[0, 0], abs=1e-12
    )


def test_bhattacharyya_hand_values():
    assert pairwise_distances("bhattacharyya", [0.5, 0.5], [0.5, 0.5])[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert pairwise_distances("bhattacharyya", [0.64, 0.36], [0.36, 0.64])[0, 0] == pytest.approx(
        -math.log(0.96), abs=1e-12
    )
    assert pairwise_distances("bhattacharyya", [1.0, 0.0], [0.0, 1.0])[0, 0] == INFINITE_DISTANCE


def test_match_distance_hand_value_and_mass_check():
    assert pairwise_distances("match", [1.0, 0.0], [0.0, 1.0])[0, 0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        pairwise_distances("match", [1.0, 0.0], [0.0, 2.0])


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
        assert cost == pytest.approx(pairwise_distances("match", h, k)[0, 0], abs=1e-9)


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
    d = pairwise_distances(f"minkowski:{r}", [a, b, c], [a, b, c])
    dab, dbc, dac = d[0, 1], d[1, 2], d[0, 2]
    assert dab >= 0
    assert dab == pytest.approx(d[1, 0], abs=1e-9)
    assert dac <= dab + dbc + 1e-9
    assert d[0, 0] == 0.0


def test_symmetric_measures_are_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.random(7)
        b = rng.random(7)
        an, bn = a / a.sum(), b / b.sum()
        for mid, u, v in (("jeffrey", a, b), ("bhattacharyya", an, bn), ("chi2sym", a, b), ("match", an, bn)):
            d = pairwise_distances(mid, [u, v], [u, v])
            assert d[0, 1] == pytest.approx(d[1, 0], abs=1e-12), mid
        ec, _ = emd(an, bn)
        ec2, _ = emd(bn, an)
        assert ec == pytest.approx(ec2, abs=1e-9)


def test_stored_asymmetry_counterexample():
    a, b = np.array([0.9, 0.1]), np.array([0.5, 0.5])
    for mid in ("kl", "chi2"):
        d = pairwise_distances(mid, [a, b], [a, b])
        assert abs(d[0, 1] - d[1, 0]) > 0.1, mid


def test_measure_registry_ids():
    for mid in ALL_MEASURE_IDS:
        assert callable(parse_measure(mid)[0])
    for bad in ("nosuch", "minkowski:0.5", "minkowski:x", "minkowski:", "minkowski:inf"):
        with pytest.raises(ValueError):
            pairwise_distances(bad, [0, 1], [0, 1])
    assert pairwise_distances("minkowski:3", [0, 1], [0, 1])[0, 0] == 0.0


def test_pairwise_matches_scalar_measures():
    # every cell of a block equals the 1x1 call on its two rows
    rng = np.random.default_rng(13)
    q = rng.random((4, 9))
    g = rng.random((5, 9))
    qn = q / q.sum(axis=1, keepdims=True)
    gn = g / g.sum(axis=1, keepdims=True)
    for mid in ALL_MEASURE_IDS:
        mat = pairwise_distances(mid, qn, gn)
        assert mat.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert mat[i, j] == pytest.approx(pairwise_distances(mid, qn[i], gn[j])[0, 0], abs=1e-9), mid
    for mid in ["euclidean", "minkowski:1", "minkowski:3", "jeffrey", "chi2", "chi2sym"]:
        mat = pairwise_distances(mid, q, g)
        for i in range(4):
            for j in range(5):
                assert mat[i, j] == pytest.approx(pairwise_distances(mid, q[i], g[j])[0, 0], abs=1e-9), mid
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


def dense_jeffrey_block(q, g):
    """Reference: the Jeffrey terms of every bin, occupied or not."""
    a = q[:, None, :]
    m = a + g
    m = np.where(m > 0, m, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(a > 0, a * np.log(np.where(a > 0, 2 * a, 1) / m), 0.0)
        tb = np.where(g > 0, g * np.log(np.where(g > 0, 2 * g, 1) / m), 0.0)
    return (ta + tb).sum(axis=2)


def _sparse_rows(rng, n, d, occupied):
    """Rows that use only the bins in ``occupied``, each bin with its own
    fill rate, a few all-zero rows, and -0.0 in some empty bins."""
    x = np.zeros((n, d))
    for i in range(n):
        if rng.random() < 0.15:
            continue
        keep = occupied[rng.random(occupied.size) < rng.random()]
        x[i, keep] = rng.random(keep.size)
    x[(x == 0) & (rng.random((n, d)) < 0.3)] = -0.0
    return x


@pytest.mark.parametrize("block_bytes", [1, 8 * 1000 * 7, 2 << 20])
def test_jeffrey_equals_the_every_bin_definition_byte_for_byte(monkeypatch, block_bytes):
    monkeypatch.setattr(distances, "_BLOCK_BYTES", block_bytes)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        nq, ng, d = int(rng.integers(1, 20)), int(rng.integers(1, 30)), int(rng.choice([1, 7, 180, 1000]))
        occupied = np.flatnonzero(rng.random(d) < rng.choice([0.0, 0.02, 0.2, 1.0]))
        q, g = _sparse_rows(rng, nq, d, occupied), _sparse_rows(rng, ng, d, occupied)
        got = pairwise_distances("jeffrey", q, g)
        with monkeypatch.context() as m:
            m.setitem(distances._BLOCKS, "jeffrey", (dense_jeffrey_block, {}))
            want = pairwise_distances("jeffrey", q, g)
        assert got.tobytes() == want.tobytes(), (seed, block_bytes)


# ---------------------------------------------------------------------------
# the tree-walk simplex against the MODI solver it replaced
# ---------------------------------------------------------------------------

def reference_northwest_corner(supply, demand):
    """Initial basic feasible solution with exactly m+n-1 basic cells."""
    m, n = supply.size, demand.size
    flow = np.zeros((m, n))
    basis = []
    s = supply.copy()
    d = demand.copy()
    i = j = 0
    while True:
        q = min(s[i], d[j])
        flow[i, j] = q
        basis.append((i, j))
        s[i] -= q
        d[j] -= q
        if i == m - 1 and j == n - 1:
            break
        # advance exactly one index per cell so the basis keeps m+n-1 cells
        if s[i] <= d[j]:
            i, j = (i + 1, j) if i < m - 1 else (i, j + 1)
        else:
            i, j = (i, j + 1) if j < n - 1 else (i + 1, j)
    return flow, basis


def reference_transportation_simplex(supply, demand, cost, tol=1e-12):
    """Reference: the MODI method, duals by one basis walk and the cycle by a
    second, breadth-first one."""
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    if abs(supply.sum() - demand.sum()) > 1e-6 * max(1.0, supply.sum()):
        raise ValueError("transportation problem must be balanced")
    m, n = supply.size, demand.size
    flow, basis = reference_northwest_corner(supply, demand)
    basis_set = set(basis)

    max_pivots = 50 * (m + n) ** 2 + 1000
    for _ in range(max_pivots):
        # dual variables from u_i + v_j = c_ij on basic cells (tree walk)
        u = np.full(m, np.nan)
        v = np.full(n, np.nan)
        u[0] = 0.0
        rows_of_col = {}
        cols_of_row = {}
        for (bi, bj) in basis:
            cols_of_row.setdefault(bi, []).append(bj)
            rows_of_col.setdefault(bj, []).append(bi)
        stack = [("r", 0)]
        while stack:
            kind, idx = stack.pop()
            if kind == "r":
                for bj in cols_of_row.get(idx, ()):
                    if np.isnan(v[bj]):
                        v[bj] = cost[idx, bj] - u[idx]
                        stack.append(("c", bj))
            else:
                for bi in rows_of_col.get(idx, ()):
                    if np.isnan(u[bi]):
                        u[bi] = cost[bi, idx] - v[idx]
                        stack.append(("r", bi))
        # a proper basis spans every row and column
        if np.isnan(u).any() or np.isnan(v).any():
            raise RuntimeError("transportation basis lost connectivity")

        reduced = cost - u[:, None] - v[None, :]
        for (bi, bj) in basis:
            reduced[bi, bj] = 0.0
        enter = np.unravel_index(np.argmin(reduced), reduced.shape)
        if reduced[enter] >= -tol:
            return flow

        cycle = reference_find_cycle(basis, enter)
        # alternate +/- starting at the entering cell
        minus_cells = cycle[1::2]
        theta_idx = min(
            range(len(minus_cells)), key=lambda t: (flow[minus_cells[t]], minus_cells[t])
        )
        theta = flow[minus_cells[theta_idx]]
        for t, cell in enumerate(cycle):
            flow[cell] += theta if t % 2 == 0 else -theta
        leaving = minus_cells[theta_idx]
        flow[leaving] = 0.0
        basis_set.discard(leaving)
        basis_set.add(enter)
        basis = sorted(basis_set)
    raise RuntimeError("transportation simplex failed to converge")


def reference_find_cycle(basis, enter):
    """Unique alternating cycle created by adding `enter` to the basis tree.

    Returned as a cell list starting at `enter`, alternating row moves and
    column moves.
    """
    cols_of_row = {}
    rows_of_col = {}
    for (bi, bj) in basis:
        cols_of_row.setdefault(bi, []).append(bj)
        rows_of_col.setdefault(bj, []).append(bi)

    start_row, target_col = enter
    # path in the bipartite basis graph from row start_row to column target_col
    parent = {("r", start_row): None}
    queue = [("r", start_row)]
    while queue:
        node = queue.pop(0)
        kind, idx = node
        if kind == "r":
            for bj in cols_of_row.get(idx, ()):
                nxt = ("c", bj)
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
        else:
            for bi in rows_of_col.get(idx, ()):
                nxt = ("r", bi)
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)
    node = ("c", target_col)
    if node not in parent:
        raise RuntimeError("entering cell closes no cycle; basis is not a tree")
    path = []
    while node is not None:
        path.append(node)
        node = parent[node]
    path.reverse()  # row start_row ... col target_col
    cells = [enter]
    for a, b in zip(path, path[1:]):
        (ka, ia), (kb, ib) = a, b
        cells.append((ia, ib) if ka == "r" else (ib, ia))
    return cells


def _emd_instance(rng, n):
    """Masses and a ground matrix over n bins; integer masses and tied
    integer grounds make degenerate pivots and equal reduced costs."""
    integer = rng.random() < 0.5
    h, k = (rng.integers(0, 4, n).astype(float) if integer else rng.random(n) for _ in range(2))
    for x in (h, k):
        x[rng.random(n) < 0.25] = 0.0
        if x.sum() == 0:
            x[rng.integers(0, n)] = 1.0
    totals = rng.integers(0, 3)  # equal, first heavier, second heavier
    if totals == 0 and not integer:
        k *= h.sum() / k.sum()
    elif totals == 1:
        h[rng.integers(0, n)] += 1.0 + int(integer)
    elif totals == 2:
        k[rng.integers(0, n)] += 1.0 + int(integer)
    kind = rng.integers(0, 3)
    if kind == 0:
        pts = rng.random((n, 2))
        ground = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    elif kind == 1:
        ground = rng.integers(1, 4, (n, n)).astype(float)
        ground = np.triu(ground, 1) + np.triu(ground, 1).T
    else:
        ground = linear_ground_distance(n)
    return h, k, ground


def test_emd_flows_equal_the_modi_reference_byte_for_byte(monkeypatch):
    for seed in range(1100):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 11
        h, k, ground = _emd_instance(rng, n)
        got_cost, got_flow = emd(h, k, ground)
        with monkeypatch.context() as m:
            m.setattr(distances, "_transportation_simplex", reference_transportation_simplex)
            want_cost, want_flow = emd(h, k, ground)
        assert np.float64(got_cost).tobytes() == np.float64(want_cost).tobytes(), seed
        assert got_flow.tobytes() == want_flow.tobytes(), seed
