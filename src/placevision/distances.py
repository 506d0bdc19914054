"""Histogram dissimilarity measures, bin-by-bin and cross-bin.

Each measure is one block function mapping non-negative rows Q (nq, d)
and G (ng, d) to an (nq, ng) dissimilarity matrix, 0 for identical rows;
the scalar functions are its 1x1 call.  Measures are addressable by
string id for CLI flags and model files: euclidean | minkowski:r | kl |
jeffrey | chi2 | chi2sym | bhattacharyya | emd | match.

Logarithms are natural throughout.  Zero-bin conventions: 0*log(.) = 0,
the chi-square denominator skips empty reference bins, and KL floors the
second argument at a small epsilon.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

import numpy as np

# Saturating stand-in for +inf so that rankings stay total.
INFINITE_DISTANCE = float(np.finfo(np.float64).max)

_KL_EPSILON = 1e-10
_MASS_TOLERANCE = 1e-9


def _pair(h, k) -> Tuple[np.ndarray, np.ndarray]:
    """Two histograms (arrays or FeatureHistogram) as equal-length 1-D arrays."""
    a, b = (np.asarray(getattr(x, "bins", x), dtype=np.float64) for x in (h, k))
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected two equal-length 1-D histograms, got {a.shape} and {b.shape}")
    return a, b


def _require_normalized(measure: str, *mats: np.ndarray) -> None:
    for name, m in zip(("first", "second"), mats):
        sums = m.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > _MASS_TOLERANCE)[0]
        if bad.size:
            raise ValueError(
                f"{measure} requires L1-normalized inputs; {name} sums to {sums[bad[0]]!r}"
            )


def _order(r) -> float:
    r = float(r)
    if not 1.0 <= r < math.inf:
        raise ValueError(f"order r must be a finite number >= 1, got {r}")
    return r


def _minkowski_block(q: np.ndarray, g: np.ndarray, r: float = 2.0) -> np.ndarray:
    d = np.abs(q[:, None, :] - g[None, :, :])
    if r == 1.0:
        return d.sum(axis=2)
    return (d**r).sum(axis=2) ** (1.0 / r)


def _kl_block(q, g, epsilon: float = _KL_EPSILON, printed_form: bool = False) -> np.ndarray:
    _require_normalized("kullback_leibler", q, g)
    a = q[:, None, :]
    logs = np.where(a > 0, np.log(np.where(a > 0, a, 1.0) / np.maximum(g, epsilon)), 0.0)
    return (logs if printed_form else a * logs).sum(axis=2)


def _jeffrey_block(q, g) -> np.ndarray:
    a = q[:, None, :]
    m = a + g
    m = np.where(m > 0, m, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(a > 0, a * np.log(np.where(a > 0, 2 * a, 1) / m), 0.0)
        tb = np.where(g > 0, g * np.log(np.where(g > 0, 2 * g, 1) / m), 0.0)
    return (ta + tb).sum(axis=2)


def _chi2_block(q, g, symmetric: bool = False) -> np.ndarray:
    a = q[:, None, :]
    denom = 0.5 * (a + g) if symmetric else a
    num = (a - g) ** 2
    return np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0).sum(axis=2)


def _bhattacharyya_block(q, g) -> np.ndarray:
    _require_normalized("bhattacharyya", q, g)
    c = (np.sqrt(q)[:, None, :] * np.sqrt(g)[None, :, :]).sum(axis=2)
    # roundoff can push the coefficient a hair above 1 for identical inputs
    out = np.where(c > 0, -np.log(np.minimum(np.where(c > 0, c, 1.0), 1.0)), INFINITE_DISTANCE)
    return np.maximum(out, 0.0)


def _mass_gap(q, g) -> np.ndarray:
    return np.abs(q.sum(axis=1)[:, None] - g.sum(axis=1)[None, :]) > _MASS_TOLERANCE


def _match_block(q, g) -> np.ndarray:
    if _mass_gap(q, g).any():
        raise ValueError("match_distance requires equal total mass")
    return _minkowski_block(np.cumsum(q, axis=1), np.cumsum(g, axis=1), 1.0)


def _emd_block(q, g) -> np.ndarray:
    """EMD under the linear |i-j| ground distance.

    Equal masses take the closed form, the match distance divided by the
    mass (Rubner et al., IJCV 2000); unequal masses go to the simplex.
    """
    mass = q.sum(axis=1)
    if (mass <= 0).any() or (g.sum(axis=1) <= 0).any():
        raise ValueError("both histograms need positive total mass")
    unequal = _mass_gap(q, g)
    out = _minkowski_block(np.cumsum(q, axis=1), np.cumsum(g, axis=1), 1.0) / mass[:, None]
    for i, j in zip(*np.nonzero(unequal)):
        out[i, j] = emd(q[i], g[j])[0]
    return out


def _scalar(block, h, k, **params) -> float:
    a, b = _pair(h, k)
    return float(block(a[None, :], b[None, :], **params)[0, 0])


def minkowski(h, k, r: float = 2.0) -> float:
    """(sum |H_i - K_i|^r)^(1/r); r=2 is the Euclidean distance."""
    return _scalar(_minkowski_block, h, k, r=_order(r))


def euclidean(h, k) -> float:
    return minkowski(h, k, 2.0)


def kullback_leibler(h, k, epsilon: float = _KL_EPSILON, printed_form: bool = False) -> float:
    """Relative entropy sum H_i*log(H_i / K_i), asymmetric.

    ``printed_form`` drops the H_i weight (sum log(H_i/K_i) over bins
    with H_i > 0), kept only for comparison purposes.
    """
    return _scalar(_kl_block, h, k, epsilon=epsilon, printed_form=printed_form)


def jeffrey(h, k) -> float:
    """Symmetrized divergence against the midpoint distribution."""
    return _scalar(_jeffrey_block, h, k)


def chi_square(h, k, symmetric: bool = False) -> float:
    """sum (H_i-K_i)^2 / H_i over bins with H_i > 0 (asymmetric form).

    The symmetric variant divides by (H_i+K_i)/2 instead, matching the
    chi-square kernel's measure.
    """
    return _scalar(_chi2_block, h, k, symmetric=symmetric)


def bhattacharyya(h, k) -> float:
    """-ln sum sqrt(H_i*K_i); disjoint supports saturate to a finite sentinel."""
    return _scalar(_bhattacharyya_block, h, k)


def match_distance(h, k) -> float:
    """L1 distance between cumulative histograms; requires equal masses."""
    return _scalar(_match_block, h, k)


# ---------------------------------------------------------------------------
# Earth mover's distance via the transportation simplex
# ---------------------------------------------------------------------------

def linear_ground_distance(n: int) -> np.ndarray:
    """Ground matrix d_ij = |i - j| for 1-D histograms over n bins."""
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]).astype(np.float64)


def _check_ground(ground: np.ndarray, n: int) -> np.ndarray:
    g = np.asarray(ground, dtype=np.float64)
    if g.shape != (n, n):
        raise ValueError(f"ground matrix must be {n}x{n}, got {g.shape}")
    if (g < 0).any() or np.abs(np.diag(g)).max(initial=0.0) > 0 or not np.allclose(g, g.T):
        raise ValueError("ground matrix must be symmetric, non-negative, zero diagonal")
    return g


def emd(h, k, ground=None) -> Tuple[float, np.ndarray]:
    """Minimal-cost mass transport between two histograms.

    Returns (cost / total_flow, flow matrix), where total flow is
    min(sum H, sum K); masses may differ (partial matching).  The flow
    matrix row sums never exceed H, column sums never exceed K.
    """
    a, b = _pair(h, k)
    n = a.size
    ground = linear_ground_distance(n) if ground is None else _check_ground(ground, n)
    sum_a, sum_b = float(a.sum()), float(b.sum())
    if sum_a <= 0 or sum_b <= 0:
        raise ValueError("both histograms need positive total mass")
    total_flow = min(sum_a, sum_b)

    # Balance with a zero-cost dummy node absorbing the mass surplus, which
    # turns the partial-match problem into a standard transportation problem.
    supply = a.copy()
    demand = b.copy()
    cost = ground
    surplus = sum_a - sum_b
    if surplus > 0:
        demand = np.append(demand, surplus)
        cost = np.hstack([cost, np.zeros((n, 1))])
    elif surplus < 0:
        supply = np.append(supply, -surplus)
        cost = np.vstack([cost, np.zeros((1, n))])

    flow = _transportation_simplex(supply, demand, cost)[:n, :n]
    return float((ground * flow).sum() / total_flow), flow


def _northwest_corner(supply: np.ndarray, demand: np.ndarray):
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


def _transportation_simplex(supply, demand, cost, tol: float = 1e-12) -> np.ndarray:
    """Solve the balanced transportation problem min sum c_ij f_ij.

    Classic MODI method: start from the northwest-corner solution, then
    repeatedly price out non-basic cells with the dual variables and
    pivot along the unique basis cycle until no negative reduced cost
    remains.
    """
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    if abs(supply.sum() - demand.sum()) > 1e-6 * max(1.0, supply.sum()):
        raise ValueError("transportation problem must be balanced")
    m, n = supply.size, demand.size
    flow, basis = _northwest_corner(supply, demand)
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

        cycle = _find_cycle(basis, enter)
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


def _find_cycle(basis, enter):
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


# ---------------------------------------------------------------------------
# Measure registry and the chunked pairwise engine
# ---------------------------------------------------------------------------

# Byte budget of one (rows, ng, d) float64 intermediate; pairwise_distances
# sizes its query-row chunks to it, so peak memory stays a small multiple of
# this however large the query and gallery sets grow.
_BLOCK_BYTES = 2 << 20

_BLOCKS = {
    "euclidean": (_minkowski_block, {"r": 2.0}),
    "kl": (_kl_block, {}),
    "jeffrey": (_jeffrey_block, {}),
    "chi2": (_chi2_block, {}),
    "chi2sym": (_chi2_block, {"symmetric": True}),
    "bhattacharyya": (_bhattacharyya_block, {}),
    "emd": (_emd_block, {}),
    "match": (_match_block, {}),
}


def parse_measure(measure_id: str) -> Tuple[Callable[..., np.ndarray], Dict[str, float]]:
    """Validate a measure id; return its block function and parameters.

    `minkowski:r` parses the order (r >= 1); bare `minkowski` and
    `euclidean` mean r=2.  Raises ValueError for an unknown id or a bad
    order.
    """
    mid = measure_id.strip().lower()
    name, sep, arg = mid.partition(":")
    if name == "minkowski":
        return _minkowski_block, {"r": _order(arg if sep else 2.0)}
    if mid in _BLOCKS:
        return _BLOCKS[mid]
    raise ValueError(f"unknown measure id {measure_id!r}")


def get_measure(measure_id: str) -> Callable[..., float]:
    """Resolve a measure id to a scalar-valued callable of (H, K)."""
    block, params = parse_measure(measure_id)
    return lambda h, k: _scalar(block, h, k, **params)


def pairwise_distances(measure_id: str, queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Distance matrix (len(queries), len(gallery)) under the named measure.

    Query rows are processed in chunks sized to `_BLOCK_BYTES`.
    """
    block, params = parse_measure(measure_id)
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    g = np.atleast_2d(np.asarray(gallery, dtype=np.float64))
    if q.shape[1] != g.shape[1]:
        raise ValueError(f"dimension mismatch: {q.shape[1]} vs {g.shape[1]}")
    out = np.empty((q.shape[0], g.shape[0]))
    step = max(1, _BLOCK_BYTES // max(1, 8 * g.shape[0] * g.shape[1]))
    for s in range(0, q.shape[0], step):
        out[s : s + step] = block(q[s : s + step], g, **params)
    return out


def sq_euclidean_gram(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances as |q|^2 + |g|^2 - 2 q.g, clipped at 0.

    One matrix product, but roundoff makes it inexact near zero, so it is
    not the Minkowski definition.
    """
    return np.maximum(
        (q * q).sum(axis=1)[:, None] + (g * g).sum(axis=1)[None, :] - 2.0 * q @ g.T, 0.0
    )
