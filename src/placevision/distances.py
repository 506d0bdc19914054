"""Histogram dissimilarity measures, bin-by-bin and cross-bin.

Each measure is one block function mapping non-negative rows Q (nq, d)
and G (ng, d) to an (nq, ng) dissimilarity matrix, 0 for identical rows.
Measures are addressable by string id for CLI flags and model files:
euclidean | minkowski:r | kl | jeffrey | chi2 | chi2sym | bhattacharyya |
emd | match; `pairwise_distances` computes any of them.

Logarithms are natural throughout.  Zero-bin conventions: 0*log(.) = 0,
the chi-square denominator skips empty reference bins, and KL floors the
second argument at a small epsilon.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

import numpy as np

from .histograms import MASS_TOLERANCE

# Saturating stand-in for +inf so that rankings stay total.
INFINITE_DISTANCE = float(np.finfo(np.float64).max)

_KL_EPSILON = 1e-10


def _pair(h, k) -> Tuple[np.ndarray, np.ndarray]:
    """Two histograms (arrays or FeatureHistogram) as equal-length 1-D arrays."""
    a, b = (np.asarray(getattr(x, "bins", x), dtype=np.float64) for x in (h, k))
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"expected two equal-length 1-D histograms, got {a.shape} and {b.shape}")
    return a, b


def _order(r) -> float:
    r = float(r)
    if not 1.0 <= r < math.inf:
        raise ValueError(f"order r must be a finite number >= 1, got {r}")
    return r


def _minkowski_block(q: np.ndarray, g: np.ndarray, r: float = 2.0) -> np.ndarray:
    """(sum |H_i - K_i|^r)^(1/r); r=2 is the Euclidean distance."""
    d = np.abs(q[:, None, :] - g[None, :, :])
    if r == 1.0:
        return d.sum(axis=2)
    return (d**r).sum(axis=2) ** (1.0 / r)


def _kl_block(q, g) -> np.ndarray:
    """Relative entropy sum H_i*log(H_i / K_i), asymmetric."""
    a = q[:, None, :]
    logs = np.where(a > 0, np.log(np.where(a > 0, a, 1.0) / np.maximum(g, _KL_EPSILON)), 0.0)
    return (a * logs).sum(axis=2)


def _jeffrey_block(q, g) -> np.ndarray:
    """Symmetrized divergence against the midpoint distribution M = (H+K)/2:
    sum H_i*log(H_i / M_i) + K_i*log(K_i / M_i)."""
    # a bin that is zero in every row adds exactly +0.0, so the logs are taken
    # on the occupied bins only; the terms go back into place before the sum,
    # which then adds the same values in the same order
    cols = np.flatnonzero(q.any(axis=0) | g.any(axis=0))
    a = q[:, None, cols]
    g = g[:, cols]
    m = a + g
    m = np.where(m > 0, m, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(a > 0, a * np.log(np.where(a > 0, 2 * a, 1) / m), 0.0)
        tb = np.where(g > 0, g * np.log(np.where(g > 0, 2 * g, 1) / m), 0.0)
    terms = np.zeros((q.shape[0], g.shape[0], q.shape[1]))
    terms[:, :, cols] = ta + tb
    return terms.sum(axis=2)


def _chi2_block(q, g, symmetric: bool = False) -> np.ndarray:
    """sum (H_i-K_i)^2 / H_i over bins with H_i > 0 (asymmetric form).

    The symmetric variant divides by (H_i+K_i)/2 instead, matching the
    chi-square kernel's measure.
    """
    a = q[:, None, :]
    denom = 0.5 * (a + g) if symmetric else a
    num = (a - g) ** 2
    return np.where(denom > 0, num / np.where(denom > 0, denom, 1.0), 0.0).sum(axis=2)


def _bhattacharyya_block(q, g) -> np.ndarray:
    """-ln sum sqrt(H_i*K_i); disjoint supports saturate to a finite sentinel."""
    c = (np.sqrt(q)[:, None, :] * np.sqrt(g)[None, :, :]).sum(axis=2)
    # roundoff can push the coefficient a hair above 1 for identical inputs
    out = np.where(c > 0, -np.log(np.minimum(np.where(c > 0, c, 1.0), 1.0)), INFINITE_DISTANCE)
    return np.maximum(out, 0.0)


def _mass_gap(q, g) -> np.ndarray:
    return np.abs(q.sum(axis=1)[:, None] - g.sum(axis=1)[None, :]) > MASS_TOLERANCE


def _match_block(q, g) -> np.ndarray:
    """L1 distance between cumulative histograms; requires equal masses."""
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

    Network simplex over the basis tree, whose nodes are rows 0..m-1 and
    columns m..m+n-1: start from the northwest-corner solution; on each
    pivot, one walk from row 0 gives every node its dual (u_i + v_j = c_ij
    on basic cells), parent and depth, the cell of least reduced cost
    enters, and the tree path from its row to its column closes the cycle.
    Stops when no reduced cost is below -tol.
    """
    supply = np.asarray(supply, dtype=np.float64)
    demand = np.asarray(demand, dtype=np.float64)
    if abs(supply.sum() - demand.sum()) > 1e-6 * max(1.0, supply.sum()):
        raise ValueError("transportation problem must be balanced")
    m, n = supply.size, demand.size
    flow, basis = _northwest_corner(supply, demand)
    basis = set(basis)

    def cell(node, other):
        """The basic cell joining a node to an adjacent one."""
        return (node, other - m) if node < m else (other, node - m)

    for _ in range(50 * (m + n) ** 2 + 1000):
        adjacent = [[] for _ in range(m + n)]
        for i, j in basis:
            adjacent[i].append(m + j)
            adjacent[m + j].append(i)
        dual = np.zeros(m + n)
        parent = [-1] * (m + n)
        depth = [0] + [-1] * (m + n - 1)
        stack = [0]
        while stack:
            node = stack.pop()
            for nxt in adjacent[node]:
                if depth[nxt] < 0:
                    dual[nxt] = cost[cell(node, nxt)] - dual[node]
                    parent[nxt], depth[nxt] = node, depth[node] + 1
                    stack.append(nxt)
        # a proper basis spans every row and column
        if min(depth) < 0:
            raise RuntimeError("transportation basis lost connectivity")

        reduced = cost - dual[:m, None] - dual[None, m:]
        reduced[tuple(zip(*basis))] = 0.0
        enter = divmod(int(np.argmin(reduced)), n)
        if reduced[enter] >= -tol:
            return flow

        # the cycle: the entering cell (+), then the tree path from its row
        # to its column, whose cells alternate -/+ from the row end
        row_end, col_end = [], []
        a, b = enter[0], m + enter[1]
        while a != b:
            if depth[a] >= depth[b]:
                row_end.append(cell(a, parent[a]))
                a = parent[a]
            else:
                col_end.append(cell(b, parent[b]))
                b = parent[b]
        cycle = [enter] + row_end + col_end[::-1]
        leaving = min(cycle[1::2], key=lambda c: (flow[c], c))
        theta = flow[leaving]
        for t, c in enumerate(cycle):
            flow[c] += -theta if t % 2 else theta
        flow[leaving] = 0.0
        basis.remove(leaving)
        basis.add(enter)
    raise RuntimeError("transportation simplex failed to converge")


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

# The ids that compare only rows of one total mass: "unit" ones need rows
# that each sum to 1, "equal" ones rows of the same sum (emd solves the
# other pairs by the simplex, one transportation problem per pair).
ONE_MASS = {"kl": "unit", "bhattacharyya": "unit", "match": "equal", "emd": "equal"}


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


def pairwise_distances(measure_id: str, queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Distance matrix (len(queries), len(gallery)) under the named measure.

    Query rows are processed in chunks sized to `_BLOCK_BYTES`.  A measure
    that needs unit-mass rows raises ValueError for any other row.
    """
    block, params = parse_measure(measure_id)
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    g = np.atleast_2d(np.asarray(gallery, dtype=np.float64))
    if q.shape[1] != g.shape[1]:
        raise ValueError(f"dimension mismatch: {q.shape[1]} vs {g.shape[1]}")
    if ONE_MASS.get(measure_id.strip().lower()) == "unit":
        for name, m in (("first", q), ("second", g)):
            sums = m.sum(axis=1)
            bad = np.flatnonzero(np.abs(sums - 1.0) > MASS_TOLERANCE)
            if bad.size:
                raise ValueError(
                    f"{measure_id} requires L1-normalized inputs; {name} sums to {float(sums[bad[0]])}"
                )
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
