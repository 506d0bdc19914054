"""Room-label prediction: kernel SVMs and thresholded nearest neighbor.

Two classifier families share the model container:

* one-vs-all soft-margin SVMs trained with sequential minimal
  optimization (decision sgn(sum_i alpha_i y_i K(x_i, x) + b), argmax
  of the pre-sign scores across the per-class machines), and
* nearest neighbor over a labeled gallery of composite features, with
  per-class rejection thresholds (optionally tuned by a genetic
  search); a query whose nearest distance exceeds the winning class
  threshold is answered UNKNOWN.

A set of composite features is one ``Composite``: one matrix per part (a
colour or visual-word histogram per image), and the composite distance is
the weighted sum of each part's distances under its own measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .distances import pairwise_distances, sq_euclidean_gram
from .evaluate import UNKNOWN, rates
from .rules import COUNT, FINITE, NON_NEGATIVE, POSITIVE, RATE, SEED, check_fields

_SIGMA_ROWS = 1000  # median heuristic subsample size
# SMO stops once no example breaks the KKT conditions by more than _KKT_TOL,
# or after _MAX_EPOCHS passes
_KKT_TOL = 1e-3
_MAX_EPOCHS = 200


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    kind: str  # linear | rbf | chi2
    c: float = 0.0  # additive constant for the linear kernel
    sigma: float = 1.0  # bandwidth for the rbf kernel

    def __post_init__(self):
        check_fields(self, {"c": FINITE, "sigma": POSITIVE})  # sigma: the rule of classifier.rbf_sigma

    def id_string(self) -> str:
        if self.kind == "linear":
            return f"linear:{self.c:.17g}"
        if self.kind == "rbf":
            return f"rbf:{self.sigma:.17g}"
        return self.kind

    @staticmethod
    def parse(text: str) -> "KernelSpec":
        kind, *values = text.strip().lower().split(":")
        takes = {"linear": ["c"], "rbf": ["sigma"], "chi2": []}.get(kind)
        if takes is None:
            raise ValueError(f"unknown kernel {text!r}")
        if len(values) > len(takes):
            raise ValueError(f"kernel {text!r}: {kind} takes {f'only {takes[0]}' if takes else 'no parameter'}")
        return KernelSpec(kind, **dict(zip(takes, map(float, values))))


def gram_matrix(xa: np.ndarray, xb: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """K(xa_i, xb_j) for row matrices, vectorized per kernel kind."""
    xa = np.atleast_2d(np.asarray(xa, dtype=np.float64))
    xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
    if xa.shape[1] != xb.shape[1]:
        raise ValueError(f"dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}")
    if spec.kind == "linear":
        k = xa @ xb.T
        k += spec.c
        return k
    if spec.kind == "rbf":
        return np.exp(-sq_euclidean_gram(xa, xb) / (2.0 * spec.sigma**2))
    if spec.kind == "chi2":
        if (xa < 0).any() or (xb < 0).any():
            raise ValueError("chi2 kernel requires non-negative inputs")
        return 1.0 - pairwise_distances("chi2sym", xa, xb)
    raise ValueError(f"unknown kernel kind {spec.kind!r}")


def median_heuristic_sigma(x: np.ndarray) -> float:
    """Median pairwise Euclidean distance over at most _SIGMA_ROWS rows of x,
    the evenly spaced rows ``np.arange(_SIGMA_ROWS) * n // _SIGMA_ROWS``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[0] > _SIGMA_ROWS:
        x = x[np.arange(_SIGMA_ROWS) * x.shape[0] // _SIGMA_ROWS]
    d = np.sqrt(sq_euclidean_gram(x, x))
    vals = d[np.triu_indices(d.shape[0], k=1)]
    med = float(np.median(vals)) if vals.size else 1.0
    return med if med > 0 else 1.0


# ---------------------------------------------------------------------------
# binary SVM via sequential minimal optimization
# ---------------------------------------------------------------------------

@dataclass
class BinarySvm:
    """One decision function over the support vectors ``store[rows]``, in
    that order.  The machines of one model share one read-only ``store``."""

    store: np.ndarray  # (n_rows, dim) row store of the model
    rows: np.ndarray  # (n_sv,) indices of the support vectors in store
    dual_coef: np.ndarray  # alpha_i * y_i, (n_sv,)
    bias: float
    kernel_spec: KernelSpec

    @property
    def support_vectors(self) -> np.ndarray:
        """(n_sv, dim) support vectors, gathered from the store."""
        return self.store[self.rows]

    def decision(self, x: np.ndarray) -> np.ndarray:
        """Pre-sign scores for a batch of feature vectors."""
        k = gram_matrix(np.atleast_2d(x), self.support_vectors, self.kernel_spec)
        return k @ self.dual_coef + self.bias


def _row_store(x) -> np.ndarray:
    """x as a read-only float64 row matrix, a view when it is one already."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64)).view()
    x.flags.writeable = False
    return x


def svm_train(x, y, kernel_spec: KernelSpec, c: float = 10.0) -> BinarySvm:
    """Soft-margin binary SVM over the rows of x for +1/-1 labels y.

    A float64 x is not copied: the machine's row store is a read-only view
    of x itself, so x must not be written while the machine is in use.
    """
    x = _row_store(x)
    return BinarySvm(x, *_smo(gram_matrix(x, x, kernel_spec), y, c), kernel_spec)


def _smo(k: np.ndarray, y, c: float) -> Tuple[np.ndarray, np.ndarray, float]:
    """Soft-margin dual over the Gram matrix k, solved by SMO with Platt's
    working-set heuristics.  Returns the support vectors' row indices in
    ascending order, their alpha_i * y_i and the bias.

    Deterministic: the outer loop scans examples in index order and the
    second choice maximizes |E1 - E2| with fixed tie-breaking.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    n = k.shape[0]
    if y.shape != (n,) or not set(np.unique(y)) <= {-1.0, 1.0}:
        raise ValueError("labels must be +1/-1, one per row of x")
    if len(np.unique(y)) < 2:
        raise ValueError("training set must contain both classes")
    if c <= 0:
        raise ValueError("C must be positive")

    alphas = np.zeros(n)
    bias = 0.0
    errors = -y.copy()  # f(x_i) - y_i with all alphas zero

    def take_step(i1: int, i2: int) -> bool:
        nonlocal bias
        if i1 == i2:
            return False
        a1, a2 = alphas[i1], alphas[i2]
        y1, y2 = y[i1], y[i2]
        e1, e2 = errors[i1], errors[i2]
        s = y1 * y2
        if s > 0:
            lo, hi = max(0.0, a1 + a2 - c), min(c, a1 + a2)
        else:
            lo, hi = max(0.0, a2 - a1), min(c, c + a2 - a1)
        if hi - lo < 1e-12:
            return False
        k11, k12, k22 = k[i1, i1], k[i1, i2], k[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 0:
            a2_new = a2 + y2 * (e1 - e2) / eta
            a2_new = min(max(a2_new, lo), hi)
        else:
            # evaluate the objective at both clip ends
            f1 = y1 * (e1 + bias) - a1 * k11 - s * a2 * k12
            f2 = y2 * (e2 + bias) - s * a1 * k12 - a2 * k22
            l1 = a1 + s * (a2 - lo)
            h1 = a1 + s * (a2 - hi)
            obj_lo = l1 * f1 + lo * f2 + 0.5 * l1 * l1 * k11 + 0.5 * lo * lo * k22 + s * lo * l1 * k12
            obj_hi = h1 * f1 + hi * f2 + 0.5 * h1 * h1 * k11 + 0.5 * hi * hi * k22 + s * hi * h1 * k12
            if obj_lo < obj_hi - 1e-12:
                a2_new = lo
            elif obj_lo > obj_hi + 1e-12:
                a2_new = hi
            else:
                a2_new = a2
        if abs(a2_new - a2) < 1e-12 * (a2_new + a2 + 1e-12):
            return False
        a1_new = a1 + s * (a2 - a2_new)

        b1 = e1 + y1 * (a1_new - a1) * k11 + y2 * (a2_new - a2) * k12 + bias
        b2 = e2 + y1 * (a1_new - a1) * k12 + y2 * (a2_new - a2) * k22 + bias
        if 0 < a1_new < c:
            new_bias = b1
        elif 0 < a2_new < c:
            new_bias = b2
        else:
            new_bias = 0.5 * (b1 + b2)

        alphas[i1], alphas[i2] = a1_new, a2_new
        # exact incremental update keeps the cache equal to f(x_i) - y_i
        errors[:] += (
            y1 * (a1_new - a1) * k[i1, :]
            + y2 * (a2_new - a2) * k[i2, :]
            - (new_bias - bias)
        )
        bias = new_bias
        return True

    def examine(i2: int) -> bool:
        y2, a2, e2 = y[i2], alphas[i2], errors[i2]
        r2 = e2 * y2
        if (r2 < -_KKT_TOL and a2 < c) or (r2 > _KKT_TOL and a2 > 0):
            non_bound = np.nonzero((alphas > 0) & (alphas < c))[0]
            if len(non_bound) > 1:
                i1 = int(non_bound[np.argmax(np.abs(errors[non_bound] - e2))])
                if take_step(i1, i2):
                    return True
            for i1 in non_bound:
                if take_step(int(i1), i2):
                    return True
            for i1 in range(n):
                if take_step(i1, i2):
                    return True
        return False

    examine_all = True
    changed = 0
    epochs = 0
    while (changed > 0 or examine_all) and epochs < _MAX_EPOCHS:
        epochs += 1
        changed = 0
        if examine_all:
            for i in range(n):
                changed += examine(i)
        else:
            for i in np.nonzero((alphas > 0) & (alphas < c))[0]:
                changed += examine(int(i))
        if examine_all:
            examine_all = False
        elif changed == 0:
            examine_all = True
    # keep only the support vectors
    sv = np.flatnonzero(alphas > 1e-10)
    return sv, (alphas * y)[sv], -bias


# ---------------------------------------------------------------------------
# one-vs-all multi-class wrapper
# ---------------------------------------------------------------------------

@dataclass
class SvmModel:
    labels: List[str]
    machines: Dict[str, BinarySvm]
    kernel_spec: KernelSpec
    c: float

    def __post_init__(self):
        if len({id(m.store) for m in self.machines.values()}) != 1:
            raise ValueError("an SVM model needs machines that share one row store")

    @property
    def store(self) -> np.ndarray:
        """The row store that every machine's support vectors index."""
        return next(iter(self.machines.values())).store

    def scores(self, x: np.ndarray) -> np.ndarray:
        """(n_queries, n_labels) pre-sign decision scores."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.stack([self.machines[lb].decision(x) for lb in self.labels], axis=1)

    def decide(self, scores: np.ndarray) -> Tuple[List[str], np.ndarray]:
        """Winning label and score for each row of a ``scores`` matrix; ties
        resolve to the first label, the lowest as ``ova_train`` sorts them."""
        best = scores.argmax(axis=1)
        return [self.labels[b] for b in best.tolist()], scores[np.arange(len(best)), best]


def ova_train(x, labels: Sequence[str], kernel_spec: KernelSpec, c: float = 10.0) -> SvmModel:
    """One binary machine per class (class vs rest), all solved over one Gram
    matrix of x.

    A float64 x is not copied: the model's row store is a read-only view of
    x itself, so x must not be written while the model is in use.
    """
    x = _row_store(x)
    labels = [str(lb) for lb in labels]
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("one-vs-all needs at least two classes")
    arr = np.array(labels)
    k = gram_matrix(x, x, kernel_spec)
    machines = {cls: BinarySvm(x, *_smo(k, np.where(arr == cls, 1.0, -1.0), c), kernel_spec)
                for cls in classes}
    return SvmModel(classes, machines, kernel_spec, c)


# ---------------------------------------------------------------------------
# composite features and thresholded nearest neighbor
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Composite:
    """Feature rows made of weighted parts.

    ``parts`` states each part's (name, measure id, weight) once;
    ``matrices`` holds one read-only (n, d) float64 matrix per part, row i
    of every matrix describing item i.  A matrix that is already float64
    in C order is frozen in place rather than copied.  A labelled set is a
    (labels, Composite) pair.
    """

    parts: Tuple[Tuple[str, str, float], ...]
    matrices: Tuple[np.ndarray, ...]

    def __post_init__(self):
        parts = tuple((str(name), str(measure), float(weight)) for name, measure, weight in self.parts)
        matrices = tuple(np.ascontiguousarray(m, dtype=np.float64) for m in self.matrices)
        if not parts or len(matrices) != len(parts):
            raise ValueError("a composite needs one matrix for each of at least one part")
        weights = [weight for _, _, weight in parts]
        if not (all(w >= 0 for w in weights) and abs(sum(weights) - 1.0) <= 1e-6):
            raise ValueError(f"part weights must be >= 0 and sum to 1, got {weights}")
        if any(m.ndim != 2 for m in matrices) or len({len(m) for m in matrices}) != 1:
            raise ValueError("every part needs an (n, d) matrix with the same n")
        for m in matrices:
            m.flags.writeable = False
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "matrices", matrices)

    def __len__(self) -> int:
        return len(self.matrices[0])

    def take(self, index) -> "Composite":
        """The rows at ``index`` (an index array or a slice)."""
        return Composite(self.parts, tuple(m[index] for m in self.matrices))

    def concatenated(self) -> np.ndarray:
        """Weight-scaled concatenation of the parts, the row vectors the SVMs use."""
        return np.hstack([weight * m for (_, _, weight), m in zip(self.parts, self.matrices)])


@dataclass(frozen=True)
class ThresholdSet:
    """Per-class maximum accepted distance (similarity cut in the negated
    distance domain); every known class must have a finite entry."""

    by_label: Dict[str, float]

    def __post_init__(self):
        for lb, v in self.by_label.items():
            if not np.isfinite(v):
                raise ValueError(f"threshold for {lb!r} must be finite, got {v}")

    @staticmethod
    def permissive(labels: Sequence[str]) -> "ThresholdSet":
        return ThresholdSet({str(lb): 1e30 for lb in labels})


def nn_distances(
    queries: Composite, gallery: Tuple[Sequence[str], Composite]
) -> Tuple[np.ndarray, List[str]]:
    """(n_queries, n_gallery) composite distance matrix plus gallery labels."""
    labels, items = gallery
    if not len(items):
        raise ValueError("gallery must be non-empty")
    if len(labels) != len(items):
        raise ValueError(f"{len(labels)} labels for {len(items)} gallery rows")
    layouts = [[(*p, m.shape[1]) for p, m in zip(c.parts, c.matrices)] for c in (queries, items)]
    if layouts[0] != layouts[1]:
        raise ValueError(f"configuration mismatch: {layouts[0]} vs {layouts[1]}")
    out = np.zeros((len(queries), len(items)))
    for (_, measure, weight), qm, gm in zip(items.parts, queries.matrices, items.matrices):
        if weight == 0:
            continue
        out += weight * pairwise_distances(measure, qm, gm)
    return out, list(labels)


def nn_decide(
    dists: np.ndarray, gallery_labels: Sequence[str], thresholds: Optional[ThresholdSet] = None
) -> Tuple[List[str], np.ndarray]:
    """Nearest-neighbor decision for each row of a query x gallery distance matrix.

    Returns (labels, nearest distances).  The label is that of the nearest
    gallery item, distance ties resolving to the lexically lowest label,
    or UNKNOWN where the distance exceeds that label's threshold.
    """
    classes, code = np.unique(np.asarray(gallery_labels, dtype=str), return_inverse=True)
    best = dists.min(axis=1)
    winner = np.where(dists <= best[:, None], code[None, :], len(classes)).min(axis=1)
    labels = [str(c) for c in classes[winner]]
    if thresholds is not None:
        limit = np.array([thresholds.by_label[str(c)] for c in classes])
        labels = [UNKNOWN if b > limit[w] else lb for lb, b, w in zip(labels, best, winner)]
    return labels, best


# ---------------------------------------------------------------------------
# genetic threshold search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaParams:
    population: int = 200
    mutation_rate: float = 0.15
    crossover_rate: float = 0.7
    generations: int = 1000
    elite: int = 2
    mutation_sigma_factor: float = 0.05
    seed: int = 0

    def check(self) -> None:
        """Raise ValueError naming the first field outside its rule."""
        check_fields(self, GA_RULES)
        if self.population < self.elite:
            raise ValueError(
                f"population must be an integer >= elite ({self.elite}), got {self.population!r}"
            )


# the rule of each GaParams field, also the rule of its ga.* config key
GA_RULES = {
    "population": COUNT,
    "mutation_rate": RATE,
    "crossover_rate": RATE,
    "generations": COUNT,
    "elite": COUNT,
    "mutation_sigma_factor": NON_NEGATIVE,
    "seed": SEED,
}


@dataclass
class GaResult:
    thresholds: ThresholdSet
    best_fitness: float
    history: np.ndarray  # elite fitness per generation
    generations_run: int  # fewer than configured when the ceiling was reached
    ceiling: float  # F of accepting exactly the correct nearest neighbours


def ga_optimize_thresholds(
    train: Tuple[Sequence[str], Composite],
    validation: Tuple[Sequence[str], Composite],
    params: GaParams = GaParams(),
) -> GaResult:
    """Real-coded GA over per-class rejection thresholds.

    Fitness is the pooled F of ``evaluate.build_report`` over the
    thresholded nearest-neighbor answers for the validation set.
    Rank selection with elitism; genes live in [0, max observed
    distance]; mutation adds Gaussian noise of 0.05 x range.
    Deterministic for a fixed seed.  The search stops once the best F
    reaches its ceiling, with the result of running every generation.
    """
    params.check()
    val_labels, val_items = validation
    if not len(train[1]) or not len(val_items):
        raise ValueError("train and validation sets must be non-empty")
    train_labels = sorted(set(train[0]))
    for lb in val_labels:
        if lb not in train_labels:
            raise ValueError(f"validation label {lb!r} missing from training set")

    # thresholds only gate the decision; the nearest item never changes
    nearest_label, nearest_dist = nn_decide(*nn_distances(val_items, train))
    label_index = {lb: i for i, lb in enumerate(train_labels)}
    nearest_class = np.array([label_index[lb] for lb in nearest_label])
    correct = np.array([got == lb for got, lb in zip(nearest_label, val_labels)])

    n_genes = len(train_labels)
    gene_range = float(max(nearest_dist.max(), 1e-12))
    rng = np.random.default_rng(params.seed)
    pop = rng.uniform(0.0, gene_range, size=(params.population, n_genes))

    def fitness(p: np.ndarray) -> np.ndarray:
        accepted = nearest_dist[None, :] <= p[:, nearest_class]
        return rates((accepted & correct).sum(axis=1), accepted.sum(axis=1), len(correct))[2]

    # F <= 2c/(c+n) for c correct nearest neighbours, with equality only when
    # exactly the correct rows are accepted; selection keeps an earlier best
    # on ties, so once the ceiling is reached no later generation changes the
    # result, and the search stops there
    ceiling = float(rates(correct.sum(), correct.sum(), len(correct))[2])
    history = np.empty(params.generations)
    best_genome = pop[0].copy()
    best_fit = -1.0
    ranks = np.arange(params.population, 0, -1, dtype=float)
    # rank selection draws as Generator.choice(p=ranks / ranks.sum()) does:
    # one uniform double per parent, looked up in the normalised cumulative sum
    cdf = (ranks / ranks.sum()).cumsum()
    cdf /= cdf[-1]
    n_children = params.population - params.elite
    for gen in range(params.generations):
        fit = fitness(pop)
        order = np.argsort(-fit, kind="stable")
        ranked = pop[order]
        if fit[order[0]] > best_fit:
            best_fit = float(fit[order[0]])
            best_genome = ranked[0].copy()
        history[gen] = best_fit
        if best_fit >= ceiling:
            history[gen:] = best_fit
            break

        parents = ranked[cdf.searchsorted(rng.random((n_children, 2)), side="right")]
        pa, pb = parents[:, 0], parents[:, 1]
        mix = rng.random((n_children, 1))
        do_cross = rng.random((n_children, 1)) < params.crossover_rate
        children = np.where(do_cross, mix * pa + (1 - mix) * pb, pa)
        mutate = rng.random(children.shape) < params.mutation_rate
        noise = rng.normal(0.0, params.mutation_sigma_factor * gene_range, size=children.shape)
        children = np.clip(children + mutate * noise, 0.0, gene_range)
        pop = np.vstack([ranked[: params.elite], children])

    thresholds = ThresholdSet(dict(zip(train_labels, best_genome)))
    return GaResult(thresholds, best_fit, history, gen + 1, ceiling)
