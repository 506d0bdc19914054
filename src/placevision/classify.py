"""Room-label prediction: kernel SVMs and thresholded nearest neighbor.

Two classifier families share the model container:

* one-vs-all soft-margin SVMs trained with sequential minimal
  optimization (decision sgn(sum_i alpha_i y_i K(x_i, x) + b), argmax
  of the pre-sign scores across the per-class machines), and
* nearest neighbor over a labeled gallery of composite features, with
  per-class rejection thresholds (optionally tuned by a genetic
  search); a query whose nearest distance exceeds the winning class
  threshold is answered UNKNOWN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .distances import pairwise_distances, sq_euclidean_gram

UNKNOWN = "UNKNOWN"


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    kind: str  # linear | rbf | chi2
    c: float = 0.0  # additive constant for the linear kernel
    sigma: float = 1.0  # bandwidth for the rbf kernel

    def id_string(self) -> str:
        if self.kind == "linear":
            return f"linear:{self.c:.17g}"
        if self.kind == "rbf":
            return f"rbf:{self.sigma:.17g}"
        return self.kind

    @staticmethod
    def parse(text: str) -> "KernelSpec":
        parts = text.strip().lower().split(":")
        kind = parts[0]
        if kind == "linear":
            return KernelSpec("linear", c=float(parts[1]) if len(parts) > 1 else 0.0)
        if kind == "rbf":
            return KernelSpec("rbf", sigma=float(parts[1]) if len(parts) > 1 else 1.0)
        if kind == "chi2":
            return KernelSpec("chi2")
        raise ValueError(f"unknown kernel {text!r}")


def kernel(x, y, spec: KernelSpec) -> float:
    """Evaluate one kernel entry K(x, y)."""
    return float(gram_matrix(x, y, spec)[0, 0])


def gram_matrix(xa: np.ndarray, xb: np.ndarray, spec: KernelSpec) -> np.ndarray:
    """K(xa_i, xb_j) for row matrices, vectorized per kernel kind."""
    xa = np.atleast_2d(np.asarray(xa, dtype=np.float64))
    xb = np.atleast_2d(np.asarray(xb, dtype=np.float64))
    if xa.shape[1] != xb.shape[1]:
        raise ValueError(f"dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}")
    if spec.kind == "linear":
        return xa @ xb.T + spec.c
    if spec.kind == "rbf":
        return np.exp(-sq_euclidean_gram(xa, xb) / (2.0 * spec.sigma**2))
    if spec.kind == "chi2":
        if (xa < 0).any() or (xb < 0).any():
            raise ValueError("chi2 kernel requires non-negative inputs")
        return 1.0 - pairwise_distances("chi2sym", xa, xb)
    raise ValueError(f"unknown kernel kind {spec.kind!r}")


def median_heuristic_sigma(x: np.ndarray, cap: int = 1000, seed: int = 0) -> float:
    """Median pairwise Euclidean distance over a seeded subsample."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    rng = np.random.default_rng(seed)
    if x.shape[0] > cap:
        x = x[rng.choice(x.shape[0], size=cap, replace=False)]
    d = np.sqrt(sq_euclidean_gram(x, x))
    vals = d[np.triu_indices(d.shape[0], k=1)]
    med = float(np.median(vals)) if vals.size else 1.0
    return med if med > 0 else 1.0


# ---------------------------------------------------------------------------
# binary SVM via sequential minimal optimization
# ---------------------------------------------------------------------------

@dataclass
class BinarySvm:
    support_vectors: np.ndarray  # (n_sv, dim)
    dual_coef: np.ndarray  # alpha_i * y_i, (n_sv,)
    bias: float
    kernel_spec: KernelSpec

    def decision(self, x: np.ndarray) -> np.ndarray:
        """Pre-sign scores for a batch of feature vectors."""
        k = gram_matrix(np.atleast_2d(x), self.support_vectors, self.kernel_spec)
        return k @ self.dual_coef + self.bias


def svm_train(
    x,
    y,
    kernel_spec: KernelSpec,
    c: float = 10.0,
    tol: float = 1e-3,
    max_epochs: int = 200,
) -> BinarySvm:
    """Soft-margin dual solved by SMO with Platt's working-set heuristics.

    Deterministic: the outer loop scans examples in index order and the
    second choice maximizes |E1 - E2| with fixed tie-breaking.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).ravel()
    n = x.shape[0]
    if y.shape != (n,) or not set(np.unique(y)) <= {-1.0, 1.0}:
        raise ValueError("labels must be +1/-1, one per row of x")
    if len(np.unique(y)) < 2:
        raise ValueError("training set must contain both classes")
    if c <= 0:
        raise ValueError("C must be positive")

    k = gram_matrix(x, x, kernel_spec)
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
        if (r2 < -tol and a2 < c) or (r2 > tol and a2 > 0):
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
    while (changed > 0 or examine_all) and epochs < max_epochs:
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
    sv = alphas > 1e-10
    return BinarySvm(x[sv].copy(), (alphas * y)[sv], -bias, kernel_spec)


# ---------------------------------------------------------------------------
# one-vs-all multi-class wrapper
# ---------------------------------------------------------------------------

@dataclass
class SvmModel:
    labels: List[str]
    machines: Dict[str, BinarySvm]
    kernel_spec: KernelSpec
    c: float

    def scores(self, x: np.ndarray) -> np.ndarray:
        """(n_queries, n_labels) pre-sign decision scores."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return np.stack([self.machines[lb].decision(x) for lb in self.labels], axis=1)


def ova_train(x, labels: Sequence[str], kernel_spec: KernelSpec, c: float = 10.0) -> SvmModel:
    """One binary machine per class (class vs rest)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    labels = [str(lb) for lb in labels]
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValueError("one-vs-all needs at least two classes")
    arr = np.array(labels)
    machines = {}
    for cls in classes:
        y = np.where(arr == cls, 1.0, -1.0)
        machines[cls] = svm_train(x, y, kernel_spec, c)
    return SvmModel(classes, machines, kernel_spec, c)


def ova_predict(model: SvmModel, x) -> Tuple[str, np.ndarray]:
    """argmax of class scores; ties resolve to the lowest label."""
    scores = model.scores(np.atleast_2d(np.asarray(x, dtype=np.float64)))[0]
    return model.labels[int(scores.argmax())], scores


# ---------------------------------------------------------------------------
# composite features and thresholded nearest neighbor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompositePart:
    name: str
    vector: np.ndarray
    measure_id: str
    weight: float

    def __post_init__(self):
        v = np.ascontiguousarray(self.vector, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)
        if self.weight < 0:
            raise ValueError("part weight must be >= 0")


@dataclass(frozen=True)
class CompositeFeature:
    parts: Tuple[CompositePart, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composite feature needs at least one part")
        total = sum(p.weight for p in self.parts)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"part weights must sum to 1, got {total}")

    def config_id(self) -> str:
        return "|".join(
            f"{p.name}:{len(p.vector)}:{p.measure_id}:{p.weight:.6g}" for p in self.parts
        )

    def concatenated(self) -> np.ndarray:
        """Weight-scaled concatenation, the vector form used by the SVMs."""
        return np.concatenate([p.weight * p.vector for p in self.parts])


def composite_distance(a: CompositeFeature, b: CompositeFeature) -> float:
    """Weighted sum of per-part dissimilarities."""
    return float(nn_distances([a], [("", b)])[0][0, 0])


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
    def permissive(labels: Sequence[str], limit: float = 1e30) -> "ThresholdSet":
        return ThresholdSet({str(lb): limit for lb in labels})


def nn_distances(
    queries: Sequence[CompositeFeature], gallery: Sequence[Tuple[str, CompositeFeature]]
) -> Tuple[np.ndarray, List[str]]:
    """(n_queries, n_gallery) composite distance matrix plus gallery labels."""
    if not gallery:
        raise ValueError("gallery must be non-empty")
    ref = gallery[0][1]
    for q in queries:
        if q.config_id() != ref.config_id():
            raise ValueError(
                f"configuration mismatch: {q.config_id()!r} vs {ref.config_id()!r}"
            )
    out = np.zeros((len(queries), len(gallery)))
    for i, part in enumerate(ref.parts):
        if part.weight == 0:
            continue
        qm = np.stack([q.parts[i].vector for q in queries])
        gm = np.stack([feat.parts[i].vector for _, feat in gallery])
        out += part.weight * pairwise_distances(part.measure_id, qm, gm)
    return out, [lb for lb, _ in gallery]


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


def nn_classify(
    query: CompositeFeature,
    gallery: Sequence[Tuple[str, CompositeFeature]],
    thresholds: ThresholdSet,
) -> Tuple[str, float]:
    """Label of the nearest gallery item, or UNKNOWN past its class threshold.

    Returns (label, nearest distance).  Distance ties resolve to the
    lexically lowest label.
    """
    labels, best = nn_decide(*nn_distances([query], gallery), thresholds)
    return labels[0], float(best[0])


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


@dataclass
class GaResult:
    thresholds: ThresholdSet
    best_fitness: float
    history: np.ndarray  # elite fitness per generation


def _micro_f_measure(accepted: np.ndarray, correct: np.ndarray) -> np.ndarray:
    """Vectorized micro F over population rows.

    accepted/correct: (pop, n_items) booleans; an item counts as
    relevant-retrieved when accepted and correctly labeled.
    """
    retrieved = accepted.sum(axis=1).astype(float)
    relevant_retrieved = (accepted & correct).sum(axis=1).astype(float)
    n = accepted.shape[1]
    precision = np.divide(
        relevant_retrieved, retrieved, out=np.zeros_like(retrieved), where=retrieved > 0
    )
    recall = relevant_retrieved / n
    pr = precision + recall
    return np.divide(2 * precision * recall, pr, out=np.zeros_like(pr), where=pr > 0)


def ga_optimize_thresholds(
    train: Sequence[Tuple[str, CompositeFeature]],
    validation: Sequence[Tuple[str, CompositeFeature]],
    params: GaParams = GaParams(),
) -> GaResult:
    """Real-coded GA over per-class rejection thresholds.

    Fitness is the micro F-measure of thresholded nearest-neighbor
    classification of the validation set against the training gallery.
    Rank selection with elitism; genes live in [0, max observed
    distance]; mutation adds Gaussian noise of 0.05 x range.
    Deterministic for a fixed seed.
    """
    if not train or not validation:
        raise ValueError("train and validation sets must be non-empty")
    train_labels = sorted({lb for lb, _ in train})
    for lb, _ in validation:
        if lb not in train_labels:
            raise ValueError(f"validation label {lb!r} missing from training set")

    # thresholds only gate the decision; the nearest item never changes
    nearest_label, nearest_dist = nn_decide(*nn_distances([f for _, f in validation], train))
    label_index = {lb: i for i, lb in enumerate(train_labels)}
    nearest_class = np.array([label_index[lb] for lb in nearest_label])
    correct = np.array([got == lb for got, (lb, _) in zip(nearest_label, validation)])

    n_genes = len(train_labels)
    gene_range = float(max(nearest_dist.max(), 1e-12))
    rng = np.random.default_rng(params.seed)
    pop = rng.uniform(0.0, gene_range, size=(params.population, n_genes))

    def fitness(p: np.ndarray) -> np.ndarray:
        accepted = nearest_dist[None, :] <= p[:, nearest_class]
        return _micro_f_measure(accepted, np.broadcast_to(correct, accepted.shape))

    history = np.empty(params.generations)
    best_genome = pop[0].copy()
    best_fit = -1.0
    ranks = np.arange(params.population, 0, -1, dtype=float)
    rank_p = ranks / ranks.sum()
    for gen in range(params.generations):
        fit = fitness(pop)
        order = np.argsort(-fit, kind="stable")
        if fit[order[0]] > best_fit:
            best_fit = float(fit[order[0]])
            best_genome = pop[order[0]].copy()
        history[gen] = best_fit

        elite = pop[order[: params.elite]].copy()
        parents_idx = rng.choice(params.population, size=(params.population - params.elite, 2), p=rank_p)
        pa = pop[order][parents_idx[:, 0]]
        pb = pop[order][parents_idx[:, 1]]
        mix = rng.random((params.population - params.elite, 1))
        do_cross = rng.random((params.population - params.elite, 1)) < params.crossover_rate
        children = np.where(do_cross, mix * pa + (1 - mix) * pb, pa)
        mutate = rng.random(children.shape) < params.mutation_rate
        noise = rng.normal(0.0, params.mutation_sigma_factor * gene_range, size=children.shape)
        children = np.clip(children + mutate * noise, 0.0, gene_range)
        pop = np.vstack([elite, children])

    thresholds = ThresholdSet(dict(zip(train_labels, best_genome)))
    return GaResult(thresholds, best_fit, history)
