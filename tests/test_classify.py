import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placevision import classify
from placevision.classify import (
    UNKNOWN,
    Composite,
    GaParams,
    KernelSpec,
    ThresholdSet,
    ga_optimize_thresholds,
    gram_matrix,
    median_heuristic_sigma,
    nn_decide,
    nn_distances,
    ova_train,
    svm_train,
)
from placevision.evaluate import build_report


def make_cf(v, measure="euclidean", name="g"):
    """A one-row, one-part Composite."""
    return Composite(((name, measure, 1.0),), (np.asarray(v, float)[None, :],))


def labeled(pairs):
    """The (labels, Composite) set of (label, one-row Composite) pairs."""
    if not pairs:
        return [], Composite((("g", "euclidean", 1.0),), (np.empty((0, 1)),))
    items = [item for _, item in pairs]
    matrices = [np.vstack([item.matrices[i] for item in items]) for i in range(len(items[0].parts))]
    return [lb for lb, _ in pairs], Composite(items[0].parts, matrices)



# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_hand_values():
    assert gram_matrix([1, 2], [3, 4], KernelSpec("linear"))[0, 0] == 11.0
    assert gram_matrix([1, 2], [3, 4], KernelSpec("linear", c=1.5))[0, 0] == 12.5
    x = np.array([0.3, 0.9, 0.1])
    assert gram_matrix(x, x, KernelSpec("rbf", sigma=0.4))[0, 0] == 1.0
    assert gram_matrix(x, x, KernelSpec("chi2"))[0, 0] == 1.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        gram_matrix([1, 2], [1, 2, 3], KernelSpec("linear"))
    with pytest.raises(ValueError):
        gram_matrix([-0.1, 0.2], [0.1, 0.2], KernelSpec("chi2"))
    with pytest.raises(ValueError):
        KernelSpec.parse("sigmoid")


@pytest.mark.parametrize("text, message", [
    ("rbf:nan", "sigma must be a finite number > 0, got nan"),
    ("rbf:-1", "sigma must be a finite number > 0, got -1.0"),
    ("rbf:0", "sigma must be a finite number > 0, got 0.0"),
    ("linear:inf", "c must be a finite number, got inf"),
    ("chi2:5", "kernel 'chi2:5': chi2 takes no parameter"),
    ("rbf:1:2", "kernel 'rbf:1:2': rbf takes only sigma"),
])
def test_kernel_spec_refuses_values_outside_their_rules(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        KernelSpec.parse(text)


def test_kernel_spec_round_trip():
    for text in ("linear", "linear:2.5", "rbf", "rbf:0.7", "chi2"):
        spec = KernelSpec.parse(text)
        again = KernelSpec.parse(spec.id_string())
        assert spec == again


def test_gram_matrix_matches_scalar_kernel():
    rng = np.random.default_rng(0)
    xa, xb = np.abs(rng.random((4, 5))), np.abs(rng.random((3, 5)))
    for spec in (KernelSpec("linear", c=0.3), KernelSpec("rbf", sigma=0.6), KernelSpec("chi2")):
        g = gram_matrix(xa, xb, spec)
        for i in range(4):
            for j in range(3):
                assert g[i, j] == pytest.approx(gram_matrix(xa[i], xb[j], spec)[0, 0], abs=1e-12)


def test_gram_matrices_are_psd():
    rng = np.random.default_rng(1)
    pts = rng.random((50, 7))
    for spec in (KernelSpec("rbf", sigma=0.8), KernelSpec("linear")):
        g = gram_matrix(pts, pts, spec)
        assert np.allclose(g, g.T, atol=1e-12)
        assert np.linalg.eigvalsh((g + g.T) / 2).min() >= -1e-8


def test_median_heuristic_positive():
    rng = np.random.default_rng(2)
    assert median_heuristic_sigma(rng.random((40, 3))) > 0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16), dim=st.integers(1, 8),
       config_seeds=st.lists(st.integers(0, 99), min_size=2, max_size=2))
def test_median_heuristic_over_1500_rows_takes_the_evenly_spaced_rows_whatever_the_seed(seed, dim, config_seeds):
    from placevision.pipeline import _resolve_kernel, parse_config_text

    x = np.random.default_rng(seed).random((1500, dim))
    sigma = median_heuristic_sigma(x)
    assert sigma == median_heuristic_sigma(x[np.arange(1000) * 1500 // 1000])
    for config_seed in config_seeds:
        config = parse_config_text(f"classifier.rbf_sigma = auto\nseed = {config_seed}\n")
        assert _resolve_kernel(config, x).sigma == sigma


# ---------------------------------------------------------------------------
# binary SVM
# ---------------------------------------------------------------------------

def test_two_point_analytic_solution():
    model = svm_train(np.array([[-1.0], [1.0]]), [-1.0, 1.0], KernelSpec("linear"), c=1000.0)
    assert model.decision(np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-3)
    assert np.sign(model.decision(np.array([[-1.0], [1.0]]))).tolist() == [-1.0, 1.0]
    assert abs(model.dual_coef.sum()) < 1e-6


def test_linearly_separable_toy_perfect_training_accuracy():
    rng = np.random.default_rng(3)
    xa = rng.normal([-2, 0], 0.3, (10, 2))
    xb = rng.normal([2, 0], 0.3, (10, 2))
    x = np.vstack([xa, xb])
    y = np.array([-1.0] * 10 + [1.0] * 10)
    model = svm_train(x, y, KernelSpec("linear"), c=10.0)
    assert (np.sign(model.decision(x)) == y).all()
    assert abs(model.dual_coef.sum()) < 1e-6


def test_dual_constraint_on_rbf_models():
    rng = np.random.default_rng(4)
    x = rng.random((40, 3))
    y = np.where(x[:, 0] + 0.2 * rng.random(40) > 0.5, 1.0, -1.0)
    if len(set(y)) < 2:
        y[0] = -y[0]
    model = svm_train(x, y, KernelSpec("rbf", sigma=0.5), c=5.0)
    assert abs(model.dual_coef.sum()) < 1e-6


def test_svm_train_rejects_degenerate_input():
    with pytest.raises(ValueError):
        svm_train(np.ones((3, 2)), [1.0, 1.0, 1.0], KernelSpec("linear"))
    with pytest.raises(ValueError):
        svm_train(np.ones((2, 2)), [1.0, -1.0], KernelSpec("linear"), c=-1.0)
    with pytest.raises(ValueError):
        svm_train(np.ones((2, 2)), [2.0, -1.0], KernelSpec("linear"))


def test_svm_train_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.random((30, 4))
    y = np.where(x[:, 1] > 0.5, 1.0, -1.0)
    if len(set(y)) < 2:
        y[0] = -y[0]
    a = svm_train(x, y, KernelSpec("rbf", sigma=0.7), c=3.0)
    b = svm_train(x, y, KernelSpec("rbf", sigma=0.7), c=3.0)
    assert np.array_equal(a.support_vectors, b.support_vectors)
    assert np.array_equal(a.dual_coef, b.dual_coef)
    assert a.bias == b.bias


# ---------------------------------------------------------------------------
# one-vs-all
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def blobs_model():
    rng = np.random.default_rng(6)
    centers = np.array([[0, 0], [3, 0], [0, 3]])
    x = np.vstack([rng.normal(c, 0.1, (30, 2)) for c in centers])
    labels = ["a"] * 30 + ["b"] * 30 + ["c"] * 30
    return x, labels, ova_train(x, labels, KernelSpec("rbf", sigma=1.0), c=10.0)


def test_three_blob_rbf_training_accuracy(blobs_model):
    x, labels, model = blobs_model
    preds, _ = model.decide(model.scores(x))
    acc = np.mean([p == t for p, t in zip(preds, labels)])
    assert acc >= 0.99


def test_scores_vector_shape_and_argmax_shift_invariance(blobs_model):
    x, _, model = blobs_model
    scores = model.scores(x[0])[0]
    (label,), _ = model.decide(scores[None])
    assert len(scores) == 3
    assert model.labels == ["a", "b", "c"]
    shifted = scores + 5.0
    assert model.labels[int(shifted.argmax())] == label


def test_svm_decision_is_batched_with_ties_to_the_lowest_label(blobs_model):
    x, _, model = blobs_model
    scores = np.array([[1.0, 1.0, 0.5], [0.0, 2.0, 2.0], [-1.0, -3.0, -0.5]])
    labels, best = model.decide(scores)
    assert labels == ["a", "b", "c"]
    assert best.tolist() == [1.0, 2.0, -0.5]
    labels, best = model.decide(model.scores(x))
    assert labels == [model.decide(model.scores(row))[0][0] for row in x]
    assert np.array_equal(best, model.scores(x).max(axis=1))


def test_two_class_ova_agrees_with_binary_sign():
    rng = np.random.default_rng(7)
    x = np.vstack([rng.normal([-1, 0], 0.2, (12, 2)), rng.normal([1, 0], 0.2, (12, 2))])
    labels = ["neg"] * 12 + ["pos"] * 12
    model = ova_train(x, labels, KernelSpec("linear"), c=10.0)
    binary = svm_train(x, np.array([-1.0] * 12 + [1.0] * 12), KernelSpec("linear"), c=10.0)
    for row in x:
        (pred,), _ = model.decide(model.scores(row))
        want = "pos" if binary.decision(row[None, :])[0] > 0 else "neg"
        assert pred == want


def test_ova_needs_two_classes():
    with pytest.raises(ValueError):
        ova_train(np.ones((3, 2)), ["a", "a", "a"], KernelSpec("linear"))


@pytest.mark.parametrize("spec", [KernelSpec("linear", c=0.5), KernelSpec("rbf", sigma=0.8), KernelSpec("chi2")],
                         ids=["linear", "rbf", "chi2"])
def test_ova_train_solves_every_class_over_one_gram_as_svm_train_does(monkeypatch, spec):
    rng = np.random.default_rng(10)
    x = rng.random((45, 6))
    labels = [f"room{i % 4}" for i in range(45)]
    calls = []

    def counted(*args):
        calls.append(args)
        return gram_matrix(*args)

    monkeypatch.setattr(classify, "gram_matrix", counted)
    model = ova_train(x, labels, spec, c=3.0)
    assert len(calls) == 1
    monkeypatch.undo()
    for cls in model.labels:
        one = svm_train(x, np.where(np.array(labels) == cls, 1.0, -1.0), spec, c=3.0)
        m = model.machines[cls]
        assert m.store is model.store
        assert m.support_vectors.tobytes() == one.support_vectors.tobytes()
        assert m.dual_coef.tobytes() == one.dual_coef.tobytes()
        assert m.bias == one.bias


def test_ova_train_holds_one_gram_and_no_copy_of_the_support_vectors():
    rng = np.random.default_rng(12)
    n, dim, classes = 300, 2000, 6
    x = rng.random((classes, dim))[np.arange(n) % classes] + 0.5 * rng.random((n, dim))
    labels = [f"room{i % classes}" for i in range(n)]
    ova_train(x[:12], labels[:12], KernelSpec("linear"))  # numpy's lazy imports, outside the trace
    tracemalloc.start()
    try:
        model = ova_train(x, labels, KernelSpec("linear"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x n Gram and O(n) vectors; a copy of 16 support vectors would fail
    assert peak < n * n * 8 + (1 << 18), peak
    assert sum(len(m.rows) for m in model.machines.values()) > 16
    assert np.shares_memory(model.store, x)


# ---------------------------------------------------------------------------
# composite features + nearest neighbor
# ---------------------------------------------------------------------------

def test_composite_distance_identity_and_single_part():
    a = make_cf([0.25, 0.75], measure="jeffrey")
    assert nn_distances(a, labeled([("", a)]))[0][0, 0] == 0.0
    b = make_cf([0.5, 0.5], measure="jeffrey")
    from placevision.distances import pairwise_distances

    want = pairwise_distances("jeffrey", [0.25, 0.75], [0.5, 0.5])[0, 0]
    assert nn_distances(a, labeled([("", b)]))[0][0, 0] == pytest.approx(want)


def test_composite_distance_two_parts_weighted_mean():
    def cf(u, v):
        return Composite(
            (("p1", "minkowski:1", 0.5), ("p2", "euclidean", 0.5)),
            (np.asarray(u, float)[None, :], np.asarray(v, float)[None, :]),
        )

    a, b = cf([0.0, 1.0], [1.0, 0.0]), cf([1.0, 1.0], [1.0, 2.0])
    want = 0.5 * 1.0 + 0.5 * 2.0
    assert nn_distances(a, labeled([("", b)]))[0][0, 0] == pytest.approx(want)


def test_composite_configuration_mismatch_raises():
    a = make_cf([1.0, 0.0], measure="euclidean")
    b = make_cf([1.0, 0.0], measure="jeffrey")
    with pytest.raises(ValueError):
        nn_distances(a, labeled([("", b)]))


@pytest.mark.parametrize("query_parts, dims", [
    ((("p1", "jeffrey", 0.5), ("p2", "euclidean", 0.5)), (2, 3)),  # a measure
    ((("p1", "minkowski:1", 0.4), ("p2", "euclidean", 0.6)), (2, 3)),  # the weights
    ((("p1", "minkowski:1", 0.5), ("p2", "euclidean", 0.5)), (2, 4)),  # a dimension
])
def test_query_gallery_mismatch_is_value_error(query_parts, dims):
    parts = (("p1", "minkowski:1", 0.5), ("p2", "euclidean", 0.5))
    gallery = (["a", "b"], Composite(parts, [np.ones((2, 2)), np.ones((2, 3))]))
    assert nn_distances(Composite(parts, [np.ones((1, 2)), np.ones((1, 3))]), gallery)[0].shape == (1, 2)
    with pytest.raises(ValueError, match="configuration mismatch"):
        nn_distances(Composite(query_parts, [np.ones((1, d)) for d in dims]), gallery)


@pytest.mark.parametrize("parts, matrices, message", [
    ((), (), "at least one part"),
    ((("p", "euclidean", 1.0),), (), "one matrix for each"),
    ((("p", "euclidean", -0.5), ("q", "euclidean", 1.5)), (np.ones((1, 2)),) * 2, ">= 0"),
    ((("p", "euclidean", float("nan")),), (np.ones((1, 2)),), ">= 0"),
    ((("p", "euclidean", 0.5), ("q", "euclidean", 0.4)), (np.ones((1, 2)),) * 2, "sum to 1"),
    ((("p", "euclidean", 0.5), ("q", "euclidean", 0.5)), (np.ones((1, 2)), np.ones((2, 2))), "same n"),
    ((("p", "euclidean", 1.0),), (np.ones(3),), r"\(n, d\)"),
])
def test_composite_checks_weights_and_rows_once(parts, matrices, message):
    with pytest.raises(ValueError, match=message):
        Composite(parts, matrices)


def test_composite_rows_are_frozen_and_taken_together():
    rows = np.arange(12.0).reshape(4, 3)
    c = Composite((("p", "euclidean", 0.25), ("q", "minkowski:1", 0.75)), (rows[:, :2], rows))
    assert len(c) == 4 and c.matrices[0].flags.c_contiguous
    assert not any(m.flags.writeable for m in c.matrices)
    picked = c.take(np.array([3, 1]))
    assert np.array_equal(picked.matrices[1], rows[[3, 1]]) and picked.parts == c.parts
    assert np.array_equal(c.concatenated(), np.hstack([0.25 * rows[:, :2], 0.75 * rows]))


def test_nn_classify_basic_and_thresholds():
    gallery = labeled([("a", make_cf([0.0, 0.0])), ("b", make_cf([1.0, 1.0]))])
    permissive = ThresholdSet.permissive(["a", "b"])
    assert nn_decide(*nn_distances(make_cf([0.0, 0.0]), gallery), permissive)[0] == ["a"]
    strict = ThresholdSet({"a": 0.0, "b": 0.0})
    assert nn_decide(*nn_distances(make_cf([0.4, 0.1]), gallery), strict)[0] == [UNKNOWN]


def test_nn_classify_tie_breaks_to_lowest_label():
    gallery = labeled([("z", make_cf([1.0, 0.0])), ("a", make_cf([0.0, 1.0]))])
    (label,), _ = nn_decide(*nn_distances(make_cf([0.5, 0.5]), gallery), ThresholdSet.permissive(["a", "z"]))
    assert label == "a"


def test_nn_classify_agrees_with_exhaustive_oracle():
    rng = np.random.default_rng(8)
    centers = {"a": [0, 0], "b": [2, 0], "c": [0, 2]}
    gallery = []
    for lb, c in centers.items():
        for _ in range(6):
            gallery.append((lb, make_cf(rng.normal(c, 0.3, 2))))
    thresholds = ThresholdSet({lb: 1.4 for lb in centers})
    for _ in range(100):
        q = make_cf(rng.uniform(-1, 3, 2))
        (got,), (dist,) = nn_decide(*nn_distances(q, labeled(gallery)), thresholds)
        pairs = [(np.linalg.norm(q.matrices[0][0] - f.matrices[0][0]), lb) for lb, f in gallery]
        best = min(d for d, _ in pairs)
        label = sorted(lb for d, lb in pairs if d <= best)[0]
        want = label if best <= 1.4 else UNKNOWN
        assert got == want
        assert dist == pytest.approx(best)


def test_threshold_set_requires_finite_values():
    with pytest.raises(ValueError):
        ThresholdSet({"a": float("inf")})


# ---------------------------------------------------------------------------
# genetic threshold search
# ---------------------------------------------------------------------------

def test_ga_default_parameters_match_published_setup():
    p = GaParams()
    assert (p.population, p.mutation_rate, p.crossover_rate, p.generations) == (
        200,
        0.15,
        0.7,
        1000,
    )


def _toy_sets(rng):
    train = [("a", make_cf([0.0, 0.0])), ("b", make_cf([2.0, 2.0]))]
    val = [("a", make_cf(rng.normal([0, 0], 0.2, 2))) for _ in range(8)]
    val += [("b", make_cf(rng.normal([2, 2], 0.2, 2))) for _ in range(8)]
    return train, val


def test_ga_reaches_perfect_f_on_separable_toy_within_50_generations():
    rng = np.random.default_rng(9)
    train, val = _toy_sets(rng)
    result = ga_optimize_thresholds(labeled(train), labeled(val), GaParams(generations=50, seed=3))
    assert result.best_fitness == pytest.approx(1.0)
    assert np.argmax(result.history >= 1.0) < 50


def test_ga_elitist_history_is_monotone():
    rng = np.random.default_rng(10)
    train, val = _toy_sets(rng)
    result = ga_optimize_thresholds(labeled(train), labeled(val), GaParams(generations=120, seed=4))
    assert np.all(np.diff(result.history) >= 0)


def test_ga_deterministic_given_seed():
    rng = np.random.default_rng(11)
    train, val = _toy_sets(rng)
    r1 = ga_optimize_thresholds(labeled(train), labeled(val), GaParams(generations=30, seed=5))
    r2 = ga_optimize_thresholds(labeled(train), labeled(val), GaParams(generations=30, seed=5))
    assert r1.thresholds.by_label == r2.thresholds.by_label
    assert np.array_equal(r1.history, r2.history)


def test_ga_validates_inputs():
    with pytest.raises(ValueError):
        ga_optimize_thresholds(labeled([]), labeled([("a", make_cf([0.0]))]), GaParams(generations=1))
    with pytest.raises(ValueError):
        ga_optimize_thresholds(
            labeled([("a", make_cf([0.0]))]), labeled([("zz", make_cf([0.0]))]), GaParams(generations=1)
        )


# the GA's fitness as first written, the reference for `full_loop_ga` and
# `_exact_optimum`
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


def full_loop_ga(train, validation, params):
    """The GA as first written: every generation runs, parents are drawn by
    Generator.choice and each parent side gathers the ranked population."""
    train_labels = sorted({lb for lb, _ in train})
    nearest_label, nearest_dist = nn_decide(*nn_distances(labeled(validation)[1], labeled(train)))
    label_index = {lb: i for i, lb in enumerate(train_labels)}
    nearest_class = np.array([label_index[lb] for lb in nearest_label])
    correct = np.array([got == lb for got, (lb, _) in zip(nearest_label, validation)])
    gene_range = float(max(nearest_dist.max(), 1e-12))
    rng = np.random.default_rng(params.seed)
    pop = rng.uniform(0.0, gene_range, size=(params.population, len(train_labels)))

    def fitness(p):
        accepted = nearest_dist[None, :] <= p[:, nearest_class]
        return _micro_f_measure(accepted, np.broadcast_to(correct, accepted.shape))

    history = np.empty(params.generations)
    best_genome = pop[0].copy()
    best_fit = -1.0
    ranks = np.arange(params.population, 0, -1, dtype=float)
    rank_p = ranks / ranks.sum()
    n_children = params.population - params.elite
    for gen in range(params.generations):
        fit = fitness(pop)
        order = np.argsort(-fit, kind="stable")
        if fit[order[0]] > best_fit:
            best_fit = float(fit[order[0]])
            best_genome = pop[order[0]].copy()
        history[gen] = best_fit
        elite = pop[order[: params.elite]].copy()
        parents_idx = rng.choice(params.population, size=(n_children, 2), p=rank_p)
        pa = pop[order][parents_idx[:, 0]]
        pb = pop[order][parents_idx[:, 1]]
        mix = rng.random((n_children, 1))
        do_cross = rng.random((n_children, 1)) < params.crossover_rate
        children = np.where(do_cross, mix * pa + (1 - mix) * pb, pa)
        mutate = rng.random(children.shape) < params.mutation_rate
        noise = rng.normal(0.0, params.mutation_sigma_factor * gene_range, size=children.shape)
        children = np.clip(children + mutate * noise, 0.0, gene_range)
        pop = np.vstack([elite, children])
    return ThresholdSet(dict(zip(train_labels, best_genome))), best_fit, history


def _ga_case(case, rng):
    """Gallery and validation rows whose nearest neighbours are all right,
    partly wrong (the wrong ones further out than the right ones of their
    class, so the ceiling can be reached) or all wrong."""
    train = [("a", make_cf([0.0, 0.0])), ("b", make_cf([4.0, 4.0])), ("c", make_cf([0.0, 4.0]))]
    near = lambda centre: make_cf(rng.normal(centre, 0.2, 2))  # noqa: E731
    if case == "all-correct":
        return train, [(lb, near(c)) for lb, c in [("a", [0, 0]), ("b", [4, 4]), ("c", [0, 4])] * 3]
    if case == "some-wrong":
        val = [(lb, near(c)) for lb, c in [("a", [0, 0]), ("b", [4, 4]), ("c", [0, 4])] * 3]
        return train, val + [("b", make_cf([1.4, 0.0])), ("a", make_cf([0.0, 2.6]))]
    return train, [(lb, near(c)) for lb, c in [("b", [0, 0]), ("c", [4, 4]), ("a", [0, 4])] * 2]


@pytest.mark.parametrize("case, ceiling", [("all-correct", 1.0), ("some-wrong", 0.9), ("none-correct", 0.0)])
def test_ga_equals_the_full_loop_and_stops_at_its_ceiling(case, ceiling):
    generations = 150
    stopped = []
    for seed in range(3):
        train, val = _ga_case(case, np.random.default_rng(seed))
        for population in (2, 3, 200):
            params = GaParams(population=population, generations=generations, seed=seed)
            got = ga_optimize_thresholds(labeled(train), labeled(val), params)
            thresholds, best, history = full_loop_ga(train, val, params)
            want = np.array([thresholds.by_label[lb] for lb in "abc"])
            assert np.array([got.thresholds.by_label[lb] for lb in "abc"]).tobytes() == want.tobytes()
            assert got.best_fitness == best
            assert got.history.tobytes() == history.tobytes()
            assert got.ceiling == pytest.approx(ceiling)
            assert (got.generations_run < generations) == (best >= got.ceiling)
            stopped.append(got.generations_run < generations)
    assert any(stopped)
    if case == "none-correct":
        assert all(stopped)


def _exact_optimum(train, validation):
    """Best micro F of any per-class thresholds: each class accepts a
    prefix of its validation rows sorted by nearest distance."""
    labels = sorted({lb for lb, _ in train})
    nearest_label, nearest_dist = nn_decide(*nn_distances(labeled(validation)[1], labeled(train)))
    correct = np.array([got == lb for got, (lb, _) in zip(nearest_label, validation)])
    cuts = []
    for lb in labels:
        mine = [d for got, d in zip(nearest_label, nearest_dist.tolist()) if got == lb]
        cuts.append([-1.0] + sorted(mine))  # -1 accepts none of the class
    best = 0.0
    for limits in itertools.product(*cuts):
        limit = dict(zip(labels, limits))
        accepted = np.array([d <= limit[got] for got, d in zip(nearest_label, nearest_dist.tolist())])
        best = max(best, float(_micro_f_measure(accepted[None, :], correct[None, :])[0]))
    return best


@settings(max_examples=100, deadline=None)
@given(
    n_classes=st.integers(1, 3),
    points=st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 10.0)), min_size=1, max_size=8),
    seed=st.integers(0, 2**16),
)
def test_ga_never_beats_the_exact_optimum_which_never_beats_the_ceiling(n_classes, points, seed):
    labels = "abc"[:n_classes]
    train = [(lb, make_cf([3.0 * i])) for i, lb in enumerate(labels)]
    val = [(labels[k % n_classes], make_cf([x])) for k, x in points]
    result = ga_optimize_thresholds(labeled(train), labeled(val), GaParams(population=6, generations=15, seed=seed))
    optimum = _exact_optimum(train, val)
    assert result.best_fitness <= optimum <= result.ceiling


def test_ga_fitness_is_the_f_the_report_gives_its_answers():
    rng = np.random.default_rng(22)
    centres = {"a": [0.0, 0.0], "b": [2.0, 0.0], "c": [0.0, 2.0], "d": [2.0, 2.0]}
    train = [(lb, make_cf(rng.normal(c, 0.6, 2))) for lb, c in centres.items() for _ in range(3)]
    val = [(lb, make_cf(rng.normal(c, 0.9, 2))) for lb, c in centres.items() for _ in range(12)]
    for seed in range(3):
        params = GaParams(population=20, generations=25, seed=seed)
        result = ga_optimize_thresholds(labeled(train), labeled(val), params)
        assert 0 < result.best_fitness < result.ceiling < 1
        answers, _ = nn_decide(*nn_distances(labeled(val)[1], labeled(train)), result.thresholds)
        f = build_report(answers, [lb for lb, _ in val]).aggregate[2]
        assert np.float64(result.best_fitness).tobytes() == np.float64(f).tobytes()


def test_ga_params_name_the_field_they_reject():
    train, val = _toy_sets(np.random.default_rng(12))
    for params, field in [
        (GaParams(population=0), "population"),
        (GaParams(population=1), "population must be an integer >= elite"),
        (GaParams(generations=0), "generations"),
        (GaParams(mutation_rate=2.0), "mutation_rate"),
        (GaParams(crossover_rate=float("nan")), "crossover_rate"),
        (GaParams(elite=0), "elite"),
        (GaParams(seed=-1), "seed"),
        (GaParams(generations=2.5), "generations"),
    ]:
        with pytest.raises(ValueError, match=field):
            ga_optimize_thresholds(labeled(train), labeled(val), params)
