import math

import numpy as np
import pytest

from placevision.classify import (
    UNKNOWN,
    CompositeFeature,
    CompositePart,
    GaParams,
    KernelSpec,
    ThresholdSet,
    composite_distance,
    ga_optimize_thresholds,
    gram_matrix,
    kernel,
    median_heuristic_sigma,
    nn_classify,
    ova_predict,
    ova_train,
    svm_train,
)


def make_cf(v, measure="euclidean", name="g"):
    return CompositeFeature((CompositePart(name, np.asarray(v, float), measure, 1.0),))


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_kernel_hand_values():
    assert kernel([1, 2], [3, 4], KernelSpec("linear")) == 11.0
    assert kernel([1, 2], [3, 4], KernelSpec("linear", c=1.5)) == 12.5
    x = np.array([0.3, 0.9, 0.1])
    assert kernel(x, x, KernelSpec("rbf", sigma=0.4)) == 1.0
    assert kernel(x, x, KernelSpec("chi2")) == 1.0


def test_kernel_validation():
    with pytest.raises(ValueError):
        kernel([1, 2], [1, 2, 3], KernelSpec("linear"))
    with pytest.raises(ValueError):
        kernel([-0.1, 0.2], [0.1, 0.2], KernelSpec("chi2"))
    with pytest.raises(ValueError):
        KernelSpec.parse("sigmoid")


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
                assert g[i, j] == pytest.approx(kernel(xa[i], xb[j], spec), abs=1e-12)


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
    preds = [ova_predict(model, row)[0] for row in x]
    acc = np.mean([p == t for p, t in zip(preds, labels)])
    assert acc >= 0.99


def test_scores_vector_shape_and_argmax_shift_invariance(blobs_model):
    x, _, model = blobs_model
    label, scores = ova_predict(model, x[0])
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
    assert labels == [ova_predict(model, row)[0] for row in x]
    assert np.array_equal(best, model.scores(x).max(axis=1))


def test_two_class_ova_agrees_with_binary_sign():
    rng = np.random.default_rng(7)
    x = np.vstack([rng.normal([-1, 0], 0.2, (12, 2)), rng.normal([1, 0], 0.2, (12, 2))])
    labels = ["neg"] * 12 + ["pos"] * 12
    model = ova_train(x, labels, KernelSpec("linear"), c=10.0)
    binary = svm_train(x, np.array([-1.0] * 12 + [1.0] * 12), KernelSpec("linear"), c=10.0)
    for row in x:
        pred, _ = ova_predict(model, row)
        want = "pos" if binary.decision(row[None, :])[0] > 0 else "neg"
        assert pred == want


def test_ova_needs_two_classes():
    with pytest.raises(ValueError):
        ova_train(np.ones((3, 2)), ["a", "a", "a"], KernelSpec("linear"))


# ---------------------------------------------------------------------------
# composite features + nearest neighbor
# ---------------------------------------------------------------------------

def test_composite_distance_identity_and_single_part():
    a = make_cf([0.25, 0.75], measure="jeffrey")
    assert composite_distance(a, a) == 0.0
    b = make_cf([0.5, 0.5], measure="jeffrey")
    from placevision.distances import jeffrey

    assert composite_distance(a, b) == pytest.approx(jeffrey([0.25, 0.75], [0.5, 0.5]))


def test_composite_distance_two_parts_weighted_mean():
    def cf(u, v):
        return CompositeFeature(
            (
                CompositePart("p1", np.asarray(u, float), "minkowski:1", 0.5),
                CompositePart("p2", np.asarray(v, float), "euclidean", 0.5),
            )
        )

    a, b = cf([0.0, 1.0], [1.0, 0.0]), cf([1.0, 1.0], [1.0, 2.0])
    want = 0.5 * 1.0 + 0.5 * 2.0
    assert composite_distance(a, b) == pytest.approx(want)


def test_composite_configuration_mismatch_raises():
    a = make_cf([1.0, 0.0], measure="euclidean")
    b = make_cf([1.0, 0.0], measure="jeffrey")
    with pytest.raises(ValueError):
        composite_distance(a, b)


def test_nn_classify_basic_and_thresholds():
    gallery = [("a", make_cf([0.0, 0.0])), ("b", make_cf([1.0, 1.0]))]
    permissive = ThresholdSet.permissive(["a", "b"])
    assert nn_classify(make_cf([0.0, 0.0]), gallery, permissive)[0] == "a"
    strict = ThresholdSet({"a": 0.0, "b": 0.0})
    assert nn_classify(make_cf([0.4, 0.1]), gallery, strict)[0] == UNKNOWN


def test_nn_classify_tie_breaks_to_lowest_label():
    gallery = [("z", make_cf([1.0, 0.0])), ("a", make_cf([0.0, 1.0]))]
    label, _ = nn_classify(make_cf([0.5, 0.5]), gallery, ThresholdSet.permissive(["a", "z"]))
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
        got, dist = nn_classify(q, gallery, thresholds)
        pairs = [(np.linalg.norm(q.parts[0].vector - f.parts[0].vector), lb) for lb, f in gallery]
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
    result = ga_optimize_thresholds(train, val, GaParams(generations=50, seed=3))
    assert result.best_fitness == pytest.approx(1.0)
    assert np.argmax(result.history >= 1.0) < 50


def test_ga_elitist_history_is_monotone():
    rng = np.random.default_rng(10)
    train, val = _toy_sets(rng)
    result = ga_optimize_thresholds(train, val, GaParams(generations=120, seed=4))
    assert np.all(np.diff(result.history) >= 0)


def test_ga_deterministic_given_seed():
    rng = np.random.default_rng(11)
    train, val = _toy_sets(rng)
    r1 = ga_optimize_thresholds(train, val, GaParams(generations=30, seed=5))
    r2 = ga_optimize_thresholds(train, val, GaParams(generations=30, seed=5))
    assert r1.thresholds.by_label == r2.thresholds.by_label
    assert np.array_equal(r1.history, r2.history)


def test_ga_validates_inputs():
    with pytest.raises(ValueError):
        ga_optimize_thresholds([], [("a", make_cf([0.0]))], GaParams(generations=1))
    with pytest.raises(ValueError):
        ga_optimize_thresholds(
            [("a", make_cf([0.0]))], [("zz", make_cf([0.0]))], GaParams(generations=1)
        )
