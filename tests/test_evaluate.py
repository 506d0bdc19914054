import csv

import numpy as np
import pytest

from placevision.classify import UNKNOWN
from placevision.evaluate import (
    build_report,
    confusion_matrix,
    metrics,
    pr_curve,
    rates,
    write_report,
)


def test_metrics_worked_example():
    p, r, f, er = metrics(8, 10, 16)
    assert p == 0.8
    assert r == 0.5
    assert f == pytest.approx(2 * 0.4 / 1.3)
    assert er == 0.5


def test_metrics_perfect_and_empty_runs():
    assert metrics(7, 7, 7) == (1.0, 1.0, 1.0, 0.0)
    p, r, f, er = metrics(0, 0, 5)
    assert (p, r, f, er) == (0.0, 0.0, 0.0, 1.0)


def test_metrics_rejects_inconsistent_counts():
    with pytest.raises(ValueError):
        metrics(5, 4, 10)
    with pytest.raises(ValueError):
        metrics(3, 5, 2)
    with pytest.raises(ValueError):
        metrics(0, 0, 0)


def test_error_rate_complements_recall_on_random_counts():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        relevant = int(rng.integers(1, 1000))
        retrieved = int(rng.integers(0, 1200))
        rr = int(rng.integers(0, min(relevant, retrieved) + 1))
        _, r, _, er = metrics(rr, retrieved, relevant)
        assert er + r == 1.0


def scalar_metrics(relevant_retrieved, retrieved, relevant):
    """The scalar arithmetic `metrics` was first written with."""
    precision = relevant_retrieved / retrieved if retrieved > 0 else 0.0
    recall = relevant_retrieved / relevant
    f_measure = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    error_rate = (relevant - relevant_retrieved) / relevant
    return precision, recall, f_measure, error_rate


def test_rates_equal_the_scalar_arithmetic_bit_for_bit():
    rng = np.random.default_rng(20)
    relevant = rng.integers(1, 2000, 1500)
    retrieved = rng.integers(0, 2500, 1500)
    retrieved[:200] = 0  # nothing retrieved
    hit = (rng.random(1500) * (np.minimum(relevant, retrieved) + 1)).astype(np.int64)
    hit[200:300] = np.minimum(relevant, retrieved)[200:300]
    got = rates(hit, retrieved, relevant)
    want = np.array([scalar_metrics(*map(int, t)) for t in zip(hit, retrieved, relevant)])
    for i in range(4):
        assert got[i].tobytes() == want[:, i].tobytes()
    assert [metrics(*map(int, t)) for t in zip(hit, retrieved, relevant)] == [tuple(w) for w in want.tolist()]


def test_rates_are_zero_where_their_denominator_is():
    p, r, f, er = rates([0, 0, 3], [0, 4, 0], [0, 0, 5])
    assert p.tolist() == [0.0, 0.0, 0.0]
    assert r.tolist() == [0.0, 0.0, 0.6]
    assert f.tolist() == [0.0, 0.0, 0.0]
    assert er.tolist() == [0.0, 0.0, 0.4]


def test_confusion_classes_are_every_label_that_occurs():
    truths = ["b", "b", "d"]
    preds = ["c", UNKNOWN, "b"]
    mat, labels = confusion_matrix(preds, truths, labels=["a", "b"])
    assert labels == ["a", "b", "c", "d"]
    assert mat.tolist() == [[0, 0, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 0, 0], [0, 1, 0, 0, 0]]


def test_confusion_equals_a_per_row_tally():
    rng = np.random.default_rng(21)
    names = ["a", "b", "c", "d", UNKNOWN]
    truths = [names[i] for i in rng.integers(0, 3, 500)]
    preds = [names[i] for i in rng.integers(0, 5, 500)]
    mat, labels = confusion_matrix(preds, truths)
    assert labels == ["a", "b", "c", "d"]
    want = np.zeros((4, 5), dtype=np.int64)
    for p, t in zip(preds, truths):
        want[names.index(t), names.index(p)] += 1
    assert np.array_equal(mat, want)


def test_report_scores_an_answer_outside_the_truths_as_wrong():
    report = build_report(["a", "b"], ["a", "a"], labels=["a"])
    assert report.labels == ["a", "b"]
    assert report.per_class["b"] == (0.0, 0.0, 0.0, 0.0)
    assert report.accuracy == 0.5
    assert report.aggregate == (0.5, 0.5, 0.5, 0.5)


def test_confusion_all_correct_is_diagonal():
    preds = ["a", "a", "b", "c", "c", "c"]
    mat, labels = confusion_matrix(preds, preds)
    assert labels == ["a", "b", "c"]
    assert np.array_equal(mat[:, :3], np.diag([2, 1, 3]))
    assert mat[:, 3].sum() == 0


def test_confusion_all_unknown():
    truths = ["a", "b", "a"]
    mat, labels = confusion_matrix([UNKNOWN] * 3, truths)
    assert mat[:, : len(labels)].sum() == 0
    assert mat[:, len(labels)].tolist() == [2, 1]


def test_confusion_hand_tallied_example():
    truths = ["a", "a", "b", "b", "b"]
    preds = ["a", "b", "b", UNKNOWN, "a"]
    mat, labels = confusion_matrix(preds, truths)
    assert labels == ["a", "b"]
    assert mat.tolist() == [[1, 1, 0], [1, 1, 1]]
    assert mat.sum() == 5


def test_confusion_validates_labels():
    with pytest.raises(ValueError):
        confusion_matrix(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        confusion_matrix(["a"], [UNKNOWN])


def test_pr_curve_perfect_separation_pinned_at_precision_one():
    scored = [(1.0, True), (0.9, True), (0.2, False), (0.1, False)]
    points = pr_curve(scored)
    recalls = [r for r, _ in points]
    assert recalls == sorted(recalls)
    for r, p in points:
        if r <= 1.0 and p < 1.0:
            assert r == 1.0  # precision only drops after full recall
    assert (1.0, 1.0) in points


def test_pr_curve_final_point_equals_positive_rate():
    rng = np.random.default_rng(1)
    rel = [bool(i % 2) for i in range(200)]
    scored = list(zip(rng.random(200), rel))
    points = pr_curve(scored)
    assert points[-1][0] == 1.0
    assert points[-1][1] == pytest.approx(0.5)


def test_pr_curve_four_item_hand_example():
    scored = [(0.9, True), (0.8, False), (0.7, True), (0.6, False)]
    points = pr_curve(scored)
    assert points == [
        (0.5, 1.0),
        (0.5, 0.5),
        (1.0, 2 / 3),
        (1.0, 0.5),
    ]


def loop_pr_curve(scored):
    """`pr_curve` as first written: one step per item in score order."""
    scores = np.array([s for s, _ in scored], dtype=np.float64)
    rel = np.array([bool(r) for _, r in scored])
    n_relevant = int(rel.sum())
    order = np.argsort(-scores, kind="stable")
    points = []
    retrieved = 0
    hits = 0
    sorted_scores = scores[order]
    for idx, item in enumerate(order):
        retrieved += 1
        hits += bool(rel[item])
        boundary = idx + 1 == len(order) or sorted_scores[idx + 1] != sorted_scores[idx]
        if boundary:
            precision = hits / retrieved
            recall = hits / n_relevant if n_relevant else 0.0
            points.append((recall, precision))
    return points


def test_pr_curve_equals_the_per_item_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in [1, 2, 5, 40, 300] * 20:
        scores = rng.integers(0, max(2, n // 3), n) / 7.0  # ties in runs
        rel = rng.random(n) < rng.choice([0.0, 0.3, 1.0])  # none, some or all relevant
        scored = list(zip(scores.tolist(), rel.tolist()))
        got, want = pr_curve(scored), loop_pr_curve(scored)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_accuracy_is_the_share_of_correct_rows_bit_for_bit():
    rng = np.random.default_rng(24)
    names = ["a", "b", "c", UNKNOWN]
    for n in range(1, 200):
        truths = [names[i] for i in rng.integers(0, 3, n)]
        report = build_report([names[i] for i in rng.integers(0, 4, n)], truths)
        mat = report.confusion
        assert report.accuracy == float(np.trace(mat[:, : len(report.labels)]) / mat.sum())


def test_pr_curve_rejects_bad_input():
    with pytest.raises(ValueError):
        pr_curve([])
    with pytest.raises(ValueError):
        pr_curve([(float("nan"), True)])


def test_build_report_aggregates_and_accuracy():
    truths = ["a", "a", "a", "b", "b", "c"]
    preds = ["a", "a", "b", "b", UNKNOWN, "c"]
    report = build_report(preds, truths)
    # accuracy cross-checked against a direct loop
    direct = np.mean([p == t for p, t in zip(preds, truths)])
    assert report.accuracy == pytest.approx(direct)
    p, r, f, er = report.aggregate
    assert r == pytest.approx(4 / 6)
    assert p == pytest.approx(4 / 5)  # one prediction was UNKNOWN
    assert er + r == 1.0
    assert report.per_class["a"][0] == pytest.approx(1.0)


def test_write_report_files_and_round_trip(tmp_path):
    truths = ["a", "a", "b", "b"]
    preds = ["a", "b", "b", UNKNOWN]
    scores = [0.9, 0.4, 0.8, 0.1]
    report = build_report(preds, truths, scores=scores)
    paths = write_report(report, tmp_path / "report")
    names = [p.name for p in paths]
    assert names == ["confusion.csv", "pr_curve.csv", "summary.csv"]
    with paths[0].open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][1:-1] == report.labels
    assert np.array_equal([[int(v) for v in row[1:]] for row in rows[1:]], report.confusion)
    summary = paths[2].read_text().splitlines()
    assert summary[0] == "class,precision,recall,f_measure,error_rate"
    assert len(summary) == 1 + len(report.labels) + 1  # header + classes + aggregate
    assert summary[-1].startswith("__aggregate__")
    # identical report -> identical bytes
    again = write_report(report, tmp_path / "report2")
    for a, b in zip(paths, again):
        assert a.read_bytes() == b.read_bytes()
