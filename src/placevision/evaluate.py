"""Evaluation measures, confusion matrices, PR curves, CSV reports.

Conventions for empty denominators keep every metric total: a ratio is
0 where its denominator is.  Aggregate rows are micro-averaged (pooled
counts).  The UNKNOWN rejection label is no class: it occupies an extra
confusion column and never counts as retrieved.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .binfile import write_atomic

UNKNOWN = "UNKNOWN"


def rates(relevant_retrieved, retrieved, relevant) -> Tuple[np.ndarray, ...]:
    """(precision, recall, f_measure, error_rate) arrays from arrays of
    retrieval counts, elementwise; each is 0 where its denominator is."""
    hit, ret, rel = (np.asarray(a, dtype=np.float64) for a in (relevant_retrieved, retrieved, relevant))

    def ratio(num, den):
        return np.divide(num, den, out=np.zeros(np.broadcast(num, den).shape), where=den > 0)

    precision = ratio(hit, ret)
    recall = ratio(hit, rel)
    f_measure = ratio(2 * precision * recall, precision + recall)
    return precision, recall, f_measure, ratio(rel - hit, rel)


def metrics(relevant_retrieved: int, retrieved: int, relevant: int) -> Tuple[float, float, float, float]:
    """(precision, recall, f_measure, error_rate) from retrieval counts."""
    if relevant_retrieved < 0 or retrieved < 0 or relevant <= 0:
        raise ValueError("counts must be non-negative with relevant > 0")
    if relevant_retrieved > min(retrieved, relevant):
        raise ValueError(
            f"inconsistent counts: {relevant_retrieved} relevant retrieved out of "
            f"{retrieved} retrieved / {relevant} relevant"
        )
    return tuple(float(v) for v in rates(relevant_retrieved, retrieved, relevant))


def confusion_matrix(
    predictions: Sequence[str], truths: Sequence[str], labels: Sequence[str] | None = None
) -> Tuple[np.ndarray, List[str]]:
    """(matrix, classes): counts with one row per class and one column per
    answer, the last for UNKNOWN.  The classes are every label that occurs:
    the given ``labels``, the truths and the answers other than UNKNOWN."""
    if len(predictions) != len(truths):
        raise ValueError(f"length mismatch: {len(predictions)} vs {len(truths)}")
    if UNKNOWN in truths:
        raise ValueError(f"a true label cannot be the rejection label {UNKNOWN}")
    classes = sorted(set(truths).union(() if labels is None else labels, predictions) - {UNKNOWN})
    index = {lb: i for i, lb in enumerate([*classes, UNKNOWN])}
    cells = np.array([[index[t] for t in truths], [index[p] for p in predictions]], dtype=np.intp)
    mat = np.zeros((len(classes), len(classes) + 1), dtype=np.int64)
    np.add.at(mat, tuple(cells), 1)
    return mat, classes


def pr_curve(scored: Sequence[Tuple[float, bool]]) -> List[Tuple[float, float]]:
    """Precision/recall pairs swept over the unique score thresholds, higher
    scores retrieved first.

    Each output point is (recall, precision) for the retrieval set at
    one threshold, ordered so recall is non-decreasing.
    """
    if not scored:
        raise ValueError("pr_curve needs at least one scored item")
    scores = np.array([s for s, _ in scored], dtype=np.float64)
    rel = np.array([bool(r) for _, r in scored])
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    # the last item of each run of equal scores closes one retrieval set
    last = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    hits = np.cumsum(rel[order])[last]
    precision, recall = rates(hits, np.flatnonzero(last) + 1, rel.sum())[:2]
    return list(zip(recall.tolist(), precision.tolist()))


@dataclass
class EvalReport:
    labels: List[str]
    confusion: np.ndarray  # (n, n+1), last column = UNKNOWN
    per_class: Dict[str, Tuple[float, float, float, float]]
    aggregate: Tuple[float, float, float, float]
    pr_points: List[Tuple[float, float]]

    @property
    def accuracy(self) -> float:
        return self.aggregate[1]  # the pooled recall, as every row is relevant


def build_report(
    predictions: Sequence[str],
    truths: Sequence[str],
    scores: Sequence[float] | None = None,
    labels: Sequence[str] | None = None,
) -> EvalReport:
    """Assemble confusion, per-class and micro-averaged pooled metrics.

    When per-item scores are given, the PR curve treats "correctly
    labeled" as the relevance signal.
    """
    mat, classes = confusion_matrix(predictions, truths, labels)
    answered = mat[:, : len(classes)]
    # one row of counts per class, then the pooled row
    hit = np.append(np.diag(answered), np.trace(answered))
    retrieved = np.append(answered.sum(axis=0), answered.sum())
    relevant = np.append(mat.sum(axis=1), mat.sum())
    rows = np.column_stack(rates(hit, retrieved, relevant)).tolist()
    per_class = {lb: tuple(row) for lb, row in zip(classes, rows)}
    aggregate = tuple(rows[-1])
    points = []
    if scores is not None:
        correct = [p == t for p, t in zip(predictions, truths)]
        points = pr_curve(list(zip(scores, correct)))
    return EvalReport(classes, mat, per_class, aggregate, points)


def write_csv(path, rows) -> Path:
    """Write rows as UTF-8 CSV with "\\n" line ends, atomically."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    write_atomic(path, [buf.getvalue().encode("utf-8")])
    return Path(path)


def write_report(report: EvalReport, out_dir) -> List[Path]:
    """Emit confusion.csv, pr_curve.csv and summary.csv; bytes are
    deterministic for identical reports."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    confusion = [["true\\predicted", *report.labels, UNKNOWN]]
    confusion += [[lb, *(int(v) for v in report.confusion[i])] for i, lb in enumerate(report.labels)]
    pr = [["recall", "precision"]] + [[f"{r:.10g}", f"{p:.10g}"] for r, p in report.pr_points]
    summary = [["class", "precision", "recall", "f_measure", "error_rate"]]
    rows = [(lb, report.per_class[lb]) for lb in report.labels] + [("__aggregate__", report.aggregate)]
    summary += [[name, *(f"{v:.6f}" for v in values)] for name, values in rows]
    return [
        write_csv(out / "confusion.csv", confusion),
        write_csv(out / "pr_curve.csv", pr),
        write_csv(out / "summary.csv", summary),
    ]

