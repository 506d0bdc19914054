"""Evaluation measures, confusion matrices, PR curves, CSV reports.

Conventions for empty denominators keep every metric total: precision
is 0 when nothing was retrieved, and F is 0 when P + R = 0.  Aggregate
rows are micro-averaged (pooled counts).  The UNKNOWN rejection label
occupies an extra confusion column and never counts as retrieved.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .binfile import write_atomic
from .classify import UNKNOWN


def metrics(relevant_retrieved: int, retrieved: int, relevant: int) -> Tuple[float, float, float, float]:
    """(precision, recall, f_measure, error_rate) from retrieval counts."""
    if relevant_retrieved < 0 or retrieved < 0 or relevant <= 0:
        raise ValueError("counts must be non-negative with relevant > 0")
    if relevant_retrieved > min(retrieved, relevant):
        raise ValueError(
            f"inconsistent counts: {relevant_retrieved} relevant retrieved out of "
            f"{retrieved} retrieved / {relevant} relevant"
        )
    precision = relevant_retrieved / retrieved if retrieved > 0 else 0.0
    recall = relevant_retrieved / relevant
    f_measure = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    error_rate = (relevant - relevant_retrieved) / relevant
    return precision, recall, f_measure, error_rate


def confusion_matrix(
    predictions: Sequence[str], truths: Sequence[str], labels: Sequence[str] | None = None
) -> Tuple[np.ndarray, List[str]]:
    """Counts with one row per true class and one column per predicted
    class plus a final UNKNOWN column.  Returns (matrix, class labels)."""
    if len(predictions) != len(truths):
        raise ValueError(f"length mismatch: {len(predictions)} vs {len(truths)}")
    classes = sorted(set(labels)) if labels is not None else sorted(set(truths))
    index = {lb: i for i, lb in enumerate(classes)}
    mat = np.zeros((len(classes), len(classes) + 1), dtype=np.int64)
    for pred, true in zip(predictions, truths):
        if true not in index:
            raise ValueError(f"true label {true!r} outside the class set")
        if pred == UNKNOWN:
            mat[index[true], len(classes)] += 1
        elif pred in index:
            mat[index[true], index[pred]] += 1
        else:
            raise ValueError(f"prediction {pred!r} outside class set + UNKNOWN")
    return mat, classes


def pr_curve(
    scored: Sequence[Tuple[float, bool]], higher_is_relevant: bool = True
) -> List[Tuple[float, float]]:
    """Precision/recall pairs swept over the unique score thresholds.

    Each output point is (recall, precision) for the retrieval set at
    one threshold, ordered so recall is non-decreasing.
    """
    if not scored:
        raise ValueError("pr_curve needs at least one scored item")
    scores = np.array([s for s, _ in scored], dtype=np.float64)
    rel = np.array([bool(r) for _, r in scored])
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    n_relevant = int(rel.sum())
    order = np.argsort(-scores if higher_is_relevant else scores, kind="stable")
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


@dataclass
class EvalReport:
    labels: List[str]
    confusion: np.ndarray  # (n, n+1), last column = UNKNOWN
    per_class: Dict[str, Tuple[float, float, float, float]]
    aggregate: Tuple[float, float, float, float]
    pr_points: List[Tuple[float, float]]

    @property
    def accuracy(self) -> float:
        total = self.confusion.sum()
        return float(np.trace(self.confusion[:, : len(self.labels)]) / total) if total else 0.0


def build_report(
    predictions: Sequence[str],
    truths: Sequence[str],
    scores: Sequence[float] | None = None,
    labels: Sequence[str] | None = None,
    higher_is_relevant: bool = True,
) -> EvalReport:
    """Assemble confusion, per-class and micro-averaged pooled metrics.

    When per-item scores are given, the PR curve treats "correctly
    labeled" as the relevance signal.
    """
    mat, classes = confusion_matrix(predictions, truths, labels)
    n = len(classes)
    per_class = {}
    for i, lb in enumerate(classes):
        relevant = int(mat[i, :].sum())
        retrieved = int(mat[:, i].sum())
        hit = int(mat[i, i])
        per_class[lb] = metrics(hit, retrieved, relevant) if relevant else (0.0, 0.0, 0.0, 0.0)
    pooled_hit = int(np.trace(mat[:, :n]))
    pooled_retrieved = int(mat[:, :n].sum())
    pooled_relevant = int(mat.sum())
    aggregate = metrics(pooled_hit, pooled_retrieved, pooled_relevant)
    points = []
    if scores is not None:
        correct = [p == t for p, t in zip(predictions, truths)]
        points = pr_curve(list(zip(scores, correct)), higher_is_relevant)
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


def read_confusion_csv(path) -> Tuple[np.ndarray, List[str]]:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    labels = rows[0][1:-1]
    mat = np.array([[int(v) for v in row[1:]] for row in rows[1:]], dtype=np.int64)
    return mat, labels
