"""Evaluation quantities: transcript similarity, attack success rate after a
defense, clean accuracy after a defense, and CSV report emission."""

import csv
from dataclasses import dataclass, field

from noisegate._kernels import levenshtein


def similarity(before: str, after: str) -> float:
    """Matching ratio between two transcripts, as a percentage.

    100 * max(0, 1 - dist / max(len(before), len(after))); symmetric and
    bounded in [0, 100]. The before-text must be non-empty.
    """
    if not before:
        raise ValueError("before-transcript must be non-empty")
    longest = max(len(before), len(after))
    dist = levenshtein(after, before)
    return max(0.0, 1.0 - dist / longest) * 100.0


def distance_ratio(reference: str, before: str, after: str):
    """Diagnostic ratio D(after, reference) / D(before, reference).

    None when the before-transcript already matches the reference exactly
    (zero denominator).
    """
    denom = levenshtein(before, reference)
    if denom == 0:
        return None
    return levenshtein(after, reference) / denom


def _percent_matching(labels, predictions) -> float:
    """Percentage of predictions equal to the label at the same position."""
    labels, preds = list(labels), list(predictions)
    if not labels:
        raise ValueError("no labels")
    if len(labels) != len(preds):
        raise ValueError(f"{len(labels)} labels vs {len(preds)} predictions")
    for i, label in enumerate(labels):
        if not label:
            raise ValueError(f"label {i} is missing or empty")
    return sum(1 for label, pred in zip(labels, preds) if pred == label) / len(labels) * 100.0


def asr_avg(targets, defended_predictions) -> float:
    """Percentage of adversarial examples still predicted as their attack target."""
    return _percent_matching(targets, defended_predictions)


def acc(labels, defended_predictions) -> float:
    """Percentage of clean examples predicted as their true label after a defense."""
    return _percent_matching(labels, defended_predictions)


@dataclass
class MetricsReport:
    columns: list
    rows: list = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def emit_report(report: MetricsReport, path) -> None:
    """Write the report as CSV: stable column order, floats at 2 decimals."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_format_cell(v) for v in row])
