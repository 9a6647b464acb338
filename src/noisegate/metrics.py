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


def percent_matching(expected, heard) -> float:
    """Percentage of heard labels equal to the expected label at the same position:
    ASR_avg is measured against the attack targets of the adversarial clips, ACC
    against the true labels of the clean ones, each heard after a defense."""
    expected, heard = list(expected), list(heard)
    if not expected:
        raise ValueError("no labels")
    if len(expected) != len(heard):
        raise ValueError(f"{len(expected)} labels vs {len(heard)} predictions")
    for i, label in enumerate(expected):
        if not label:
            raise ValueError(f"label {i} is missing or empty")
    return sum(1 for label, got in zip(expected, heard) if got == label) / len(expected) * 100.0


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
