"""Evaluation quantities: transcript similarity, attack success rate after a
defense, clean accuracy after a defense, and CSV report emission."""

import csv
from dataclasses import dataclass, field

from noisegate.recognition import Transcript, levenshtein


@dataclass(frozen=True)
class EvalRecord:
    path: str
    true_label: str
    target_label: str | None = None  # set only for adversarial records

    def __post_init__(self):
        if not self.true_label:
            raise ValueError(f"{self.path}: true label/text must be non-empty")


def _text_of(t) -> str:
    return t.text if isinstance(t, Transcript) else t


def similarity(before, after) -> float:
    """Matching ratio between two transcripts, as a percentage.

    100 * max(0, 1 - dist / max(len(before), len(after))); symmetric and
    bounded in [0, 100]. The before-text must be non-empty.
    """
    before_text, after_text = _text_of(before), _text_of(after)
    if not before_text:
        raise ValueError("before-transcript must be non-empty")
    longest = max(len(before_text), len(after_text))
    dist = levenshtein(after_text, before_text)
    return max(0.0, 1.0 - dist / longest) * 100.0


def distance_ratio(reference: str, before, after):
    """Diagnostic ratio D(after, reference) / D(before, reference).

    None when the before-transcript already matches the reference exactly
    (zero denominator).
    """
    before_text, after_text = _text_of(before), _text_of(after)
    denom = levenshtein(before_text, reference)
    if denom == 0:
        return None
    return levenshtein(after_text, reference) / denom


def _percent_matching(records, predictions, label: str) -> float:
    """Percentage of predictions equal to their record's `label` field."""
    records = list(records)
    preds = list(predictions)
    if not records:
        raise ValueError("no records")
    if len(records) != len(preds):
        raise ValueError(f"{len(records)} records vs {len(preds)} predictions")
    for rec in records:
        if getattr(rec, label) is None:
            raise ValueError(f"{rec.path}: record has no {label}")
    hits = sum(1 for rec, pred in zip(records, preds) if pred == getattr(rec, label))
    return hits / len(records) * 100.0


def asr_avg(records, defended_predictions) -> float:
    """Percentage of adversarial examples still predicted as their attack target."""
    return _percent_matching(records, defended_predictions, "target_label")


def acc(records, defended_predictions) -> float:
    """Percentage of clean examples predicted as their true label after a defense."""
    return _percent_matching(records, defended_predictions, "true_label")


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
