import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.metrics import (
    MetricsReport,
    distance_ratio,
    emit_report,
    percent_matching,
    similarity,
)


class TestSimilarity:
    def test_identical_is_100(self):
        assert similarity("hello", "hello") == 100.0

    def test_disjoint_equal_length_is_0(self):
        assert similarity("abc", "xyz") == 0.0

    def test_hand_computed_example(self):
        before = "she had her dark suit"
        after = "she had er dark suit"
        assert similarity(before, after) == pytest.approx(100 * (1 - 1 / 21))

    def test_empty_before_rejected(self):
        with pytest.raises(ValueError):
            similarity("", "abc")

    def test_empty_after_scores_zero(self):
        assert similarity("abc", "") == 0.0

    def test_counts_characters_not_bytes(self):
        # one substitution in five characters; in UTF-8 bytes it would be 2 edits in 6
        assert similarity("naïve", "naive") == 80.0

    @given(st.text(min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_self_similarity(self, s):
        assert similarity(s, s) == 100.0

    @given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        ab = similarity(a, b)
        ba = similarity(b, a)
        assert ab == pytest.approx(ba)
        assert 0.0 <= ab <= 100.0


class TestDistanceRatio:
    def test_none_when_before_matches_reference(self):
        assert distance_ratio("go", "go", "stop") is None

    def test_ratio_value(self):
        assert distance_ratio("abcd", "abcx", "abxx") == pytest.approx(2.0)


class TestAsrAvg:
    # ASR_avg: adversarial clips heard against their attack targets
    def test_all_hit(self):
        assert percent_matching(["go"] * 4, ["go"] * 4) == 100.0

    def test_one_of_four(self):
        assert percent_matching(["go"] * 4, ["go", "no", "up", "off"]) == 25.0

    def test_requires_targets(self):
        with pytest.raises(ValueError, match="label 1 is missing"):
            percent_matching(["go", None], ["go", "yes"])

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            percent_matching([], [])
        with pytest.raises(ValueError):
            percent_matching(["go"], [])

    @given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40),
           st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_count(self, targets, preds):
        n = min(len(targets), len(preds))
        targets, preds = targets[:n], preds[:n]
        expected = sum(1 for x, y in zip(targets, preds) if x == y) / n * 100
        assert percent_matching(targets, preds) == pytest.approx(expected)


class TestAcc:
    # ACC: clean clips heard against their true labels
    def test_perfect_and_zero(self):
        assert percent_matching(["yes"] * 3, ["yes"] * 3) == 100.0
        assert percent_matching(["yes"] * 3, ["no"] * 3) == 0.0

    @given(st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=30),
           st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_count(self, labels, preds):
        n = min(len(labels), len(preds))
        labels, preds = labels[:n], preds[:n]
        expected = sum(1 for x, y in zip(labels, preds) if x == y) / n * 100
        assert percent_matching(labels, preds) == pytest.approx(expected)

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError, match="label 0 is missing or empty"):
            percent_matching([""], ["yes"])


class TestEmitReport:
    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_report(MetricsReport(columns=["a", "b"]), path)
        assert path.read_text() == "a,b\n"

    def test_rows_in_insertion_order_two_decimals(self, tmp_path):
        report = MetricsReport(columns=["transform", "asr_avg", "acc"])
        report.add_row("gaussian:200", 3.98123, 92.0)
        report.add_row("none", 83.814159, 95.0)
        path = tmp_path / "r.csv"
        emit_report(report, path)
        assert path.read_text() == (
            "transform,asr_avg,acc\ngaussian:200,3.98,92.00\nnone,83.81,95.00\n"
        )

    def test_reemission_is_byte_identical(self, tmp_path):
        report = MetricsReport(columns=["k", "v"])
        report.add_row("x", 1.23456)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_report(report, a)
        emit_report(report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_none_renders_blank(self, tmp_path):
        report = MetricsReport(columns=["k", "v"])
        report.add_row("cell", None)
        path = tmp_path / "r.csv"
        emit_report(report, path)
        assert path.read_text() == "k,v\ncell,\n"

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            MetricsReport(columns=["a", "b"]).add_row("only-one")
