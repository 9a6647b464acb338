"""The committed BENCH_*.json files, written by bench/record.py, keep their shape."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"label", "revision", "dirty", "machine", "workloads", "seeds", "run_seconds", "runs",
        "end_to_end", "per_layer_raw_ms", "tier1"}
TIER1_KEYS = {"command", "exit_code", "wall_s", "child_user_s", "child_sys_s", "passed",
              "failed", "summary", "durations"}


def test_a_baseline_is_committed():
    assert ROOT / "BENCH_baseline.json" in BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_keys_and_metrics(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == KEYS
    assert path.name == f"BENCH_{record['label']}.json"
    assert set(record["tier1"]) == TIER1_KEYS
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    metrics = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(record["workloads"]) <= workloads
    assert set(record["end_to_end"]) == set(record["workloads"])
    for workload, summaries in record["end_to_end"].items():
        assert set(summaries) <= metrics, workload
        for summary in summaries.values():
            assert set(summary) == {"values", "median", "quartiles"}
            assert len(summary["values"]) == len(record["seeds"]) >= 5
    # every run, untraced and traced, checked its outputs and failed no operation
    runs = record["runs"] + list(record["per_layer_raw_ms"].values())
    assert len(record["runs"]) == len(record["seeds"]) * len(record["workloads"])
    assert all(run["correct"] and run["failed"] == 0 for run in runs)
    assert set(record["per_layer_raw_ms"]) == set(record["workloads"])
