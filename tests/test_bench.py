"""The committed BENCH_*.json files, written by bench/record.py, keep their shape;
bench/pairs.py judges a claimed gain by the pair rule; and bench/bytes.py tells two
trees' output bytes apart."""

import importlib
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


PARENT = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]  # median 100, quartiles 98.75-101.25


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("pairs")


@pytest.mark.parametrize("change, wins, claim", [
    ([p + 5 for p in PARENT], 10, True),
    ([99] + [p + 5 for p in PARENT[1:]], 9, True),  # one pair lost: 9/10 still claims
    ([99, 101] + [p + 5 for p in PARENT[2:]], 8, False),
    ([100] + [p + 5 for p in PARENT[1:]], 9, True),  # a tie counts for neither side
    ([100, 102] + [p + 5 for p in PARENT[2:]], 8, False),
    ([p + 1 for p in PARENT], 10, False),  # every pair won, medians 1 apart < 2.5
])
def test_pairs_verdict(pairs, change, wins, claim):
    assert pairs.verdict(PARENT, change, "higher") == (wins, 10, claim)


def test_pairs_verdict_when_lower_is_better(pairs):
    assert pairs.verdict(PARENT, [p - 5 for p in PARENT], "lower") == (10, 10, True)
    assert pairs.verdict(PARENT, [p + 5 for p in PARENT], "lower") == (0, 10, False)


def test_pairs_against_bound(pairs):
    assert pairs.against_bound(PARENT, [p - 5 for p in PARENT], "higher", 0.1) == "within"
    assert pairs.against_bound(PARENT, [p - 15 for p in PARENT], "higher", 0.1) == "worse"
    assert pairs.against_bound(PARENT, [p + 15 for p in PARENT], "lower", 0.1) == "worse"
    wide = [60, 140, 80, 120, 100, 90, 110, 70, 130, 100]  # quartile distance 45 > 10
    assert pairs.against_bound(wide, wide, "higher", 0.1) == "unresolved"
    assert pairs.against_bound(wide, [p - 20 for p in wide], "higher", 0.1) == "worse"
    assert pairs.against_bound(wide, [141 + p for p in range(10)], "higher", 0.1) == "within"


def test_pairs_out_writes_the_report_line(pairs, monkeypatch, tmp_path, capsys):
    # fake runs: the change's metric is 1 above the parent's in every pair
    for tree in ("parent", "change"):
        (tmp_path / tree).mkdir()
        (tmp_path / tree / "BENCHMARK.json").write_text(json.dumps(BENCHMARK), encoding="utf-8")

    def fake_bench(tree, workload, seed, seconds, trace):
        value = seed + (Path(tree).name == "change")
        return "machine", {"correct": True, "failed": 0, "metrics": {
            m["name"]: {"value": value} for m in BENCHMARK["end_to_end"]}}

    monkeypatch.setattr(pairs, "bench", fake_bench)
    out = tmp_path / "PAIRS_test_defend.json"
    assert pairs.main([str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                       "--workload", "defend", "--seeds", "1", "2", "3", "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert out.read_text(encoding="utf-8") == line + "\n"
    report = json.loads(line)
    assert set(report) == PAIRS_KEYS
    assert report["trees"] == {side: {"revision": None, "dirty": None}
                               for side in ("parent", "change")}
    assert report["metrics"]["setup_s"]["wins"] == 0  # lower is better
    assert report["metrics"]["primary_per_kprobe"]["wins"] == 3


PAIRS_KEYS = {"workload", "seeds", "bad_runs", "metrics", "trees"}
PAIRS_FILES = sorted(ROOT.glob("PAIRS_*.json"))


def test_a_pairs_report_is_committed():
    assert PAIRS_FILES


@pytest.mark.parametrize("path", PAIRS_FILES, ids=[p.name for p in PAIRS_FILES])
def test_pairs_file_keys_and_metrics(path):
    report = json.loads(path.read_text(encoding="utf-8"))
    assert set(report) == PAIRS_KEYS
    assert path.name.startswith("PAIRS_") and path.name.endswith(f"_{report['workload']}.json")
    assert report["workload"] in {w["name"] for w in BENCHMARK["workloads"]}
    assert report["bad_runs"] == []
    assert set(report["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in report["metrics"].values():
        assert set(metric) == {"parent", "change", "wins", "pairs", "claim", "bound"}
        assert metric["pairs"] == len(report["seeds"]) >= 10
        for side in ("parent", "change"):
            assert len(metric[side]["values"]) == len(report["seeds"])
    assert all(set(tree) == {"revision", "dirty"} for tree in report["trees"].values())


# a stand-in for noisegate's command line: each step writes <step>.txt and prints a line
FAKE_CLI = """import sys
from pathlib import Path
step = sys.argv[1]
if step == "fail":
    sys.exit("noisegate fail: broken")
Path(step + ".txt").write_text(step + {written!r})
if step == "two" and {extra!r}:
    Path("extra.txt").write_text("")
print("wrote " + step + {printed!r})
"""


def fake_tree(root, name, written="", printed="", extra=False):
    package = root / name / "src" / "noisegate"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(FAKE_CLI.format(written=written, printed=printed,
                                                    extra=extra))
    return str(root / name)


@pytest.fixture
def bytes_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("bytes")


@pytest.mark.parametrize("change, pipeline, lines", [
    ({}, [["one"], ["two"]], ["identical (4 outputs, every file and stdout)"]),
    ({"written": "!"}, [["one"], ["two"]], ["differs: one.txt", "differs: two.txt"]),
    ({"printed": "!"}, [["one"], ["two"]],
     ["differs: stdout of step 00 (one)", "differs: stdout of step 01 (two)"]),
    ({"extra": True}, [["one"], ["two"]], ["only in change: extra.txt"]),
    ({}, [["one"], ["fail"]], ["parent: step 01 (fail) exited 1: noisegate fail: broken",
                               "change: step 01 (fail) exited 1: noisegate fail: broken"]),
], ids=["identical", "file-bytes", "stdout", "one-side-only", "failed-step"])
def test_bytes_diffs_two_trees(bytes_tool, tmp_path, capsys, change, pipeline, lines):
    parent, changed = fake_tree(tmp_path, "parent"), fake_tree(tmp_path, "change", **change)
    code = bytes_tool.main([parent, "--change", changed], pipeline=pipeline)
    assert capsys.readouterr().out.splitlines() == lines
    assert code == (0 if lines[0].startswith("identical") else 1)


def test_bytes_pipeline_covers_every_subcommand(bytes_tool):
    steps = {" ".join(argv[:2]) if argv[0] == "attack" else argv[0]
             for argv in bytes_tool.PIPELINE}
    assert steps == {"synth", "train", "attack ga", "attack pgd", "defend", "detect", "sweep",
                     "compare", "roc"}
