"""Run the benchmark in pairs, parent tree against change tree, and judge a claimed gain.

    python3 bench/pairs.py PARENT [--change DIR] --workload W --seeds 2601 2602 ... [--out FILE]

Each seed is one pair: `perfbench/run.py` once in PARENT and once in the change
tree (default: this checkout), for the `run_seconds` of the change tree's
BENCHMARK.json, the parent going first in even pairs and second in odd ones.
Prints every pair's metrics, each side's median and quartiles, and per metric:
the pairs the change wins (ties count for neither), whether a gain may be
claimed (at least 9/10 of the pairs won, and the medians apart, in the change's
favour, by more than the parent's quartile distance), and how the change's
median stands against the metric's bound. The last line is all of it as JSON, with
each tree's git revision; `--out FILE` writes that line to FILE as well.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record import HERE, _git, bench, summary


def verdict(parent, change, better):
    """(pairs won by the change, pairs, whether a gain may be claimed) for one metric."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change, strict=True))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = sign * (statistics.median(change) - statistics.median(parent))
    return wins, len(parent), 10 * wins >= 9 * len(parent) and gap > q3 - q1


def against_bound(parent, change, better, bound):
    """'worse' when the change's median loses more than `bound` (a fraction of the parent's
    median), else 'unresolved' when the parent's quartile distance is wider than that
    and not every change run beats every parent run, else 'within'."""
    sign = 1 if better == "higher" else -1
    base = statistics.median(parent)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if sign * (base - statistics.median(change)) > bound * abs(base):
        return "worse"
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    return "unresolved" if q3 - q1 > bound * abs(base) and not beats_all else "within"


def revision(tree):
    """{"revision", "dirty"} of a git checkout (whether tracked files differ from the
    commit), each None when the tree is no checkout."""
    try:
        return {"revision": _git(tree, "rev-parse", "HEAD"),
                "dirty": bool(_git(tree, "status", "--porcelain", "--untracked-files=no"))}
    except subprocess.CalledProcessError:
        return {"revision": None, "dirty": None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("--change", default=str(HERE))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out", help="write the final JSON line to this file as well")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    trees = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}

    runs = {"parent": [], "change": []}
    for k, seed in enumerate(args.seeds):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            _, result = bench(trees[side], args.workload, seed, benchmark["run_seconds"], 0)
            runs[side].append(result)
        print(f"pair {k} (seed {seed}, {'parent' if k % 2 == 0 else 'change'} first): " + ", ".join(
            f"{name} {runs['parent'][-1]['metrics'][name]['value']:g} -> "
            f"{runs['change'][-1]['metrics'][name]['value']:g}" for name in metrics), flush=True)
    bad = [(side, seed) for side in runs for seed, r in zip(args.seeds, runs[side])
           if not r["correct"] or r["failed"]]
    print(f"runs not correct or with failed operations: {bad or 'none'}")

    report = {"workload": args.workload, "seeds": args.seeds, "bad_runs": bad, "metrics": {},
              "trees": {side: revision(tree) for side, tree in trees.items()}}
    for name, m in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        wins, pairs, claim = verdict(values["parent"], values["change"], m["better"])
        bound = against_bound(values["parent"], values["change"], m["better"], m["bound"])
        sides = {side: summary(v) for side, v in values.items()}
        report["metrics"][name] = {**sides, "wins": wins, "pairs": pairs, "claim": claim,
                                   "bound": bound}
        print(f"{name} ({m['better']} is better): " + "; ".join(
            f"{side} {s['median']:g} [{s['quartiles'][0]:g}-{s['quartiles'][1]:g}]"
            for side, s in sides.items())
            + f"; change wins {wins}/{pairs}; gain {'claimed' if claim else 'not shown'};"
            f" bound {m['bound']:g}: {bound}")
    line = json.dumps(report)
    print(line)
    if args.out:
        Path(args.out).write_text(line + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
