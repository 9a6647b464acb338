"""Record the benchmark and the tier-1 tests of a source tree into BENCH_<label>.json.

    python3 bench/record.py LABEL [--tree DIR] [--seeds 2201 2202 ...]

Runs `perfbench/run.py` in DIR (default: this checkout) as child processes, for
the `run_seconds` of DIR's BENCHMARK.json: every seed once per workload, the
workloads alternating and their order flipping from one seed to the next, then
one `--trace 1` run per workload at the first seed. Pick seeds that no one
tuned the change on. Runs the tier-1 tests once, also as a child, for their wall
time, child CPU time, pass count and slowest ten tests. Writes the file at
the root of this checkout; nothing is written under `perfbench/`.
"""

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (2201, 2202, 2203, 2204, 2205)
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=10", "-p", "no:cacheprovider"]


def _git(tree, *args):
    return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _bench(tree, workload, seed, seconds, trace):
    """(machine line, the last stdout line's JSON) of one benchmark run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print(" ".join(cmd[1:]), file=sys.stderr, flush=True)
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return lines[0], json.loads(lines[-1])


def _summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "quartiles": [q1, q3]}


def _tier1(tree):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(tree) / "src"), os.environ.get("PYTHONPATH")])))
    before, start = resource.getrusage(resource.RUSAGE_CHILDREN), time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.splitlines()
    summary = lines[-1] if lines else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", summary)}
    durations = [line for line in lines if re.match(r"\d+\.\d+s (setup|call|teardown) ", line)]
    return {"command": " ".join(["PYTHONPATH=src", "python", *TIER1[1:]]),
            "exit_code": proc.returncode, "wall_s": round(wall, 2),
            "child_user_s": round(after.ru_utime - before.ru_utime, 2),
            "child_sys_s": round(after.ru_stime - before.ru_stime, 2),
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0),
            "summary": summary, "durations": durations}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label")
    parser.add_argument("--tree", default=str(HERE))
    parser.add_argument("--seeds", type=int, nargs="+", default=list(DEFAULT_SEEDS))
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    tree = Path(args.tree).resolve()
    benchmark = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads, seconds = [w["name"] for w in benchmark["workloads"]], benchmark["run_seconds"]

    runs, machine = [], None
    for k, seed in enumerate(args.seeds):
        for workload in (workloads if k % 2 == 0 else workloads[::-1]):
            machine, result = _bench(tree, workload, seed, seconds, 0)
            runs.append({"workload": workload, "seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {name: m["value"] for name, m in result["metrics"].items()}})
    end_to_end = {w: {name: _summary([r["metrics"][name] for r in runs if r["workload"] == w])
                      for name in runs[0]["metrics"]} for w in workloads}
    traced = {}
    for workload in workloads:
        _, result = _bench(tree, workload, args.seeds[0], seconds, 1)
        traced[workload] = {"seed": args.seeds[0], "correct": result["correct"],
                            "attempted": result["attempted"], "failed": result["failed"],
                            "metrics": result["metrics"]}

    record = {
        "label": args.label,
        "revision": _git(tree, "rev-parse", "HEAD"),
        "dirty": bool(_git(tree, "status", "--porcelain", "--untracked-files=no")),
        "machine": machine,
        "workloads": workloads,
        "seeds": args.seeds,
        "run_seconds": seconds,
        "runs": runs,
        "end_to_end": end_to_end,
        # span times as the traced mode reports them: raw milliseconds of one set-up plus
        # one round, not scaled by the host probe, so they compare only within one file
        "per_layer_raw_ms": traced,
        "tier1": _tier1(tree),
    }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
