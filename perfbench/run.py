"""Benchmark noisegate's attack -> devastate -> detect loop on one workload.

    python3 perfbench/run.py --workload attack|defend --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/`. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones; with `--trace 1` they are the per-layer ones plus
the tracing overhead. See perfbench/README.md.
"""

import os

# One BLAS thread: on a small shared machine a second OpenBLAS thread that waits
# for a busy core slowed the GA several-fold in probes, and unevenly from run
# to run. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _setup_differences(fixtures):
    """A rerun with the same seed must write the same model and adversarial set."""
    first, errors = fixtures[0], []
    for fx in fixtures[1:]:
        for rel in ("model.txt", "adv/manifest.csv", "adv/records.jsonl"):
            a, b = first.root / rel, fx.root / rel
            if a.exists() != b.exists() or (a.exists() and a.read_bytes() != b.read_bytes()):
                errors.append(f"set-up rerun wrote a different {rel}")
    return errors


class Operations:
    """Operations attempted and failed over a run's rounds."""

    def __init__(self, workload, fx):
        self.operations = workload.operations(fx)
        self.attempted = self.failed = 0
        self.messages = {}

    def add(self, failures):
        self.attempted += len(self.operations)
        self.failed += sum(1 for op in self.operations if op in failures)
        for op, messages in failures.items():
            self.messages.setdefault(op, messages)


def _run_rounds(workload, fx, work, seconds, ops, min_rounds=1, run_round=None):
    """Whole rounds until `seconds` have passed. Returns the Round records and the
    peak RSS in MB after the first round, which does the same work however long
    the run is."""
    run_round = run_round or (lambda k, out: workload.run_round(fx, out))
    rounds, start, first_out = [], time.perf_counter(), work / "round0"
    peak_rss_mb = None
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        out = work / f"round{len(rounds)}"
        rnd = run_round(len(rounds), out)
        print(f"round {len(rounds)}: {rnd.primary} in {rnd.primary_s:.3f} s, "
              f"{rnd.secondary} in {rnd.secondary_s:.3f} s", file=sys.stderr)
        ops.add(workload.check(fx, out, rnd, first_out))
        if out != first_out:
            shutil.rmtree(out)
        rnd.results = None  # later rounds are checked against round0's files
        rounds.append(rnd)
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return rounds, peak_rss_mb


def _end_to_end(workload, work, seed, seconds):
    from workloads import cpu_seconds

    fixtures, setup_times = [], []
    for k in range(SETUP_REPEATS):
        start = cpu_seconds()
        fixtures.append(workload.setup(work / f"setup{k}", seed))
        setup_times.append(cpu_seconds() - start)
    fx = fixtures[-1]
    errors = _setup_differences(fixtures) + workload.verify(fx)
    for old in fixtures[:-1]:
        shutil.rmtree(old.root)
    ops = Operations(workload, fx)
    fx.probe_host = True
    rounds, peak_rss_mb = _run_rounds(workload, fx, work, seconds, ops)
    primary = _per_kprobe(workload.name, workload.primary_name, workload.primary_unit,
                          [(r.primary, r.primary_s, r.primary_probes) for r in rounds])
    secondary = _per_kprobe(workload.name, workload.secondary_name, workload.secondary_unit,
                            [(r.secondary, r.secondary_s, r.secondary_probes) for r in rounds])
    setup_s = statistics.median(setup_times)
    print(f"{workload.name}: setup_s = {setup_s:.4f} s, peak_rss_mb = {peak_rss_mb:.4f} MB")
    print(f"{workload.name}: {len(rounds)} rounds, {ops.attempted} operations attempted, "
          f"{ops.failed} failed")
    metrics = {"setup_s": (setup_s, "s"), "primary_per_kprobe": (primary, "1/kprobe"),
               "secondary_per_kprobe": (secondary, "1/kprobe"),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    return errors, ops, metrics


def _per_kprobe(workload_name, name, unit, stages):
    """Work per 1000 host probes' time, from (work, CPU seconds, probe times) per round.

    The work per CPU second is scaled by the mean time of the host probes taken
    during the same calls, less the slowest and fastest tenth of them: the work
    done in the time the host needs for 1000 reference MFCCs. Probe times
    gather around a fast and a slow mode of the host, so a mean follows the
    share of time in each, where a median jumps from one mode to the other.
    The trimmed tenths drop probes that the hypervisor stretched.
    """
    work = sum(w for w, _, _ in stages)
    cpu = sum(c for _, c, _ in stages)
    probes = sorted(p for _, _, ps in stages for p in ps)
    cut = len(probes) // 10
    probe_s = statistics.fmean(probes[cut:len(probes) - cut])
    print(f"{workload_name}: {name} = {work / cpu:.4f} {unit} per CPU second; "
          f"host probe trimmed mean {probe_s * 1e3:.4f} ms, median "
          f"{statistics.median(probes) * 1e3:.4f} ms, over {len(probes)} probes; "
          f"{work / cpu * probe_s * 1e3:.4f} {unit} per 1000 probes")
    return work / cpu * probe_s * 1e3


def _traced(workload, work, seed, seconds):
    import tracing
    from workloads import cpu_seconds

    tracer = tracing.Tracer()
    tracer.install()
    try:
        fx = workload.setup(work / "setup0", seed)
        setup_tally = tracer.tally()
    finally:
        tracer.uninstall()
    errors = workload.verify(fx)
    ops = Operations(workload, fx)
    traced_tallies, round_times = [], {True: [], False: []}

    # untraced and traced rounds alternate, so the overhead compares like with like
    def run_round(k, out):
        traced = k % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        start = cpu_seconds()
        try:
            rnd = workload.run_round(fx, out)
        finally:
            round_times[traced].append(cpu_seconds() - start)
            if traced:
                tracer.uninstall()
        if traced:
            traced_tallies.append(tracer.tally())
        return rnd

    _run_rounds(workload, fx, work, seconds, ops, min_rounds=2, run_round=run_round)
    if any(t.counts != traced_tallies[0].counts for t in traced_tallies[1:]):
        errors.append("traced rounds of the same inputs counted different work")
    overhead = (statistics.median(round_times[True]) / statistics.median(round_times[False])
                - 1.0) * 100.0
    metrics = tracing.layer_metrics(tracing.combine(setup_tally, traced_tallies))
    metrics["trace.overhead_pct"] = (overhead, "%")
    print(f"{workload.name}: tracing overhead {overhead:.2f}% over "
          f"{len(round_times[False])} untraced and {len(round_times[True])} traced rounds")
    return errors, ops, metrics


def _machine():
    import numpy
    import scipy

    from noisegate import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else "all"
    return (f"machine: {os.cpu_count()} CPUs, {platform.machine()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')} with "
            f"{os.environ['OPENBLAS_NUM_THREADS']} thread, noisegate kernels {_kernels.BACKEND}, "
            f"CPUs in use {cpus}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "noisegate" / "__init__.py").is_file():
        return _fail(f"no noisegate sources under {ROOT / 'src'}; run from a source checkout")
    # One CPU for the run and the processes it starts: the run is single-threaded,
    # and each `od` spawn then waits for no other CPU. On a shared 2-vCPU host,
    # spawns took 1.3-6 ms unpinned, by the minute, and 1.4-1.8 ms pinned.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    print(_machine())
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    # the external recognizer's temp WAVs stay inside the checkout too
    (work / "tmp").mkdir(parents=True)
    tempfile.tempdir = str(work / "tmp")
    try:
        run = _traced if args.trace else _end_to_end
        errors, ops, metrics = run(workload, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    for op, messages in sorted(ops.messages.items()):
        print(f"operation {op} failed: {'; '.join(messages)}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
