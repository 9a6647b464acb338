"""Run one fixed CLI pipeline in two source trees and compare every output byte.

    python3 bench/bytes.py PARENT [--change DIR]

Each tree (the change tree defaults to this checkout) runs PIPELINE below as
`python -m noisegate.cli` children, with the tree's `src` as PYTHONPATH, in a
fresh working directory of its own, at OPENBLAS_NUM_THREADS=1 and with
NOISEGATE_SEED unset. The sha256 of every file a pipeline leaves and of each
step's stdout is compared between the trees. Prints "identical", or each output
that differs or exists in one tree only, and exits 1 on any difference or on a
step that fails in either tree. No digest is stored: OpenBLAS picks its kernels
per CPU, so a digest means something only next to one taken on the same machine.

The corpus holds 72 clips, so `detect` and a report's clean group are heard as
a block of 64 (`HEAR_BLOCK`) and one of 8. The GA on it stops at `--k-max 8`,
where every attack that lands does so at generation 0. So a second, stock-scale
GA (population 50, `--k-max 150`) attacks a 2x3 corpus: on that model and seed
one attack lands by search, at generation 114, and the step takes about 5 s a tree.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from record import HERE

# 16 sample bytes of each heard WAV: the transcript shows every noise draw
OD = "external:od -An -tx1 -j 12044 -N 16 {}"
CORPUS = ["--manifest", "corpus/manifest.csv"]
REPORT = ["--clean-manifest", "corpus/manifest.csv", "--adv-manifest", "pgd/manifest.csv"]
GRID = ["--grid", "10,50,200"]
PIPELINE = [
    ["synth", "--classes", "3", "--per-class", "24", "--out-dir", "corpus", "--seed", "11"],
    ["train", *CORPUS, "--out", "model.txt", "--epochs", "40", "--learning-rate", "5e-5",
     "--seed", "1"],
    ["attack", "ga", "--model", "model.txt", *CORPUS, "--out-dir", "ga", "--k-max", "8",
     "--seed", "2"],
    ["synth", "--classes", "2", "--per-class", "3", "--out-dir", "small", "--seed", "12"],
    ["attack", "ga", "--model", "model.txt", "--manifest", "small/manifest.csv",
     "--out-dir", "ga_search", "--k-max", "150", "--seed", "2"],
    ["attack", "pgd", "--model", "model.txt", *CORPUS, "--out-dir", "pgd", "--tau", "0",
     "--steps", "40", "--step-size", "16", "--seed", "8"],
    ["attack", "pgd", "--model", "model.txt", *CORPUS, "--out-dir", "pgd_tight",
     "--tau", "-60", "--steps", "100", "--step-size", "1", "--seed", "8"],
    ["defend", "--transform", "gaussian:100", "--in", "corpus/wavs/yes_0000.wav",
     "--out", "defend_gaussian.wav", "--seed", "3"],
    ["defend", "--transform", "uniform:100", "--in", "corpus/wavs/yes_0000.wav",
     "--out", "defend_uniform.wav", "--seed", "3"],
    ["detect", *CORPUS, "--recognizer", "builtin:model.txt", "--noise", "gaussian:100",
     "--out", "detect_builtin_1.csv", "--seed", "4"],
    ["detect", *CORPUS, "--recognizer", "builtin:model.txt", "--noise", "gaussian:2000",
     "--votes", "3", "--cr-mode", "flip", "--out", "detect_builtin_3.csv", "--seed", "4"],
    ["detect", *CORPUS, "--recognizer", OD, "--noise", "uniform:50",
     "--out", "detect_od_1.csv", "--seed", "4"],
    ["detect", *CORPUS, "--recognizer", OD, "--noise", "gaussian:50", "--votes", "3",
     "--out", "detect_od_3.csv", "--seed", "4"],
    ["sweep", "--model", "model.txt", *REPORT, *GRID, "--out-dir", "command", "--seed", "5"],
    ["compare", "--model", "model.txt", *REPORT, "--out-dir", "command", "--seed", "6"],
    ["sweep", "--recognizer", "builtin:model.txt", *REPORT, *GRID, "--out-dir", "text",
     "--seed", "5"],
    ["compare", "--recognizer", "builtin:model.txt", *REPORT, "--out-dir", "text",
     "--seed", "6"],
    ["roc", "--recognizer", "builtin:model.txt", *REPORT, *GRID, "--out-dir", "roc_edit",
     "--seed", "7"],
    ["roc", "--recognizer", "builtin:model.txt", *REPORT, *GRID, "--cr-mode", "flip",
     "--out-dir", "roc_flip", "--seed", "7"],
    # a label hides most of a wrong draw; the od transcripts show the grid's draws
    ["sweep", "--recognizer", OD, *REPORT, *GRID, "--out-dir", "text_od", "--seed", "5"],
    ["roc", "--recognizer", OD, *REPORT, *GRID, "--out-dir", "roc_od", "--seed", "7"],
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_pipeline(tree, work, pipeline=PIPELINE):
    """({output: sha256} of one run of `pipeline` from `tree`'s source in `work`, a line
    per step that failed)."""
    env = {key: value for key, value in os.environ.items() if key != "NOISEGATE_SEED"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(tree).resolve() / "src"))
    digests, failed = {}, []
    for i, argv in enumerate(pipeline):
        step = f"step {i:02d} ({' '.join(argv[:2])})"
        proc = subprocess.run([sys.executable, "-m", "noisegate.cli", *argv], cwd=work,
                              env=env, capture_output=True)
        digests[f"stdout of {step}"] = _sha256(proc.stdout)
        if proc.returncode:
            last = (proc.stderr.decode(errors="replace").strip().splitlines() or [""])[-1]
            failed.append(f"{step} exited {proc.returncode}: {last}")
    for path in sorted(Path(work).rglob("*")):
        if path.is_file():
            digests[path.relative_to(work).as_posix()] = _sha256(path.read_bytes())
    return digests, failed


def differences(parent, change):
    """A line per output whose digest differs or that one side lacks, in name order."""
    lines = []
    for name in sorted(parent.keys() | change.keys()):
        if name not in change or name not in parent:
            lines.append(f"only in {'parent' if name in parent else 'change'}: {name}")
        elif parent[name] != change[name]:
            lines.append(f"differs: {name}")
    return lines


def main(argv=None, pipeline=PIPELINE):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("--change", default=str(HERE))
    args = parser.parse_args(argv)
    digests, failed = {}, []
    for side, tree in (("parent", args.parent), ("change", args.change)):
        print(f"running the pipeline in {side} tree {tree}", file=sys.stderr, flush=True)
        with tempfile.TemporaryDirectory(prefix=f"bytes-{side}-") as work:
            digests[side], failures = run_pipeline(tree, work, pipeline)
        failed += [f"{side}: {line}" for line in failures]
    lines = failed + differences(digests["parent"], digests["change"])
    print("\n".join(lines) if lines else
          f"identical ({len(digests['change'])} outputs, every file and stdout)")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
