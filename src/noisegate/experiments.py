"""Experiment drivers: intensity sweeps, transform comparison, detection ROC,
and batch attack generation. Every stochastic step derives its seed from the
master seed, so reruns are byte-identical.
"""

import json
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from noisegate.attacks import GaConfig, PgdConfig, ga_attack, pgd_attack
from noisegate.audio import read_wav, write_wav
from noisegate.classifier import Model, predict_clips
from noisegate.detection import CR_MODES, RocResult, hear_rows, roc
from noisegate.detection import transcript_change
from noisegate.manifests import Manifest, ManifestRow, write_manifest
from noisegate.metrics import (
    MetricsReport,
    distance_ratio,
    emit_report,
    percent_matching,
    similarity,
)
from noisegate.recognition import RecognizerSpec, transcribe_clips
from noisegate.seeds import derive_seed
from noisegate.transforms import NOISE_KINDS, TransformSpec, parse_transform

DEFAULT_GRID = (10, 30, 50, 70, 100, 200, 500)
DEFAULT_COMPARISON_TRANSFORMS = (
    "uniform:200",
    "gaussian:200",
    "requant8",
    "lowpass:4000:101",
    "silence:328",
    "downup:2",
    "median:3",
    "quant:256",
    "quant:512",
)
NO_DEFENSE_LABEL = "none"
GROUPS = ("clean", "adv")
SWEEP_FILES = ("sweep_command.csv", "sweep_similarity.csv")  # (command mode, text mode)
COMPARE_FILES = ("compare_command.csv", "compare_transforms.csv")
COMMAND_COLUMNS = ["asr_avg", "acc"]
TEXT_COLUMNS = ["sr_benign", "sr_adv", "distance_ratio_benign", "distance_ratio_adv"]


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int = 0
    grid: tuple = DEFAULT_GRID
    transforms: tuple = DEFAULT_COMPARISON_TRANSFORMS
    recognizer: RecognizerSpec | None = None
    out_dir: str = "."
    cr_mode: str = "edit"

    def __post_init__(self):
        if not self.grid:
            raise ValueError("intensity grid must be non-empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError(f"grid must be strictly increasing, got {self.grid}")
        _noise_rows(self.grid)  # each intensity passes the noise spec's own check
        if self.cr_mode not in CR_MODES:
            raise ValueError(f"cr_mode must be one of {CR_MODES}, got {self.cr_mode!r}")


def _prepare(cfg: ExperimentConfig, clean_manifest: Manifest, adv_manifest: Manifest):
    """(clean clips, adversarial clips, output directory), each clip paired with its row."""
    if not clean_manifest.rows or not adv_manifest.rows:
        raise ValueError("both manifests must be non-empty")
    groups = tuple([(row, read_wav(manifest.resolve(row))) for row in manifest.rows]
                   for manifest in (clean_manifest, adv_manifest))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return groups, out_dir


def _hear(hear, groups, specs, seed):
    """{spec: (clean, adversarial) lists of labels or transcripts} of the clips heard
    after each of `specs` (None: plain), one `hear_rows` call per group. Clip i of group
    g gets the seed `seed(g, spec, i)`, so a noise draw never depends on which other
    clips are heard in its list.
    """
    specs = list(dict.fromkeys(specs))
    heard = [hear_rows(hear, [clip for _, clip in loaded],
                       [[None if spec is None else replace(spec, seed=seed(group, spec, i))
                         for i in range(len(loaded))] for spec in specs])
             for group, loaded in zip(GROUPS, groups)]
    return dict(zip(specs, zip(*heard)))


def _text_scores(loaded, plain, heard):
    """(mean similarity, mean distance ratio or None) of each clip's transcript
    after a transform against its plain transcript."""
    sims = [similarity(before, after) for before, after in zip(plain, heard)]
    ratios = [ratio for (row, _), before, after in zip(loaded, plain, heard)
              if (ratio := distance_ratio(row.label, before, after)) is not None]
    return sum(sims) / len(sims), sum(ratios) / len(ratios) if ratios else None


def _report(cfg: ExperimentConfig, clean_manifest: Manifest, adv_manifest: Manifest,
            model: Model | None, recognizer: RecognizerSpec | None, stage: str,
            key_columns: list, rows, files) -> MetricsReport:
    """One report row per (key, spec) in `rows`; spec None is the no-defense row.

    Command mode hears a clip as the model's label and scores attack success
    on the adversarial clips and accuracy on the clean ones. Text mode hears
    it as the recognizer's transcript and scores each transform against the
    plain transcripts, which it takes once per call.
    """
    if (model is None) == (recognizer is None):
        raise ValueError("pass exactly one of model (command mode) or recognizer (text mode)")
    if model is not None and (bare := [row for row in adv_manifest.rows if row.target is None]):
        raise ValueError(f"adversarial manifest row {bare[0].path} has no target label")
    groups, out_dir = _prepare(cfg, clean_manifest, adv_manifest)
    if model is not None:
        labels = [row.label for row, _ in groups[0]]
        targets = [row.target for row, _ in groups[1]]
        hear, columns, name = partial(predict_clips, model), COMMAND_COLUMNS, files[0]
    else:
        hear, columns, name = partial(transcribe_clips, recognizer), TEXT_COLUMNS, files[1]

    # text mode scores each transform against the plain transcripts, heard first
    heard = _hear(hear, groups, [None] * (model is None) + [spec for _, spec in rows],
                  lambda group, spec, idx: derive_seed(cfg.master_seed, f"{stage}-{group}",
                                                       spec.kind, idx))
    report = MetricsReport(columns=[*key_columns, *columns])
    for key, spec in rows:
        clean, adv = heard[spec]
        if model is not None:
            report.add_row(*key, percent_matching(targets, adv), percent_matching(labels, clean))
        elif spec is None:  # the plain clips: 100% similar, no ratio
            report.add_row(*key, 100.0, 100.0, None, None)
        else:
            sb, rb = _text_scores(groups[0], heard[None][0], clean)
            sa, ra = _text_scores(groups[1], heard[None][1], adv)
            report.add_row(*key, sb, sa, rb, ra)
    emit_report(report, out_dir / name)
    return report


def _noise_rows(grid):
    return [((kind, intensity), TransformSpec(kind=kind, params=(intensity,)))
            for kind in NOISE_KINDS for intensity in grid]


def run_intensity_sweep(cfg: ExperimentConfig, clean_manifest: Manifest,
                        adv_manifest: Manifest, model: Model | None = None,
                        recognizer: RecognizerSpec | None = None) -> MetricsReport:
    """Attack success / accuracy (command mode) or transcript similarity
    (text mode) for both noise kinds over the intensity grid. A clip's noise has
    one seed per kind at every intensity: the cells are paired draws, of one draw per
    kind per block of clips (`detection.hear_rows`)."""
    return _report(cfg, clean_manifest, adv_manifest, model, recognizer, "sweep",
                   ["noise_kind", "intensity"], _noise_rows(cfg.grid), SWEEP_FILES)


def run_transform_comparison(cfg: ExperimentConfig, clean_manifest: Manifest,
                             adv_manifest: Manifest, model: Model | None = None,
                             recognizer: RecognizerSpec | None = None) -> MetricsReport:
    """Every configured defense plus a no-defense row."""
    specs = [parse_transform(text) for text in cfg.transforms]
    rows = [((NO_DEFENSE_LABEL,), None)] + [((spec.label,), spec) for spec in specs]
    return _report(cfg, clean_manifest, adv_manifest, model, recognizer, "compare",
                   ["transform"], rows, COMPARE_FILES)


def run_detection_eval(cfg: ExperimentConfig, clean_manifest: Manifest,
                       adv_manifest: Manifest) -> dict:
    """Change-rate ROC per (noise kind, intensity) cell.

    Each block of a group is heard plain once, then as one noisy list per cell. A clip's
    noise has one seed per kind at every intensity, as in the sweep, and one draw per kind
    that the cells share. Writes detection_auc.csv (one row per cell; blank AUC marks a
    degenerate cell where every score is identical) and a per-cell curve CSV of
    (threshold, fpr, tpr) rows with a trailing auc summary line. Returns
    {(kind, intensity): RocResult | None}.
    """
    if cfg.recognizer is None:
        raise ValueError("detection eval needs a recognizer (builtin:, external: or cache:)")
    groups, out_dir = _prepare(cfg, clean_manifest, adv_manifest)
    roc_dir = out_dir / "roc"
    roc_dir.mkdir(exist_ok=True)
    cells = _noise_rows(cfg.grid)
    heard = _hear(partial(transcribe_clips, cfg.recognizer), groups,
                  [None] + [spec for _, spec in cells], lambda group, spec, idx: derive_seed(
                      cfg.master_seed, "detect", spec.kind, group, idx))
    summary = MetricsReport(columns=["noise_kind", "intensity", "auc", "youden_threshold"])
    results = {}
    for (kind, intensity), spec in cells:
        scored = [(transcript_change(*pair, cfg.cr_mode), GROUPS[g] == "adv") for g in (0, 1)
                  for pair in zip(heard[None][g], heard[spec][g])]
        curve = roc_dir / f"roc_{kind}_{intensity}.csv"
        if len({s for s, _ in scored}) == 1:
            results[(kind, intensity)] = None  # noise moved nothing; no curve
            summary.add_row(kind, intensity, None, None)
            curve.unlink(missing_ok=True)  # nor one left by an earlier run
            continue
        cell = roc(scored)
        results[(kind, intensity)] = cell
        summary.add_row(kind, intensity, cell.auc, cell.youden_threshold)
        _write_roc_curve(cell, curve)
    emit_report(summary, out_dir / "detection_auc.csv")
    return results


def _write_roc_curve(cell: RocResult, path) -> None:
    lines = ["threshold,fpr,tpr", *(f"{threshold:.6f},{fpr:.6f},{tpr:.6f}"
                                    for threshold, fpr, tpr in cell.points), f"auc,{cell.auc:.6f}"]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def pick_targets(model: Model, manifest: Manifest, master_seed: int):
    """A deterministic wrong-label target for every manifest row."""
    targets = []
    for idx, row in enumerate(manifest.rows):
        pool = [lbl for lbl in model.class_labels if lbl != row.label]
        if not pool:
            raise ValueError("model has no alternative label to target")
        rng = np.random.default_rng(derive_seed(master_seed, "target", idx))
        targets.append(pool[int(rng.integers(0, len(pool)))])
    return targets


def attack_manifest(model: Model, manifest: Manifest, kind: str, out_dir,
                    master_seed: int = 0, ga_cfg: GaConfig = GaConfig(),
                    pgd_cfg: PgdConfig = PgdConfig(), targets=None,
                    progress=None):
    """Attack every clip in a clean manifest.

    Writes adversarial WAVs, an adversarial manifest (original label kept,
    target and source recorded), and records.jsonl with one line per attack.
    Returns (results, adversarial manifest of the successful attacks).
    """
    if kind not in ("ga", "pgd"):
        raise ValueError(f"attack kind must be ga or pgd, got {kind!r}")
    if targets is None:
        targets = pick_targets(model, manifest, master_seed)
    elif isinstance(targets, str):
        targets = [targets] * len(manifest.rows)
    if len(targets) != len(manifest.rows):
        raise ValueError("one target per manifest row required")
    for target in targets:
        model.label_index(target)  # an unknown label fails before anything is written
    out_dir = Path(out_dir)
    (out_dir / "wavs").mkdir(parents=True, exist_ok=True)

    results, adv_rows, record_lines = [], [], []
    for idx, (row, target) in enumerate(zip(manifest.rows, targets)):
        clip = read_wav(manifest.resolve(row))
        if kind == "ga":
            seed = derive_seed(master_seed, "attack-ga", idx)
            res = ga_attack(model, clip, target, replace(ga_cfg, seed=seed))
        else:
            res = pgd_attack(model, clip, target, pgd_cfg)
        results.append(res)
        rel = f"wavs/adv_{idx:04d}.wav"
        write_wav(res.adversarial, out_dir / rel)
        if res.success:
            adv_rows.append(ManifestRow(path=rel, label=row.label,
                                        target=target, source=row.path))
        record_lines.append(json.dumps({
            "original": row.path,
            "target": target,
            "success": res.success,
            "iterations": res.iterations_used,
            "distortion_db": round(res.distortion_db, 6)
            if math.isfinite(res.distortion_db) else None,
            "final_score": round(res.final_target_score, 6),
        }, sort_keys=True) + "\n")
        if progress is not None:
            progress(idx, res)

    (out_dir / "records.jsonl").write_text("".join(record_lines), encoding="utf-8")
    adv_manifest = Manifest(rows=adv_rows, base_dir=out_dir)
    write_manifest(adv_manifest, out_dir / "manifest.csv", adversarial=True)
    return results, adv_manifest
