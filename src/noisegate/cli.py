"""Command-line entry point.

Each subcommand optionally reads a JSON config file (--config); explicit
flags win over config values, and the NOISEGATE_SEED environment variable
wins over both for the master seed. The settings dataclasses declare the
settings: each field but the seed is a flag (`k_max` -> --k-max) and a config
key, and a config value must have the field's type.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path

from noisegate import classifier
from noisegate.attacks import GaConfig, PgdConfig
from noisegate.audio import read_wav, write_wav
from noisegate.classifier import TrainConfig
from noisegate.detection import DetectionConfig, detect_clips
from noisegate.experiments import (
    COMPARE_FILES,
    SWEEP_FILES,
    ExperimentConfig,
    attack_manifest,
    run_detection_eval,
    run_intensity_sweep,
    run_transform_comparison,
)
from noisegate.features import spectrogram_image, write_pgm
from noisegate.manifests import load_manifest
from noisegate.recognition import RecognizerError, parse_recognizer
from noisegate.seeds import derive_seed
from noisegate.synthesis import synth_dataset
from noisegate.transforms import NOISE_KINDS, NoiseSpec, apply_transform, parse_transform

SEED_ENV_VAR = "NOISEGATE_SEED"
DETECT_BLOCK = 64  # clips `detect` holds in memory at a time, with their noisy copies


def _load_config(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    return cfg


def _typed(key, value, kind):
    """`value`, which must be a `kind` (an int passes for a float), cast to `kind`."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{key} must be of type {kind.__name__}, got {value!r}")
    return kind(value)


def _items(key, value, kind):
    """A comma-separated flag or a config list, as a tuple of `kind` items."""
    if isinstance(value, str):
        try:
            return tuple(kind(item.strip()) for item in value.split(",") if item.strip())
        except ValueError:
            raise ValueError(f"{key} must be a comma-separated list of {kind.__name__}, "
                             f"got {value!r}") from None
    return tuple(_typed(key, item, kind) for item in _typed(key, value, list))


def _noise(text: str) -> NoiseSpec:
    spec = parse_transform(text) if ":" in text else None
    if spec is None or spec.kind not in NOISE_KINDS:
        raise ValueError(f"noise must be kind:intensity with a kind in {NOISE_KINDS}, "
                         f"got {text!r}")
    return NoiseSpec(spec.kind, *spec.params)


# The settings that are not a plain number or string: field -> parser of the
# flag's text or the config file's value
_PARSERS = {
    "grid": lambda value: _items("grid", value, int),
    "transforms": lambda value: _items("transforms", value, str),
    "recognizer": lambda value: parse_recognizer(_typed("recognizer", value, str)),
    "noise": lambda value: _noise(_typed("noise", value, str)),
}


def _given(args, config, key):
    """The flag's value, else the config file's, else None."""
    value = getattr(args, key, None)
    return config.get(key) if value is None else value


def _setting(args, config, key, default):
    """flag > config file > default, of the default's type."""
    value = _given(args, config, key)
    return default if value is None else _typed(key, value, type(default))


def _from_flags(cls, args, config, **fixed):
    """A `cls` config: each field not in `fixed` resolves as flag > config file >
    default, the fields in `_PARSERS` through their parser."""
    values = dict(fixed)
    for f in fields(cls):
        if f.name in fixed:
            continue
        if f.name not in _PARSERS:
            values[f.name] = _setting(args, config, f.name, f.default)
        elif (value := _given(args, config, f.name)) is not None:
            values[f.name] = _PARSERS[f.name](value)
        elif f.default is MISSING:
            raise ValueError(f"--{f.name.replace('_', '-')} is required")
    return cls(**values)


def _master_seed(args, config) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR}={env!r} is not an integer seed") from None
    return _setting(args, config, "seed", 0)


def cmd_synth(args, config):
    seed = _master_seed(args, config)
    out_dir = Path(_setting(args, config, "out_dir", "."))
    classes = _setting(args, config, "classes", 10)
    per_class = _setting(args, config, "per_class", 100)
    manifest = synth_dataset(classes, per_class, seed, out_dir)
    print(f"wrote {len(manifest)} clips and {out_dir / 'manifest.csv'}")
    return 0


def cmd_train(args, config):
    cfg = _from_flags(TrainConfig, args, config, seed=_master_seed(args, config))
    manifest = load_manifest(args.manifest)
    dataset = [(read_wav(manifest.resolve(row)), row.label) for row in manifest.rows]

    def progress(stats):
        val = "-" if stats.validation_accuracy is None else f"{stats.validation_accuracy:.3f}"
        print(f"epoch {stats.epoch:3d}  loss {stats.train_loss:.4f}  "
              f"train_acc {stats.train_accuracy:.3f}  val_acc {val}")

    model = classifier.train(dataset, cfg, progress=progress)
    classifier.save(model, args.out)
    print(f"saved model to {args.out}")
    return 0


def cmd_attack(args, config):
    seed = _master_seed(args, config)
    # attack_manifest derives each genetic attack's own seed
    ga_cfg = _from_flags(GaConfig, args, config, seed=0)
    pgd_cfg = _from_flags(PgdConfig, args, config)
    model = classifier.load(args.model)
    manifest = load_manifest(args.manifest)

    def progress(idx, res):
        status = "ok " if res.success else "FAIL"
        print(f"[{idx:3d}] {status} target={res.target} iters={res.iterations_used} "
              f"distortion={res.distortion_db:.2f}dB score={res.final_target_score:.3f}")

    results, adv_manifest = attack_manifest(
        model, manifest, args.mode, args.out_dir, master_seed=seed,
        ga_cfg=ga_cfg, pgd_cfg=pgd_cfg, targets=args.target, progress=progress,
    )
    wins = sum(1 for r in results if r.success)
    print(f"{wins}/{len(results)} attacks succeeded; "
          f"outputs in {args.out_dir} (records.jsonl, manifest.csv)")
    return 0


def cmd_defend(args, config):
    seed = _master_seed(args, config)
    spec = parse_transform(args.transform, seed=derive_seed(seed, "defend", 0))
    clip = read_wav(args.infile)
    write_wav(apply_transform(spec, clip), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_detect(args, config):
    seed = _master_seed(args, config)
    cfg = _from_flags(DetectionConfig, args, config)
    manifest = load_manifest(args.manifest)
    rows = [("path", "cr", "verdict", "transcript_before", "transcript_after")]
    for start in range(0, len(manifest), DETECT_BLOCK):
        block = manifest.rows[start:start + DETECT_BLOCK]
        outcomes = detect_clips(cfg, [read_wav(manifest.resolve(row)) for row in block],
                                [derive_seed(seed, "detect", start + i) for i in range(len(block))])
        rows += [(row.path, f"{outcome.cr:.6f}", outcome.verdict, outcome.transcript_before,
                  outcome.transcript_after) for row, outcome in zip(block, outcomes)]
    out = Path(_setting(args, config, "out", "detection_report.csv"))
    with open(out, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(f"wrote {out}")
    return 0


def cmd_report(args, config):
    """sweep and compare: `args.driver` writes one of `args.files` (command, text mode)."""
    cfg = _from_flags(ExperimentConfig, args, config, master_seed=_master_seed(args, config))
    model = classifier.load(args.model) if args.model else None
    report = args.driver(cfg, load_manifest(args.clean_manifest),
                         load_manifest(args.adv_manifest),
                         model=model, recognizer=cfg.recognizer)
    name = args.files[0] if model is not None else args.files[1]
    print(f"wrote {Path(cfg.out_dir) / name} ({len(report.rows)} rows)")
    return 0


def cmd_roc(args, config):
    cfg = _from_flags(ExperimentConfig, args, config, master_seed=_master_seed(args, config))
    results = run_detection_eval(cfg, load_manifest(args.clean_manifest),
                                 load_manifest(args.adv_manifest))
    defined = {k: v for k, v in results.items() if v is not None}
    best = max(defined.items(), key=lambda kv: kv[1].auc) if defined else None
    print(f"wrote {Path(cfg.out_dir) / 'detection_auc.csv'} ({len(results)} cells)")
    if best:
        (kind, intensity), cell = best
        print(f"best cell {kind}:{intensity} auc={cell.auc:.3f} "
              f"youden_threshold={cell.youden_threshold:.3f}")
    return 0


def cmd_spectrogram(args, config):
    clip = read_wav(args.infile)
    image = spectrogram_image(clip, _setting(args, config, "fft_size", 512),
                              _setting(args, config, "hop", 160))
    write_pgm(image, args.out)
    print(f"wrote {args.out} ({image.shape[1]}x{image.shape[0]})")
    return 0


def _add_settings(parser, *classes):
    """A flag per field of `classes` but the seed (`k_max` -> --k-max), and --seed."""
    for cls in classes:
        for f in fields(cls):
            if f.name not in ("seed", "master_seed"):
                parser.add_argument("--" + f.name.replace("_", "-"),
                                    type=None if f.name in _PARSERS else type(f.default))
    parser.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisegate",
        description="Audio adversarial examples: attack, devastate, detect.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic keyword corpus")
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the keyword classifier")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_settings(p, TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="generate targeted adversarial examples")
    p.add_argument("mode", choices=("ga", "pgd"))
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--target", help="fixed target label (default: random wrong label)")
    _add_settings(p, GaConfig, PgdConfig)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("defend", help="apply one input transform to a WAV")
    p.add_argument("--transform", required=True,
                   help="e.g. gaussian:200, requant8, lowpass:4000:101")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser("detect", help="change-rate detection over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out")
    _add_settings(p, DetectionConfig)
    p.set_defaults(func=cmd_detect)

    for name, defaults, extra in (
        ("sweep", dict(func=cmd_report, driver=run_intensity_sweep, files=SWEEP_FILES),
         "ASR/ACC (or similarity) over the intensity grid"),
        ("compare", dict(func=cmd_report, driver=run_transform_comparison, files=COMPARE_FILES),
         "compare every defense transform plus no-defense"),
        ("roc", dict(func=cmd_roc), "detection ROC/AUC per (noise kind, intensity) cell"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--clean-manifest", dest="clean_manifest", required=True)
        p.add_argument("--adv-manifest", dest="adv_manifest", required=True)
        p.add_argument("--model")
        _add_settings(p, ExperimentConfig)
        p.set_defaults(**defaults)

    p = sub.add_parser("spectrogram", help="write a PGM spectrogram of a WAV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fft-size", dest="fft_size", type=int)
    p.add_argument("--hop", type=int)
    p.set_defaults(func=cmd_spectrogram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    # a bad setting, spec or input, a file that cannot be read or a recognizer
    # that fails: one line, not a traceback
    except (ValueError, OSError, RecognizerError) as exc:
        raise SystemExit(f"noisegate {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
