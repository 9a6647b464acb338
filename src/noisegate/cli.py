"""Command-line entry point.

Each subcommand optionally reads a JSON config file (--config); explicit
flags win over config values, and the NOISEGATE_SEED environment variable
wins over both for the master seed.
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from noisegate import classifier
from noisegate.attacks import GaConfig, PgdConfig
from noisegate.audio import read_wav, write_wav
from noisegate.classifier import TrainConfig
from noisegate.detection import DetectionConfig, detect
from noisegate.experiments import (
    DEFAULT_COMPARISON_TRANSFORMS,
    DEFAULT_GRID,
    ExperimentConfig,
    attack_manifest,
    run_detection_eval,
    run_intensity_sweep,
    run_transform_comparison,
)
from noisegate.features import spectrogram_image, write_pgm
from noisegate.manifests import load_manifest
from noisegate.recognition import parse_recognizer
from noisegate.seeds import derive_seed
from noisegate.synthesis import synth_dataset
from noisegate.transforms import NoiseSpec, parse_transform, apply_transform

SEED_ENV_VAR = "NOISEGATE_SEED"


def _load_config(path):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise SystemExit(f"config {path} must hold a JSON object")
    return cfg


def _setting(args, config, key, default):
    """flag > config file > default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _master_seed(args, config) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return int(_setting(args, config, "seed", 0))


def _grid(args, config):
    raw = _setting(args, config, "grid", None)
    if raw is None:
        return DEFAULT_GRID
    if isinstance(raw, str):
        return tuple(int(v) for v in raw.split(","))
    return tuple(int(v) for v in raw)


def _transform_list(args, config):
    raw = _setting(args, config, "transforms", None)
    if raw is None:
        return DEFAULT_COMPARISON_TRANSFORMS
    if isinstance(raw, str):
        return tuple(t.strip() for t in raw.split(",") if t.strip())
    return tuple(raw)


def _recognizer(args, config):
    raw = _setting(args, config, "recognizer", None)
    return parse_recognizer(raw) if raw else None


def _noise(args, config, seed: int) -> NoiseSpec:
    raw = _setting(args, config, "noise", "gaussian:200")
    kind, _, intensity = raw.partition(":")
    try:
        level = int(intensity)
    except ValueError:
        raise SystemExit(f"noise {raw!r} needs an integer intensity, e.g. gaussian:200") from None
    return NoiseSpec(kind=kind, intensity=level, seed=seed)


def cmd_synth(args, config):
    seed = _master_seed(args, config)
    out_dir = Path(_setting(args, config, "out_dir", "."))
    classes = int(_setting(args, config, "classes", 10))
    per_class = int(_setting(args, config, "per_class", 100))
    manifest = synth_dataset(classes, per_class, seed, out_dir)
    print(f"wrote {len(manifest)} clips and {out_dir / 'manifest.csv'}")
    return 0


def cmd_train(args, config):
    seed = _master_seed(args, config)
    manifest = load_manifest(args.manifest)
    dataset = [(read_wav(manifest.resolve(row)), row.label) for row in manifest.rows]
    base = TrainConfig()
    cfg = TrainConfig(
        learning_rate=float(_setting(args, config, "learning_rate", base.learning_rate)),
        momentum=float(_setting(args, config, "momentum", base.momentum)),
        epochs=int(_setting(args, config, "epochs", base.epochs)),
        batch_size=int(_setting(args, config, "batch_size", base.batch_size)),
        seed=seed,
        validation_fraction=float(
            _setting(args, config, "validation_fraction", base.validation_fraction)
        ),
    )

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
    model = classifier.load(args.model)
    manifest = load_manifest(args.manifest)
    ga_base, pgd_base = GaConfig(), PgdConfig()
    ga_cfg = GaConfig(
        population_size=int(_setting(args, config, "population_size", ga_base.population_size)),
        k_max=int(_setting(args, config, "k_max", ga_base.k_max)),
        temp=float(_setting(args, config, "temp", ga_base.temp)),
        mutation_probability=float(
            _setting(args, config, "mutation_probability", ga_base.mutation_probability)
        ),
        mutation_range=int(_setting(args, config, "mutation_range", ga_base.mutation_range)),
        init_noise_bits=int(_setting(args, config, "init_noise_bits", ga_base.init_noise_bits)),
        elitism=not args.no_elitism,
    )
    pgd_cfg = PgdConfig(
        tau=float(_setting(args, config, "tau", pgd_base.tau)),
        steps=int(_setting(args, config, "steps", pgd_base.steps)),
        step_size=int(_setting(args, config, "step_size", pgd_base.step_size)),
    )

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
    recognizer = _recognizer(args, config)
    if recognizer is None:
        raise SystemExit("detect needs --recognizer (builtin:/external:/cache:)")
    manifest = load_manifest(args.manifest)
    threshold = float(_setting(args, config, "threshold", 0.5))
    votes = int(_setting(args, config, "votes", 1))
    cr_mode = _setting(args, config, "cr_mode", "edit")
    rows = [("path", "cr", "verdict", "transcript_before", "transcript_after")]
    for idx, row in enumerate(manifest.rows):
        cfg = DetectionConfig(
            noise=_noise(args, config, seed=derive_seed(seed, "detect", idx)),
            threshold=threshold,
            recognizer=recognizer,
            votes=votes,
            cr_mode=cr_mode,
        )
        outcome = detect(cfg, read_wav(manifest.resolve(row)))
        rows.append((row.path, f"{outcome.cr:.6f}", outcome.verdict,
                     outcome.transcript_before, outcome.transcript_after))
    out = Path(_setting(args, config, "out", "detection_report.csv"))
    with open(out, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    print(f"wrote {out}")
    return 0


def _experiment_config(args, config) -> ExperimentConfig:
    return ExperimentConfig(
        master_seed=_master_seed(args, config),
        grid=_grid(args, config),
        transforms=_transform_list(args, config),
        recognizer=_recognizer(args, config),
        out_dir=str(_setting(args, config, "out_dir", ".")),
        cr_mode=_setting(args, config, "cr_mode", "edit"),
    )


def _mode_args(args, config):
    model = classifier.load(args.model) if getattr(args, "model", None) else None
    recognizer = _recognizer(args, config)
    if (model is None) == (recognizer is None):
        raise SystemExit("pass either --model (command mode) or --recognizer (text mode)")
    return model, recognizer


def cmd_sweep(args, config):
    cfg = _experiment_config(args, config)
    model, recognizer = _mode_args(args, config)
    report = run_intensity_sweep(cfg, load_manifest(args.clean_manifest),
                                 load_manifest(args.adv_manifest),
                                 model=model, recognizer=recognizer)
    name = "sweep_command.csv" if model is not None else "sweep_similarity.csv"
    print(f"wrote {Path(cfg.out_dir) / name} ({len(report.rows)} rows)")
    return 0


def cmd_compare(args, config):
    cfg = _experiment_config(args, config)
    model, recognizer = _mode_args(args, config)
    report = run_transform_comparison(cfg, load_manifest(args.clean_manifest),
                                      load_manifest(args.adv_manifest),
                                      model=model, recognizer=recognizer)
    name = "compare_command.csv" if model is not None else "compare_transforms.csv"
    print(f"wrote {Path(cfg.out_dir) / name} ({len(report.rows)} rows)")
    return 0


def cmd_roc(args, config):
    cfg = _experiment_config(args, config)
    if cfg.recognizer is None:
        raise SystemExit("roc needs --recognizer (builtin:/external:/cache:)")
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
    image = spectrogram_image(clip, args.fft_size, args.hop)
    write_pgm(image, args.out)
    print(f"wrote {args.out} ({image.shape[1]}x{image.shape[0]})")
    return 0


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
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--validation-fraction", dest="validation_fraction", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attack", help="generate targeted adversarial examples")
    p.add_argument("mode", choices=("ga", "pgd"))
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--target", help="fixed target label (default: random wrong label)")
    p.add_argument("--population-size", dest="population_size", type=int)
    p.add_argument("--k-max", dest="k_max", type=int)
    p.add_argument("--temp", type=float)
    p.add_argument("--mutation-probability", dest="mutation_probability", type=float)
    p.add_argument("--mutation-range", dest="mutation_range", type=int)
    p.add_argument("--init-noise-bits", dest="init_noise_bits", type=int)
    p.add_argument("--no-elitism", action="store_true")
    p.add_argument("--tau", type=float)
    p.add_argument("--steps", type=int)
    p.add_argument("--step-size", dest="step_size", type=int)
    p.add_argument("--seed", type=int)
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
    p.add_argument("--recognizer", help="builtin:<model> | external:<cmd {}> | cache:<jsonl>")
    p.add_argument("--noise", help="kind:intensity, e.g. gaussian:200")
    p.add_argument("--threshold", type=float)
    p.add_argument("--votes", type=int)
    p.add_argument("--cr-mode", dest="cr_mode", choices=("edit", "flip"))
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_detect)

    for name, fn, extra in (
        ("sweep", cmd_sweep, "ASR/ACC (or similarity) over the intensity grid"),
        ("compare", cmd_compare, "compare every defense transform plus no-defense"),
        ("roc", cmd_roc, "detection ROC/AUC per (noise kind, intensity) cell"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--clean-manifest", dest="clean_manifest", required=True)
        p.add_argument("--adv-manifest", dest="adv_manifest", required=True)
        p.add_argument("--model")
        p.add_argument("--recognizer")
        p.add_argument("--grid")
        p.add_argument("--transforms")
        p.add_argument("--out-dir", dest="out_dir")
        p.add_argument("--cr-mode", dest="cr_mode", choices=("edit", "flip"))
        p.add_argument("--seed", type=int)
        p.set_defaults(func=fn)

    p = sub.add_parser("spectrogram", help="write a PGM spectrogram of a WAV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--fft-size", dest="fft_size", type=int, default=512)
    p.add_argument("--hop", type=int, default=160)
    p.set_defaults(func=cmd_spectrogram)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = _load_config(args.config)
    return args.func(args, config)


if __name__ == "__main__":
    sys.exit(main())
