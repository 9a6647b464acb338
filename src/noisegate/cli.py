"""Command-line entry point.

Each subcommand optionally reads a JSON config file (--config); explicit
flags win over config values, and the NOISEGATE_SEED environment variable
wins over both for the master seed. The settings dataclasses declare the
settings: each field but the seed is a flag (`k_max` -> --k-max) and a config
key. The files and labels a subcommand names (--manifest, --model, --out, ...)
are config keys as well, and a flag it requires may come from the config
file instead. A config value must have the flag's type, and a key no
subcommand has as a flag is an error. `main` layers the config file under
the flags once, before the command runs, which then reads `args` alone.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import fields
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
from noisegate.manifests import load_manifest
from noisegate.metrics import MetricsReport, emit_report
from noisegate.recognition import RecognizerError, parse_recognizer
from noisegate.seeds import derive_seed
from noisegate.synthesis import synth_dataset
from noisegate.transforms import apply_transform, parse_transform

SEED_ENV_VAR = "NOISEGATE_SEED"


def _load_config(path, known):
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config {path} must hold a JSON object")
    if unknown := sorted(set(cfg) - known):
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}; a key is "
                         f"a flag's long name with underscores, e.g. k_max")
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


# The settings that are not a plain number or string: field -> parser of the
# flag's text or the config file's value
_PARSERS = {
    "grid": lambda value: _items("grid", value, int),
    "transforms": lambda value: _items("transforms", value, str),
    "recognizer": lambda value: parse_recognizer(_typed("recognizer", value, str)),
    "noise": lambda value: parse_transform(_typed("noise", value, str)),
}


def _layer(args, parser, config):
    """Give each flag of `parser` that `args` lacks the config file's value, of
    the flag's type; parse the `_PARSERS` settings; check the required flags."""
    for action in parser._actions:
        key = action.dest
        if key in config and not hasattr(args, key):
            value = config[key]
            setattr(args, key, value if key in _PARSERS else _typed(key, value, action.type or str))
        if key in _PARSERS and hasattr(args, key):
            setattr(args, key, _PARSERS[key](getattr(args, key)))
    for key in args.needs:
        if not hasattr(args, key):
            flag = next(a.option_strings[0] for a in parser._actions if a.dest == key)
            raise ValueError(f"{flag} is required")


def _from_flags(cls, args, **fixed):
    """A `cls` config of `fixed` and the fields that `args` holds, the rest at default."""
    values = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**{**values, **fixed})


def _master_seed(args) -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR}={env!r} is not an integer seed") from None
    return getattr(args, "seed", 0)


def cmd_synth(args):
    out_dir = Path(getattr(args, "out_dir", "."))
    manifest = synth_dataset(getattr(args, "classes", 10), getattr(args, "per_class", 100),
                             _master_seed(args), out_dir)
    print(f"wrote {len(manifest)} clips and {out_dir / 'manifest.csv'}")
    return 0


def cmd_train(args):
    cfg = _from_flags(TrainConfig, args, seed=_master_seed(args))
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


def cmd_attack(args):
    # attack_manifest derives each genetic attack's own seed
    ga_cfg = _from_flags(GaConfig, args, seed=0)
    pgd_cfg = _from_flags(PgdConfig, args)
    model = classifier.load(args.model)
    manifest = load_manifest(args.manifest)

    def progress(idx, res):
        status = "ok " if res.success else "FAIL"
        print(f"[{idx:3d}] {status} target={res.target} iters={res.iterations_used} "
              f"distortion={res.distortion_db:.2f}dB score={res.final_target_score:.3f}")

    results, adv_manifest = attack_manifest(
        model, manifest, args.mode, args.out_dir, master_seed=_master_seed(args),
        ga_cfg=ga_cfg, pgd_cfg=pgd_cfg, targets=getattr(args, "target", None),
        progress=progress,
    )
    wins = sum(1 for r in results if r.success)
    print(f"{wins}/{len(results)} attacks succeeded; "
          f"outputs in {args.out_dir} (records.jsonl, manifest.csv)")
    return 0


def cmd_defend(args):
    spec = parse_transform(args.transform, seed=derive_seed(_master_seed(args), "defend", 0))
    write_wav(apply_transform(spec, read_wav(args.infile)), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_detect(args):
    seed = _master_seed(args)
    cfg = _from_flags(DetectionConfig, args)
    manifest = load_manifest(args.manifest)
    # every WAV is read before any clip is heard, so a bad one fails first
    clips = [read_wav(manifest.resolve(row)) for row in manifest.rows]
    outcomes = detect_clips(cfg, clips, [derive_seed(seed, "detect", i) for i in range(len(clips))])
    report = MetricsReport(["path", "cr", "verdict", "transcript_before", "transcript_after"])
    for row, o in zip(manifest.rows, outcomes):
        report.add_row(row.path, f"{o.cr:.6f}", o.verdict, o.transcript_before, o.transcript_after)
    out = Path(getattr(args, "out", "detection_report.csv"))
    emit_report(report, out)
    print(f"wrote {out}")
    return 0


def cmd_report(args):
    """sweep and compare: `args.driver` writes one of `args.files` (command, text mode)."""
    cfg = _from_flags(ExperimentConfig, args, master_seed=_master_seed(args))
    model_path = getattr(args, "model", None)
    model = classifier.load(model_path) if model_path else None
    report = args.driver(cfg, load_manifest(args.clean_manifest),
                         load_manifest(args.adv_manifest), model=model, recognizer=cfg.recognizer)
    name = args.files[0] if model is not None else args.files[1]
    print(f"wrote {Path(cfg.out_dir) / name} ({len(report.rows)} rows)")
    return 0


def cmd_roc(args):
    cfg = _from_flags(ExperimentConfig, args, master_seed=_master_seed(args))
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


def _add_settings(parser, *classes, only=None):
    """A flag per field of `classes` but the seed (`k_max` -> --k-max), or per
    field named in `only`, and --seed."""
    for cls in classes:
        for f in fields(cls):
            if f.name not in ("seed", "master_seed") and (only is None or f.name in only):
                parser.add_argument("--" + f.name.replace("_", "-"),
                                    type=None if f.name in _PARSERS else type(f.default))
    parser.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    """The parser; a subcommand's flag that is not given is absent from the
    parsed arguments, and `needs` names the flags it cannot run without."""
    parser = argparse.ArgumentParser(
        prog="noisegate",
        description="Audio adversarial examples: attack, devastate, detect.",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = command("synth", help="generate the synthetic keyword corpus")
    p.add_argument("--classes", type=int)
    p.add_argument("--per-class", type=int)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth, needs=())

    p = command("train", help="train the keyword classifier")
    p.add_argument("--manifest")
    p.add_argument("--out")
    _add_settings(p, TrainConfig)
    p.set_defaults(func=cmd_train, needs=("out", "manifest"))

    p = command("attack", help="generate targeted adversarial examples")
    p.add_argument("mode", choices=("ga", "pgd"))
    p.add_argument("--model")
    p.add_argument("--manifest")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--target", help="fixed target label (default: random wrong label)")
    _add_settings(p, GaConfig, PgdConfig)
    p.set_defaults(func=cmd_attack, needs=("out_dir", "model", "manifest"))

    p = command("defend", help="apply one input transform to a WAV")
    p.add_argument("--transform", help="e.g. gaussian:200, requant8, lowpass:4000:101")
    p.add_argument("--in", dest="infile")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_defend, needs=("transform", "infile", "out"))

    p = command("detect", help="change-rate detection over a manifest")
    p.add_argument("--manifest")
    p.add_argument("--out")
    _add_settings(p, DetectionConfig)
    p.set_defaults(func=cmd_detect, needs=("recognizer", "manifest"))

    # each report subcommand has the ExperimentConfig fields its driver reads
    for name, only, defaults, extra in (
        ("sweep", ("grid", "recognizer", "out_dir"),
         dict(func=cmd_report, driver=run_intensity_sweep, files=SWEEP_FILES),
         "ASR/ACC (or similarity) over the intensity grid"),
        ("compare", ("transforms", "recognizer", "out_dir"),
         dict(func=cmd_report, driver=run_transform_comparison, files=COMPARE_FILES),
         "compare every defense transform plus no-defense"),
        ("roc", ("grid", "recognizer", "out_dir", "cr_mode"), dict(func=cmd_roc),
         "detection ROC/AUC per (noise kind, intensity) cell"),
    ):
        p = command(name, help=extra)
        p.add_argument("--clean-manifest", dest="clean_manifest")
        p.add_argument("--adv-manifest", dest="adv_manifest")
        if name != "roc":  # roc hears through --recognizer alone
            p.add_argument("--model")
        _add_settings(p, ExperimentConfig, only=only)
        p.set_defaults(**defaults, needs=("clean_manifest", "adv_manifest"))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a config key is a flag of some subcommand, so one file can serve several
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    known = {a.dest for p in sub.choices.values() for a in p._actions if a.option_strings}
    try:
        _layer(args, sub.choices[args.command], _load_config(args.config, known - {"help"}))
        return args.func(args)
    # a bad setting, spec or input, a file that cannot be read or a recognizer
    # that fails: one line, not a traceback
    except (ValueError, OSError, RecognizerError) as exc:
        raise SystemExit(f"noisegate {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
