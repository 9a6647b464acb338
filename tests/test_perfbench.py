import importlib
import types
from pathlib import Path

import pytest

from noisegate import attacks, experiments
from noisegate.attacks import PgdConfig
from noisegate.classifier import predict
from noisegate.manifests import Manifest, ManifestRow

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # executed from its source, so nothing is imported from or written under perfbench/
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing.__dict__)
    return tracing


def test_traced_names_exist():
    """The benchmark's traced mode wraps these names: one renamed away breaks `--trace 1`."""
    tracing = load_tracing()
    names = [(module, attr) for module, attr, *_ in tracing.TARGETS]
    names += [("noisegate.recognition", "_run_external"), ("noisegate._kernels", "BACKEND")]
    assert len(names) > 2
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_traced_command_sweep_hears_each_cell_as_lists(tmp_path, tiny_model, tiny_corpus):
    """A command-mode cell takes one MFCC row per clip and no per-clip predict."""
    clean = Manifest(rows=tiny_corpus.rows[:3], base_dir=tiny_corpus.base_dir)
    adv = Manifest(rows=[ManifestRow(path=r.path, label=r.label, target="no", source=r.path)
                         for r in tiny_corpus.rows[3:7]], base_dir=tiny_corpus.base_dir)
    cfg = experiments.ExperimentConfig(master_seed=3, grid=(10, 200), out_dir=str(tmp_path))
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        # through the module attribute, where the tracer wraps it
        report = experiments.run_intensity_sweep(cfg, clean, adv, model=tiny_model)
    finally:
        tracer.uninstall()
    counts = tracer.tally().counts
    assert len(report.rows) == 4
    assert counts["experiments.run_intensity_sweep.calls"] == 1
    assert counts["features.mfcc_batch.rows"] == (3 + 4) * 4
    assert counts["features.mfcc_batch.calls"] == 2 * 4  # one per group of a cell
    assert counts["classifier.predict.calls"] == 0


@pytest.mark.parametrize("index, cfg, stops_early", [
    (1, PgdConfig(tau=-60.0, steps=30, step_size=1), True),
    (2, PgdConfig(tau=-70.0, steps=12, step_size=1), False),
    (2, PgdConfig(tau=-90.0, steps=100), True),
], ids=["lands", "runs-out", "repeats"])
def test_traced_pgd_step_is_one_forward_and_one_backward(tiny_model, tiny_clips, index, cfg,
                                                         stops_early):
    """A run that stops on a forward is scored by it, with no predict call."""
    _, clip = tiny_clips[index]
    target = next(label for label in tiny_model.class_labels
                  if label != predict(tiny_model, clip)[0])
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        res = attacks.pgd_attack(tiny_model, clip, target, cfg)
    finally:
        tracer.uninstall()
    counts = tracer.tally().counts
    stopped_early = res.iterations_used < cfg.steps
    assert stopped_early == stops_early
    assert counts["attacks.pgd.calls"] == 1
    assert counts["attacks.pgd.steps"] == res.iterations_used
    assert counts["features.mfcc_with_gradient_cache.calls"] == res.iterations_used + stopped_early
    assert counts["features.mfcc_backprop.calls"] == res.iterations_used
    assert counts["classifier.predict_samples_batch.calls"] == (0 if stopped_early else 1)
