import importlib
import types
from pathlib import Path

from noisegate import experiments
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
