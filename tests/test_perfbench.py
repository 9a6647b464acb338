import ast
import importlib
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

from noisegate import attacks, experiments
from noisegate.attacks import PgdConfig
from noisegate.audio import AudioClip
from noisegate.classifier import load, predict, predict_clips, save
from noisegate.manifests import Manifest, ManifestRow

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_source(name):
    # executed from its source, so nothing is imported from or written under perfbench/
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(name)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def load_tracing():
    return load_source("tracing")


def test_traced_names_exist():
    """The benchmark's traced mode wraps these names: one renamed away breaks `--trace 1`."""
    tracing = load_tracing()
    names = [(module, attr) for module, attr, *_ in tracing.TARGETS]
    names += [("noisegate.recognition", "_run_external"), ("noisegate._kernels", "BACKEND")]
    assert len(names) > 2
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def _dotted(node):
    """'a.b.c' for a chain of attribute reads on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _perfbench_trees():
    """(file name, syntax tree, {name: (module, attribute or None)} of the noisegate
    names it imports) for every perfbench file."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("noisegate"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):  # a submodule
                        importlib.import_module(f"{node.module}.{alias.name}")
                    bound[alias.asname or alias.name] = (module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("noisegate"):
                        top = alias.asname or alias.name.split(".")[0]
                        bound[top] = (importlib.import_module(top), None)
        yield path.name, tree, bound


def _perfbench_reads():
    """(file, 'name.attr...', object the name is bound to) for every noisegate name
    a perfbench file imports and every chain of attribute reads on it."""
    reads = []
    for name, tree, bound in _perfbench_trees():
        for node in ast.walk(tree):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if chain is not None and (root := chain.split(".")[0]) in bound:
                reads.append((name, chain, bound[root]))
        reads += [(name, chain, where) for chain, where in bound.items()]
    return reads


def _resolve(chain, where):
    """The object 'name.attr...' reads, `where` = (module, attribute or None) being
    what its first name is bound to."""
    module, attr = where
    value = module if attr is None else getattr(module, attr)
    for part in chain.split(".")[1:]:
        value = getattr(value, part)
    return value


def test_benchmark_reads_exist():
    """Every noisegate name perfbench imports, and every attribute it reads on one
    (`RecognizerSpec.builtin`, `recognition.transcribe`, `experiments.DEFAULT_GRID`),
    resolves: one renamed away breaks the benchmark."""
    reads = _perfbench_reads()
    chains = {chain for _, chain, _ in reads}
    assert {"recognition.RecognizerSpec.builtin", "recognition.RecognizerSpec.external",
            "recognition.transcribe", "classifier.predict", "experiments.DEFAULT_GRID",
            "experiments.NO_DEFENSE_LABEL", "experiments.DEFAULT_COMPARISON_TRANSFORMS",
            "_kernels.BACKEND"} <= chains
    missing = []
    for name, chain, where in reads:
        try:
            _resolve(chain, where)
        except AttributeError:
            missing.append(f"{name}: {chain}")
    assert missing == []


def _perfbench_calls():
    """(file:line, callee chain, callee, positional count, keyword sets) for every call
    a perfbench file makes into noisegate: a direct call, or the function handed to
    `workloads._timed` with the arguments after it. A `**mode` spread stands for each
    key set a `mode` method returns, so such a call has one keyword set per mode."""
    calls = []
    for name, tree, bound in _perfbench_trees():
        modes = [[key.value for key in node.value.keys]
                 for method in ast.walk(tree)
                 if isinstance(method, ast.FunctionDef) and method.name == "mode"
                 for node in ast.walk(method)
                 if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict)]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee, args = node.func, node.args
            if _dotted(callee) == "_timed":  # _timed(probe, errors, name, fn, *args, **kwargs)
                callee, args = args[3], args[4:]
            chain = _dotted(callee)
            if chain is None or chain.split(".")[0] not in bound:
                continue
            assert not any(isinstance(arg, ast.Starred) for arg in args), ast.unparse(node)
            named = [kw.arg for kw in node.keywords if kw.arg is not None]
            spreads = [ast.unparse(kw.value) for kw in node.keywords if kw.arg is None]
            assert spreads in ([], ["mode"]), ast.unparse(node)
            keyword_sets = [named + mode for mode in modes] if spreads else [named]
            calls.append((f"{name}:{node.lineno}", chain,
                          _resolve(chain, bound[chain.split(".")[0]]), len(args), keyword_sets))
    return calls


def test_benchmark_calls_bind():
    """Every call perfbench makes into noisegate binds to the callee's signature: a
    parameter renamed or dropped breaks the benchmark, which this change may not edit."""
    calls = _perfbench_calls()
    chains = {chain for _, chain, *_ in calls}
    assert {"experiments.attack_manifest", "experiments.run_intensity_sweep",
            "experiments.run_transform_comparison", "experiments.run_detection_eval",
            "experiments.ExperimentConfig", "synthesis.synth_dataset", "classifier.train",
            "classifier.predict", "recognition.transcribe", "GaConfig", "PgdConfig",
            "Manifest"} <= chains
    spread = [keys for _, chain, _, _, sets in calls
              if chain == "experiments.run_intensity_sweep" for keys in sets]
    assert ["model"] in spread and ["recognizer"] in spread
    unbound = []
    for where, chain, callee, positional, keyword_sets in calls:
        for keys in keyword_sets:
            try:
                inspect.signature(callee).bind(*[None] * positional, **dict.fromkeys(keys))
            except TypeError as exc:
                unbound.append(f"{where}: {chain}({positional} positional, {keys}): {exc}")
    assert unbound == []


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
    """One float64 predict per run: the landing's confirmation, or the re-score of
    a run that runs out or repeats (none of these runs has a denied landing)."""
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
    assert counts["classifier.predict_samples_batch.calls"] == 1


def test_predict_clips_agrees_with_the_independent_reference(tmp_path, tiny_model, tiny_clips):
    """`predict_clips` on a saved model hears what perfbench's reference hears: the
    reference reads the model file and rebuilds the MFCC and MLP apart from noisegate.
    Labels agree through `predict_clips` and `predict`, and `predict`'s probabilities
    to 1e-9, on clips padded, exact and trimmed."""
    path = tmp_path / "model.txt"
    save(tiny_model, path)
    reference = load_source("reference").ReferenceModel(path)
    rate = tiny_clips[0][1].sample_rate_hz
    clips = [AudioClip(samples=np.resize(clip.samples, n), sample_rate_hz=rate)
             for _, clip in tiny_clips[:8] for n in (rate // 2 + 17, rate, rate + 3001)]
    model = load(path)
    heard = predict_clips(model, clips)
    for clip, heard_label in zip(clips, heard):
        want = reference.probabilities(clip.samples, rate)
        label, prob = predict(model, clip)
        assert heard_label == label == reference.labels[int(np.argmax(want))]
        assert abs(prob - want.max()) <= 1e-9
