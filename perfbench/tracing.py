"""Spans and counts for noisegate's layers, recorded from outside the package.

`Tracer.install` replaces each traced function at every name a noisegate
module holds it under: its own module, and each module that imported it
with `from ... import`. Calls between modules and within one module both
pass through the wrapper. `uninstall` puts the originals back.

Spans are kept in memory as (name, start, end, parent, rows) and summed into
counts and self times when a traced stretch ends. A span's self time is its
duration minus the durations of its direct child spans.
"""

import hashlib
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

TRANSFORM_KINDS = ("uniform", "gaussian", "requant8", "lowpass", "silence",
                   "downup", "median", "quant")


def _rows(index):
    return lambda args, result: {"rows": len(args[index])}


# (module, function, span name, extra counts from (args, result))
TARGETS = (
    ("noisegate.synthesis", "synth_dataset", "synthesis.synth_dataset", None),
    ("noisegate.audio", "read_wav", "audio.read_wav", None),
    ("noisegate.audio", "write_wav", "audio.write_wav", None),
    ("noisegate.features", "mfcc_from_array", "features.mfcc_from_array", None),
    ("noisegate.features", "mfcc_batch", "features.mfcc_batch", _rows(0)),
    ("noisegate.features", "mfcc_with_gradient_cache",
     "features.mfcc_with_gradient_cache", None),
    ("noisegate.features", "mfcc_backprop", "features.mfcc_backprop", None),
    ("noisegate.classifier", "train", "classifier.train", None),
    ("noisegate.classifier", "predict", "classifier.predict", None),
    ("noisegate.classifier", "predict_samples_batch", "classifier.predict_samples_batch",
     _rows(1)),
    ("noisegate.classifier", "forward_batch", "classifier.forward_batch", _rows(1)),
    ("noisegate.attacks", "ga_attack", "attacks.ga",
     lambda args, result: {"generations": len(result.fitness_trace or ()),
                           "landed": int(result.success)}),
    ("noisegate.attacks", "pgd_attack", "attacks.pgd",
     lambda args, result: {"steps": result.iterations_used, "landed": int(result.success)}),
    # add_noise spans are named after the noise kind: transforms.uniform, transforms.gaussian
    ("noisegate.transforms", "add_noise", None, None),
    ("noisegate.transforms", "requantize_8bit", "transforms.requant8", None),
    ("noisegate.transforms", "low_pass", "transforms.lowpass", None),
    ("noisegate.transforms", "silence_removal", "transforms.silence", None),
    ("noisegate.transforms", "down_up_sample", "transforms.downup", None),
    ("noisegate.transforms", "median_smooth", "transforms.median", None),
    ("noisegate.transforms", "quantize", "transforms.quant", None),
    ("noisegate._kernels", "sliding_median", "_kernels.sliding_median", None),
    ("noisegate._kernels", "levenshtein", "_kernels.levenshtein",
     lambda args, result: {"cells": len(args[0]) * len(args[1])}),
    ("noisegate.recognition", "transcribe", "recognition.transcribe", None),
    ("noisegate.detection", "change_rate", "detection.change_rate", None),
    ("noisegate.detection", "roc", "detection.roc",
     lambda args, result: {"scores": len(args[0]), "thresholds": len(result.points) - 1}),
    ("noisegate.metrics", "similarity", "metrics.similarity", None),
    ("noisegate.metrics", "distance_ratio", "metrics.distance_ratio", None),
    ("noisegate.experiments", "run_intensity_sweep", "experiments.run_intensity_sweep", None),
    ("noisegate.experiments", "run_transform_comparison",
     "experiments.run_transform_comparison", None),
    ("noisegate.experiments", "run_detection_eval", "experiments.run_detection_eval", None),
    ("noisegate.experiments", "attack_manifest", "experiments.attack_manifest", None),
)


@dataclass
class Tally:
    """What one stretch of traced work did: counts and self times per span name."""

    counts: Counter = field(default_factory=Counter)
    self_ms: defaultdict = field(default_factory=lambda: defaultdict(float))
    ga_scoring_ms: float = 0.0
    distinct_clips: int = 0


class Tracer:
    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        self.spans = []  # [name, start, end, parent index or None, rows]
        self.counts = Counter()
        self._stack = []
        self._clips = set()

    def _wrap(self, fn, name, extra):
        def traced(*args, **kwargs):
            span = name or f"transforms.{args[1].kind}"
            if span == "recognition.transcribe":
                digest = hashlib.sha256(args[1].samples.tobytes()).hexdigest()
                self._clips.add((repr(args[0]), digest))
            record = [span, 0.0, 0.0, self._stack[-1] if self._stack else None, 0]
            self.spans.append(record)
            self._stack.append(len(self.spans) - 1)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            self.counts[f"{span}.calls"] += 1
            if extra is not None:
                for key, value in extra(args, result).items():
                    self.counts[f"{span}.{key}"] += value
                    if key == "rows":
                        record[4] = value
            return result

        return traced

    def _count_spawns(self, fn):
        def counted(*args, **kwargs):
            self.counts["recognition.external.spawns"] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        wrappers = [(module, attr, lambda fn, n=name, e=extra: self._wrap(fn, n, e))
                    for module, attr, name, extra in TARGETS]
        # a count alone: the spawn's time stays in the transcribe span
        wrappers.append(("noisegate.recognition", "_run_external", self._count_spawns))
        for module_name, attr, make in wrappers:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = make(original)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not mod_name.startswith("noisegate"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def tally(self):
        """Counts and self times of everything recorded since the last reset."""
        tally = Tally(counts=Counter(self.counts), distinct_clips=len(self._clips))
        child_s = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        for index, (name, start, end, parent, rows) in enumerate(self.spans):
            tally.self_ms[name] += (end - start - child_s[index]) * 1000.0
            if (name == "classifier.predict_samples_batch" and parent is not None
                    and self.spans[parent][0] == "attacks.ga"):
                tally.ga_scoring_ms += (end - start) * 1000.0
                tally.counts["attacks.ga.candidates_scored"] += rows
        return tally


def combine(setup, rounds):
    """One set-up plus one round: set-up tally plus the rounds' counts and mean times."""
    total = Tally(counts=setup.counts + rounds[0].counts,
                  ga_scoring_ms=setup.ga_scoring_ms
                  + sum(r.ga_scoring_ms for r in rounds) / len(rounds),
                  distinct_clips=setup.distinct_clips + rounds[0].distinct_clips)
    for name in set(setup.self_ms).union(*(r.self_ms for r in rounds)):
        total.self_ms[name] = (setup.self_ms.get(name, 0.0)
                               + sum(r.self_ms.get(name, 0.0) for r in rounds) / len(rounds))
    return total


def layer_metrics(t):
    """The per-layer metrics, name -> (value, unit)."""
    c, ms = t.counts, t.self_ms
    attempts = c["attacks.ga.calls"] + c["attacks.pgd.calls"]
    landed = c["attacks.ga.landed"] + c["attacks.pgd.landed"]
    calls = c["recognition.transcribe.calls"]
    m = {}
    for span in ("features.mfcc_batch", "classifier.predict_samples_batch",
                 "classifier.forward_batch"):
        m[f"{span}.rows"] = (c[f"{span}.rows"], "count")
        m[f"{span}.ms"] = (ms[span], "ms")
    m["attacks.ga.generations"] = (c["attacks.ga.generations"], "count")
    m["attacks.ga.candidates_scored"] = (c["attacks.ga.candidates_scored"], "count")
    m["attacks.ga.scoring_ms"] = (t.ga_scoring_ms, "ms")
    m["attacks.ga.breeding_ms"] = (ms["attacks.ga"], "ms")
    m["attacks.pgd.steps"] = (c["attacks.pgd.steps"], "count")
    m["attacks.pgd.step_ms"] = (ms["attacks.pgd"], "ms")
    m["features.mfcc_with_gradient_cache.ms"] = (ms["features.mfcc_with_gradient_cache"], "ms")
    m["features.mfcc_backprop.ms"] = (ms["features.mfcc_backprop"], "ms")
    m["attacks.landed"] = (landed, "count")
    m["attacks.landed_per_attempt"] = (landed / attempts if attempts else 0.0, "ratio")
    for span in ("classifier.predict", "features.mfcc_from_array"):
        m[f"{span}.calls"] = (c[f"{span}.calls"], "count")
        m[f"{span}.ms"] = (ms[span], "ms")
    m["classifier.train.ms"] = (ms["classifier.train"], "ms")
    m["synthesis.synth_dataset.ms"] = (ms["synthesis.synth_dataset"], "ms")
    for span in ("audio.read_wav", "audio.write_wav"):
        m[f"{span}.calls"] = (c[f"{span}.calls"], "count")
        m[f"{span}.ms"] = (ms[span], "ms")
    for kind in TRANSFORM_KINDS:
        m[f"transforms.{kind}.calls"] = (c[f"transforms.{kind}.calls"], "count")
        m[f"transforms.{kind}.ms"] = (ms[f"transforms.{kind}"], "ms")
    m["_kernels.sliding_median.ms"] = (ms["_kernels.sliding_median"], "ms")
    m["_kernels.levenshtein.calls"] = (c["_kernels.levenshtein.calls"], "count")
    m["_kernels.levenshtein.cells"] = (c["_kernels.levenshtein.cells"], "count")
    m["_kernels.levenshtein.ms"] = (ms["_kernels.levenshtein"], "ms")
    m["recognition.transcribe.calls"] = (calls, "count")
    m["recognition.transcribe.distinct_clips"] = (t.distinct_clips, "count")
    m["recognition.transcribe.distinct_per_call"] = (
        t.distinct_clips / calls if calls else 0.0, "ratio")
    m["recognition.transcribe.ms"] = (ms["recognition.transcribe"], "ms")
    m["recognition.external.spawns"] = (c["recognition.external.spawns"], "count")
    m["detection.change_rate.calls"] = (c["detection.change_rate.calls"], "count")
    m["detection.change_rate.ms"] = (ms["detection.change_rate"], "ms")
    m["detection.roc.scores"] = (c["detection.roc.scores"], "count")
    m["detection.roc.thresholds"] = (c["detection.roc.thresholds"], "count")
    m["detection.roc.ms"] = (ms["detection.roc"], "ms")
    m["metrics.similarity.calls"] = (c["metrics.similarity.calls"], "count")
    m["metrics.similarity.ms"] = (ms["metrics.similarity"], "ms")
    m["metrics.distance_ratio.ms"] = (ms["metrics.distance_ratio"], "ms")
    for name in ("run_intensity_sweep", "run_transform_comparison", "run_detection_eval",
                   "attack_manifest"):
        m[f"experiments.{name}.ms"] = (ms[f"experiments.{name}"], "ms")
    return m
