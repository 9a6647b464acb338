"""Hermetic synthetic keyword corpus.

Each class is a two-tone chirp burst (base frequency 300 + 120*c Hz with a
class-dependent amplitude modulation) inside a one-second clip, with a
randomized onset, random loudness in [0.3, 0.9] of full scale, and uniform
background noise at intensity 200. Everything derives from per-clip seeded
generators, so a fixed seed reproduces the corpus byte for byte.
"""

from pathlib import Path

import numpy as np

from noisegate.audio import I16_MAX, I16_MIN, AudioClip, write_wav
from noisegate.manifests import Manifest, ManifestRow, write_manifest

SAMPLE_RATE = 16000
CLIP_SAMPLES = 16000
NOISE_INTENSITY = 200

# speech-commands-style words; classNN beyond the first ten
LABEL_WORDS = ("yes", "no", "up", "down", "left", "right", "on", "off", "stop", "go")


def class_label(index: int) -> str:
    if index < len(LABEL_WORDS):
        return LABEL_WORDS[index]
    return f"class{index:02d}"


def _burst_envelope(n: int, start: int, length: int, ramp: int) -> np.ndarray:
    env = np.zeros(n)
    end = min(start + length, n)
    if end <= start:
        return env
    env[start:end] = 1.0
    r = min(ramp, (end - start) // 2)
    if r > 0:
        slope = np.linspace(0.0, 1.0, r, endpoint=False)
        env[start : start + r] = slope
        env[end - r : end] = slope[::-1]
    return env


def synth_clip(class_index: int, rng: np.random.Generator) -> AudioClip:
    """One randomized clip of the given class."""
    t = np.arange(CLIP_SAMPLES) / SAMPLE_RATE
    base = (300.0 + 120.0 * class_index) * (1.0 + rng.uniform(-0.02, 0.02))
    phase1, phase2 = rng.uniform(0.0, 2.0 * np.pi, size=2)

    # upward 60 Hz/s chirp on the base tone; AM rate marks the class
    tone1 = np.sin(2.0 * np.pi * (base * t + 30.0 * t * t) + phase1)
    am = 0.5 + 0.5 * np.sin(2.0 * np.pi * (3.0 + 0.7 * class_index) * t)
    tone2 = np.sin(2.0 * np.pi * 1.5 * base * t + phase2) * am
    mix = 0.65 * tone1 + 0.35 * tone2

    lead = rng.uniform(0.05, 0.25)
    burst = rng.uniform(0.5, 0.7)
    env = _burst_envelope(CLIP_SAMPLES, int(lead * SAMPLE_RATE),
                          int(burst * SAMPLE_RATE), ramp=SAMPLE_RATE // 100)

    amplitude = rng.uniform(0.3, 0.9) * I16_MAX
    signal = np.round(amplitude * mix * env)
    noise = rng.integers(-NOISE_INTENSITY, NOISE_INTENSITY + 1, size=CLIP_SAMPLES)
    samples = np.clip(signal + noise, I16_MIN, I16_MAX).astype(np.int16)
    return AudioClip(samples=samples, sample_rate_hz=SAMPLE_RATE)


def synth_dataset(classes: int, per_class: int, seed: int, out_dir) -> Manifest:
    """Write a labeled corpus under out_dir and return the manifest.

    Layout: out_dir/wavs/<label>_<i>.wav plus out_dir/manifest.csv with
    paths relative to the manifest.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if per_class < 1:
        raise ValueError(f"need at least 1 clip per class, got {per_class}")
    out_dir = Path(out_dir)
    (out_dir / "wavs").mkdir(parents=True, exist_ok=True)

    rows = []
    for c in range(classes):
        label = class_label(c)
        for i in range(per_class):
            rng = np.random.default_rng(np.random.SeedSequence((seed, c, i)))
            clip = synth_clip(c, rng)
            rel = f"wavs/{label}_{i:04d}.wav"
            write_wav(clip, out_dir / rel)
            rows.append(ManifestRow(path=rel, label=label))

    manifest = Manifest(rows=rows, base_dir=out_dir)
    write_manifest(manifest, out_dir / "manifest.csv", adversarial=False)
    return manifest
