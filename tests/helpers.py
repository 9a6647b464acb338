"""Test helpers: clips made from values or a tone; the classifier's loss and its exact
gradients; a writer for the recognizer's `cache:` transcript files; and bench/bytes.py's
file digests and their compare, the byte check of every test that compares two trees."""

import json
import math
import sys
from pathlib import Path

import numpy as np

from noisegate.audio import AudioClip
from noisegate.classifier import _backward, _forward_batch

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from bytes import differences, digests  # noqa: E402,F401


def clip_of(values, rate=16000):
    return AudioClip(samples=np.array(values, dtype=np.int16), sample_rate_hz=rate)


def tone(freq, seconds=1.0, amplitude=10000, rate=16000):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(
        samples=np.round(amplitude * np.sin(2 * np.pi * freq * t)).astype(np.int16),
        sample_rate_hz=rate,
    )


def loss_and_gradient(model, features, label):
    """Cross-entropy loss plus exact gradients, through the forward and the backward
    that `train` and PGD run.

    Returns (loss, [(dW, db) per layer], gradient w.r.t. the input features,
    shaped like `features`).
    """
    target = model.label_index(label)
    x = np.asarray(features, dtype=np.float64).reshape(1, -1)
    probs, activations = _forward_batch(model, x)
    loss = -math.log(max(probs[0, target], 1e-300))
    delta = probs.copy()
    delta[0, target] -= 1.0
    param_grads, input_grad = _backward(model, activations, delta, input_grad=True)
    return loss, param_grads, input_grad.reshape(np.shape(features))


def write_cache_file(entries, path) -> None:
    """Write (sha256, transcript) pairs as the JSON lines a `cache:` recognizer reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for digest, text in entries:
            fh.write(json.dumps({"sha256": digest, "transcript": text}) + "\n")
