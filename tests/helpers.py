"""Test helpers over the package's internals: the classifier's loss and its exact
gradients, and a writer for the recognizer's `cache:` transcript files."""

import json
import math

import numpy as np

from noisegate.classifier import _backward, _forward_batch


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
