"""Built-in keyword classifier: ReLU MLP over flattened MFCCs.

flatten(frames x coeffs) -> 128 ReLU -> 64 ReLU -> softmax, in double precision so
analytic gradients check tightly against finite differences; only `predict_clips` hears
in float32 (`float32_copy`). Clips are padded/truncated to exactly one second before
feature extraction.
"""

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from noisegate.audio import AudioClip
from noisegate.features import (FFT_SIZE, FRAME_MS, HOP_MS, LOG_FLOOR, MEL_FILTERS, NUM_COEFFS,
                                frame_count, mfcc_batch)

CLIP_SECONDS = 1.0
HIDDEN_DIMS = (128, 64)

# Training targets are smoothed one-hots: the true class gets 1 - s + s/K and
# the rest s/K. Accuracy is unaffected on separable data, but softmax outputs
# keep a usable dynamic range instead of collapsing to {1, 1e-9, ...}, which
# keeps score-based search and detection dynamics informative.
LABEL_SMOOTHING = 0.15

TRAIN_BLOCK_ROWS = 32  # clips per `mfcc_batch` in `train`, which never pads all at once
HEAR_MARGIN = 1e-3  # `predict_clips` decides in float64 a float32 top two closer than this

MODEL_FORMAT_VERSION = "MODELv1"
# the front end every model hears through (noisegate.features), as `save` writes it
FEATURE_LINE = f"feature {FRAME_MS} {HOP_MS} {FFT_SIZE} {MEL_FILTERS} {NUM_COEFFS} {LOG_FLOOR!r}"


class ModelFormatError(ValueError):
    """Model file is corrupt or structurally inconsistent."""


class ModelVersionError(ModelFormatError):
    """Model file carries an unknown format version."""


@dataclass
class Model:
    layer_dims: list
    weights: list  # per layer, shape (out, in)
    biases: list  # per layer, shape (out,)
    class_labels: list

    def __post_init__(self):
        dims = [int(d) for d in self.layer_dims]
        if len(dims) < 2:
            raise ValueError("layer_dims needs at least input and output dims")
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("one weight matrix and bias vector per layer required")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i + 1], dims[i]):
                raise ValueError(f"layer {i} weights {w.shape} != ({dims[i + 1]}, {dims[i]})")
            if b.shape != (dims[i + 1],):
                raise ValueError(f"layer {i} bias {b.shape} != ({dims[i + 1]},)")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i} has non-finite parameters")
        if not self.class_labels:
            raise ValueError("class_labels must be non-empty")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise ValueError("class_labels must be distinct")
        if dims[-1] != len(self.class_labels):
            raise ValueError("output dim must match the number of class labels")
        self.layer_dims = dims

    def label_index(self, label: str) -> int:
        try:
            return self.class_labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}; known: {self.class_labels}") from None


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 2e-5
    momentum: float = 0.9
    epochs: int = 200
    batch_size: int = 32
    seed: int = 0
    validation_fraction: float = 0.1

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate}")
        if not 0 <= self.momentum < 1:  # heavy-ball momentum diverges from 1 up
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.validation_fraction < 1:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    validation_accuracy: float | None


def new_model(class_labels, sample_rate_hz: int = 16000, seed: int = 0) -> Model:
    """Fresh model with uniform(-r, r) weights, r = sqrt(6/(fan_in+fan_out))."""
    labels = list(class_labels)
    n_target = int(round(CLIP_SECONDS * sample_rate_hz))
    dims = [frame_count(n_target, sample_rate_hz) * NUM_COEFFS, *HIDDEN_DIMS, len(labels)]
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        r = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-r, r, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Model(layer_dims=dims, weights=weights, biases=biases, class_labels=labels)


def pad_or_trim(samples: np.ndarray, sample_rate_hz: int) -> np.ndarray:
    """Zero-pad at the end or truncate so the signal is exactly one second."""
    n_target = int(round(CLIP_SECONDS * sample_rate_hz))
    if samples.shape[-1] >= n_target:
        return samples[..., :n_target]
    pad_widths = [(0, 0)] * (samples.ndim - 1) + [(0, n_target - samples.shape[-1])]
    return np.pad(samples, pad_widths)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(model: Model, x: np.ndarray):
    """Batch forward pass; returns (probs, per-layer activations incl. input).

    A row's result is not bit-identical across batches: BLAS blocking in the
    matmul makes it shift at ~1e-15 with the batch's size and row order.
    """
    activations = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T + b
        h = z if i == last else np.maximum(z, 0.0)
        activations.append(h)
    return _softmax(activations[-1]), activations


def forward_batch(model: Model, flat_features: np.ndarray) -> np.ndarray:
    """Class probabilities for flattened feature rows shaped (..., input_dim), with the
    same leading shape, in the model's dtype. Each (1, input_dim) matrix of a (n, 1,
    input_dim) batch takes its own matrix-vector products: its row is bit-identical alone."""
    x = np.asarray(flat_features, dtype=model.weights[0].dtype)
    if x.ndim < 2 or x.shape[-1] != model.layer_dims[0]:
        raise ValueError(f"features shaped {x.shape}, model expects {model.layer_dims[0]} per row")
    return _forward_batch(model, x)[0]


def _backward(model: Model, activations: list, delta: np.ndarray,
              param_grads: bool = True, input_grad: bool = False):
    """Backpropagate `delta`, the loss gradient w.r.t. the output logits.

    `activations` come from `_forward_batch`. Returns ([(dW, db) per layer],
    gradient w.r.t. the input rows); each part is computed only when asked
    for and is None otherwise.
    """
    grads = [None] * len(model.weights)
    for i in range(len(model.weights) - 1, -1, -1):
        if param_grads:
            grads[i] = (delta.T @ activations[i], delta.sum(axis=0))
        if i > 0:
            delta = (delta @ model.weights[i]) * (activations[i] > 0.0)
    return (grads if param_grads else None), (delta @ model.weights[0] if input_grad else None)


def predict_clips(model: Model, clips) -> list[str]:
    """The label of each clip; ties break to the lowest class index.

    The clips of each sample rate are screened through `float32_copy(model)` as one matrix
    product; rows whose top two probabilities are closer than `HEAR_MARGIN` are decided by
    the float64 `predict_samples_batch`, each row alone. A label never depends on the list,
    and is `predict`'s while float32 errs by under `HEAR_MARGIN / 2`.
    """
    out, screen = [None] * len(clips), float32_copy(model)
    for rate in dict.fromkeys(clip.sample_rate_hz for clip in clips):
        group = [i for i, clip in enumerate(clips) if clip.sample_rate_hz == rate]
        rows = np.stack([pad_or_trim(clips[i].samples, rate) for i in group])
        probs = predict_samples_batch(screen, rows, rate, dtype=np.float32).astype(np.float64)
        close = (probs > probs.max(axis=1, keepdims=True) - HEAR_MARGIN).sum(axis=1) > 1
        if close.any():
            probs[close] = predict_samples_batch(model, rows[close, None], rate)[:, 0]
        for i, idx in zip(group, probs.argmax(axis=1)):
            out[i] = model.class_labels[idx]
    return out


def float32_copy(model: Model) -> Model:
    """The model with float32 parameters, made per use: `train` updates weights in place."""
    return replace(model, weights=[w.astype(np.float32) for w in model.weights],
                   biases=[b.astype(np.float32) for b in model.biases])


def predict(model: Model, clip: AudioClip):
    """(label, probability) for a clip in float64; ties break to the lowest class index."""
    probs = predict_samples_batch(model, clip.samples[None, None], clip.sample_rate_hz)[0, 0]
    idx = int(np.argmax(probs))
    return model.class_labels[idx], float(probs[idx])


def predict_samples_batch(model: Model, batch: np.ndarray, sample_rate_hz: int,
                          dtype=np.float64) -> np.ndarray:
    """Class probabilities for raw sample rows shaped (..., n_samples), with the same
    leading shape: pad/trim to one second, `mfcc_batch`, then `forward_batch`.

    The features are batch-invariant. The MLP forward of a (count, n_samples) batch
    is not: a row's probabilities can differ at ~1e-15 with the batch's size and row
    order, so a candidate scored again need not reproduce its earlier score. Rows
    shaped (count, 1, n_samples) are scored one by one (see `forward_batch`).
    """
    padded = pad_or_trim(np.asarray(batch), sample_rate_hz)
    feats = mfcc_batch(padded.reshape(-1, padded.shape[-1]), sample_rate_hz, dtype=dtype)
    return forward_batch(model, feats.reshape(*padded.shape[:-1], -1))


def _accuracy(model: Model, x: np.ndarray, y: np.ndarray) -> float:
    probs = _forward_batch(model, x)[0]
    return float(np.mean(np.argmax(probs, axis=1) == y))


def train(dataset, cfg: TrainConfig = TrainConfig(), progress=None) -> Model:
    """Minibatch SGD with momentum on cross-entropy.

    `dataset` is a sequence of (AudioClip, label) pairs. Deterministic for a
    fixed cfg.seed: initialization, the validation split, and every epoch's
    shuffle come from one seeded generator. `progress`, when given, is called
    with an EpochStats after each epoch.
    """
    pairs = list(dataset)
    if not pairs:
        raise ValueError("dataset is empty")
    labels = sorted({label for _, label in pairs})
    if len(labels) < 2:
        raise ValueError(f"need at least 2 classes, got {labels}")

    rate = pairs[0][0].sample_rate_hz
    for clip, _ in pairs:
        if clip.sample_rate_hz != rate:
            raise ValueError("all training clips must share one sample rate")

    model = new_model(labels, sample_rate_hz=rate, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)

    x = np.empty((len(pairs), model.layer_dims[0]))
    for s in range(0, len(pairs), TRAIN_BLOCK_ROWS):
        rows = np.stack([pad_or_trim(c.samples, rate) for c, _ in pairs[s:s + TRAIN_BLOCK_ROWS]])
        x[s:s + len(rows)] = mfcc_batch(rows, rate).reshape(len(rows), -1)
    y = np.array([labels.index(label) for _, label in pairs])

    order = rng.permutation(len(pairs))
    n_val = int(round(cfg.validation_fraction * len(pairs)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split leaves no training data")

    velocity = [(np.zeros_like(w), np.zeros_like(b))
                for w, b in zip(model.weights, model.biases)]

    n_classes = len(labels)
    smooth_off = LABEL_SMOOTHING / n_classes
    smooth_on = 1.0 - LABEL_SMOOTHING + smooth_off

    for epoch in range(cfg.epochs):
        perm = train_idx[rng.permutation(train_idx.size)]
        epoch_loss = 0.0
        for start in range(0, perm.size, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            xb, yb = x[batch], y[batch]
            probs, activations = _forward_batch(model, xb)
            targets = np.full_like(probs, smooth_off)
            targets[np.arange(batch.size), yb] = smooth_on
            logp = np.log(np.clip(probs, 1e-300, None))
            epoch_loss += float(-(targets * logp).sum())

            delta = probs
            delta -= targets
            delta /= batch.size
            grads, _ = _backward(model, activations, delta)
            for (grad_w, grad_b), (vw, vb), w, b in zip(grads, velocity, model.weights,
                                                       model.biases):
                # in place, 16 rows at a time: layer 0's 1.3 MB matrices do not stay in cache
                for r in range(0, len(w), 16):
                    v, g, p = vw[r:r + 16], grad_w[r:r + 16], w[r:r + 16]
                    v *= cfg.momentum
                    g *= cfg.learning_rate
                    v -= g
                    p += v
                vb *= cfg.momentum
                vb -= cfg.learning_rate * grad_b
                b += vb

        if progress is not None:
            stats = EpochStats(
                epoch=epoch,
                train_loss=epoch_loss / perm.size,
                train_accuracy=_accuracy(model, x[train_idx], y[train_idx]),
                validation_accuracy=(
                    _accuracy(model, x[val_idx], y[val_idx]) if val_idx.size else None
                ),
            )
            progress(stats)

    return model


def save(model: Model, path) -> None:
    """Self-describing text serialization; load() inverts it exactly."""
    for label in model.class_labels:
        if not label or any(ch.isspace() for ch in label):
            raise ValueError(f"label {label!r} is empty or contains whitespace")
    lines = [
        MODEL_FORMAT_VERSION,
        "dims " + " ".join(str(d) for d in model.layer_dims),
        "labels " + " ".join(model.class_labels),
        FEATURE_LINE,
    ]
    path = os.path.realpath(path)  # a symlink keeps pointing at the model
    # written a row at a time beside `path`, then moved over it: no reader sees half a model
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")
            for w, b in zip(model.weights, model.biases):
                for rows in (w, b[None]):  # a line per block, a %-format per row
                    fmt = " ".join(["%.17g"] * rows.shape[1])
                    for i, row in enumerate(rows):
                        fh.write((" " if i else "") + fmt % tuple(row.tolist()))
                    fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load(path) -> Model:
    """Load a model saved by save(); predictions reproduce exactly. Values may wrap across
    lines; numpy parses each line into one array sized from `dims`, with no object per
    value, and a token it does not read whole (`1_0`, `0x10`, `1,2`) is a ModelFormatError."""
    with open(path, "r", encoding="ascii") as fh:
        version = fh.readline()
        if not version:
            raise ModelFormatError(f"{path}: empty model file")
        if version.strip() != MODEL_FORMAT_VERSION:
            raise ModelVersionError(
                f"{path}: expected version {MODEL_FORMAT_VERSION}, got {version.strip()!r}"
            )
        try:
            header = dict(fh.readline().split(None, 1) for _ in range(3))
            dims = [int(tok) for tok in header["dims"].split()]
            labels = header["labels"].split()
            feature = " ".join(["feature", *header["feature"].split()])
            if feature != FEATURE_LINE:  # every model hears through the one front end
                raise ValueError(f"{feature!r}, expected {FEATURE_LINE!r}")
            expected = sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))
            if not 0 <= expected <= os.fstat(fh.fileno()).st_size:  # a value takes 2 bytes
                raise ValueError(f"dims {dims} do not fit in the file")
            values, pos = np.empty(expected), 0
            for line in fh:
                if not line.isspace():  # numpy reads a blank line as [-1.0]
                    row = np.fromstring(line, sep=" ")
                    # past the end, values are counted and not written
                    values[pos:pos + row.size] = row[:max(expected - pos, 0)]
                    pos += row.size
        except (IndexError, KeyError, ValueError) as exc:
            raise ModelFormatError(f"{path}: malformed header or parameters ({exc})") from exc
    if pos != expected:
        raise ModelFormatError(f"{path}: expected {expected} parameters, found {pos}")

    weights, biases, pos = [], [], 0
    for i in range(len(dims) - 1):
        count = dims[i + 1] * dims[i]
        weights.append(values[pos : pos + count].reshape(dims[i + 1], dims[i]).copy())
        pos += count
        biases.append(values[pos : pos + dims[i + 1]].copy())
        pos += dims[i + 1]
    try:
        return Model(layer_dims=dims, weights=weights, biases=biases, class_labels=labels)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
