"""Input transformations: random-noise injection and the classic defenses.

Every transform is a pure function of (spec, clip); randomness comes only
from the explicit seed, so batch runs stay reproducible.
"""

from dataclasses import dataclass

import numpy as np

from noisegate import _kernels
from noisegate.audio import I16_MAX, I16_MIN, AudioClip

NOISE_KINDS = ("uniform", "gaussian")

SILENCE_FRAME_MS = 20
DEFAULT_SILENCE_THRESHOLD = 328  # ~1% of full scale
DEFAULT_LOWPASS_TAPS = 101
UNIFORM_SPARE = 64  # raw values past a clip's end for the uniform draw's rare skips

# Every parameter rule, written once: "<kind> <parameter>" -> (test, what the test asks).
# Specs check at parse time and the operations at call time, both through _check.
_RULES = {
    "uniform intensity": (lambda i: 0 <= i <= I16_MAX, f"in [0, {I16_MAX}]"),
    "lowpass cutoff": (lambda hz: hz > 0, "positive"),
    "lowpass taps": (lambda n: n % 2 == 1 and n >= 3, "odd and >= 3"),
    "silence threshold": (lambda t: t >= 0, ">= 0"),
    "downup factor": (lambda f: f >= 2, ">= 2"),
    "quant step": (lambda s: s >= 1, ">= 1"),
}
_RULES["gaussian intensity"] = _RULES["uniform intensity"]
_RULES["median window"] = _RULES["lowpass taps"]


def _check(name: str, value) -> None:
    ok, rule = _RULES[name]
    if not ok(value):
        raise ValueError(f"{name} must be {rule}, got {value}")


@dataclass(frozen=True)
class TransformSpec:
    """A parameterized transform; `seed` only matters for the noise kinds.

    Text syntax: uniform:50, gaussian:200, requant8, lowpass:4000:101,
    silence:328, downup:2, median:3, quant:256.
    """

    kind: str
    params: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        names = _KINDS[self.kind][0]
        required = list(names.values()).count(None)
        if not required <= len(self.params) <= len(names):
            raise ValueError(f"{self.kind} takes {required}..{len(names)} parameters "
                             f"({', '.join(names)}), got {self.params!r}")
        for name, value in zip(names, _resolved(self)):
            _check(f"{self.kind} {name}", value)

    @property
    def label(self) -> str:
        if self.params:
            return self.kind + ":" + ":".join(str(p) for p in self.params)
        return self.kind


def _resolved(spec: TransformSpec) -> tuple:
    """The spec's parameters, with the kind's defaults filling those left out."""
    return spec.params + tuple(_KINDS[spec.kind][0].values())[len(spec.params):]


def add_noise(clip: AudioClip, spec: TransformSpec, unit_draws=None) -> AudioClip:
    """Add i.i.d. integer noise to every sample, saturating to 16-bit: uniform on
    [-I, I] or gaussian with sigma = I, for the noise spec's intensity I.

    `unit_draws`, a mapping the caller owns (see `detection.hear_rows`), keeps each draw
    by (kind, seed, length), read-only, for the intensities of that seed to share: the
    gaussian unit draw, or the raw 32-bit stream of the uniform one. It changes no output."""
    if spec.kind not in NOISE_KINDS:
        raise ValueError(f"add_noise takes a noise kind {NOISE_KINDS}, got {spec.kind!r}")
    (intensity,) = spec.params
    if intensity == 0:
        return clip
    n = len(clip)
    draws, key = {} if unit_draws is None else unit_draws, (spec.kind, spec.seed, n)
    if spec.kind == "uniform":  # as rng.integers(-I, I + 1, n) draws it (arXiv:1805.10941)
        r, kept, raw = 2 * intensity + 1, (), ()
        while len(kept) < n:  # a stream whose spare values run out is drawn again, longer
            raw = _draw(draws, key, len(raw) + n - len(kept) + UNIFORM_SPARE)
            skip = raw * np.uint32(r) < (2**32 - r) % r  # by the low 32 bits of u * r
            kept = raw[~skip] if skip.any() else raw
        noisy = (kept[:n] * (r / 2**32)).astype(np.int32)  # u * r >> 32: u * r < 2**48 is exact
        noisy -= intensity
    else:
        # rng.normal(0, I, n) is 0 + I * z over the same draws z: equal after rounding
        noisy = _draw(draws, key, n) * intensity
        np.round(noisy, out=noisy)
    noisy += clip.samples  # a gaussian's whole-number float64 sum is exact: the int32 sum
    out = np.clip(noisy, I16_MIN, I16_MAX, out=noisy).astype(np.int16)
    return AudioClip(samples=out, sample_rate_hz=clip.sample_rate_hz)


def _draw(draws, key, count):
    """`draws[key]`: n unit normals or `count` raw 32-bit values, drawn read-only if short."""
    kind, seed, n = key
    if len(draws.get(key, ())) < count:
        rng = np.random.default_rng(seed)
        draws[key] = (rng.standard_normal(n) if kind == "gaussian"
                      else rng.integers(0, 2**32, count, dtype=np.uint32))
        draws[key].flags.writeable = False
    return draws[key]


def requantize_8bit(clip: AudioClip) -> AudioClip:
    """Zero the low 8 bits of each sample (drop the low byte, two's complement)."""
    out = np.left_shift(np.right_shift(clip.samples, 8), 8).astype(np.int16)
    return AudioClip(samples=out, sample_rate_hz=clip.sample_rate_hz)


def _design_lowpass(cutoff_hz: float, taps: int, sample_rate_hz: int) -> np.ndarray:
    # windowed-sinc FIR, Hamming window, unit DC gain
    _check("lowpass taps", taps)
    _check("lowpass cutoff", cutoff_hz)
    # only the clip knows its Nyquist frequency, so this rule waits for apply time
    if cutoff_hz >= sample_rate_hz / 2:
        raise ValueError(f"lowpass cutoff must be below {sample_rate_hz / 2} Hz, got {cutoff_hz}")
    half = taps // 2
    n = np.arange(taps) - half
    ratio = 2.0 * cutoff_hz / sample_rate_hz
    h = ratio * np.sinc(ratio * n) * np.hamming(taps)
    return h / h.sum()


def _fir_apply(samples: np.ndarray, taps: np.ndarray, pad_mode: str) -> np.ndarray:
    half = taps.size // 2
    padded = np.pad(samples.astype(np.float64), half, mode=pad_mode)
    return np.convolve(padded, taps, mode="valid")


def _to_i16(values: np.ndarray) -> np.ndarray:
    return np.clip(np.round(values), I16_MIN, I16_MAX).astype(np.int16)


def low_pass(clip: AudioClip, cutoff_hz: float, taps: int) -> AudioClip:
    """Windowed-sinc FIR low-pass with zero-padded edges; length preserved."""
    h = _design_lowpass(cutoff_hz, taps, clip.sample_rate_hz)
    out = _fir_apply(clip.samples, h, pad_mode="constant")
    return AudioClip(samples=_to_i16(out), sample_rate_hz=clip.sample_rate_hz)


def silence_removal(clip: AudioClip, threshold: float) -> AudioClip:
    """Delete 20 ms frames whose mean |amplitude| is below the threshold.

    Never returns an empty clip: if every frame is silent, the single
    loudest frame is kept.
    """
    _check("silence threshold", threshold)
    frame_len = max(1, clip.sample_rate_hz * SILENCE_FRAME_MS // 1000)
    n = len(clip)
    whole = n - n % frame_len
    magnitudes = np.abs(clip.samples.astype(np.int32))
    # whole frames as rows, then the short tail frame; integer sums are exact
    means = magnitudes[:whole].reshape(-1, frame_len).mean(axis=1)
    if whole < n:
        means = np.append(means, magnitudes[whole:].mean())
    loud = means >= threshold
    if not loud.any():
        loud[np.argmax(means)] = True
    kept = clip.samples[np.repeat(loud, frame_len)[:n]]
    return AudioClip(samples=kept, sample_rate_hz=clip.sample_rate_hz)


def down_up_sample(clip: AudioClip, factor: int) -> AudioClip:
    """Decimate by `factor` (after anti-alias filtering) and linearly interpolate back."""
    _check("downup factor", factor)
    # edge-replicated padding here so constant signals survive intact
    h = _design_lowpass(clip.sample_rate_hz / (2.0 * factor), DEFAULT_LOWPASS_TAPS,
                        clip.sample_rate_hz)
    smoothed = _fir_apply(clip.samples, h, pad_mode="edge")
    n = len(clip)
    kept_idx = np.arange(0, n, factor)
    rebuilt = np.interp(np.arange(n), kept_idx, smoothed[kept_idx])
    return AudioClip(samples=_to_i16(rebuilt), sample_rate_hz=clip.sample_rate_hz)


def median_smooth(clip: AudioClip, window: int) -> AudioClip:
    """Replace each sample with the median of its window (edges shrink symmetrically)."""
    _check("median window", window)
    out = _kernels.sliding_median(clip.samples, window)
    return AudioClip(samples=out, sample_rate_hz=clip.sample_rate_hz)


def quantize(clip: AudioClip, step: int) -> AudioClip:
    """Round each sample to the nearest multiple of `step`, ties away from zero."""
    _check("quant step", step)
    x = clip.samples.astype(np.int64)
    magnitude = (np.abs(x) * 2 + step) // (2 * step) * step
    out = np.clip(np.sign(x) * magnitude, I16_MIN, I16_MAX).astype(np.int16)
    return AudioClip(samples=out, sample_rate_hz=clip.sample_rate_hz)


# kind -> ({parameter: default, None marking a required one}, apply). A spec checks
# each parameter against the rule "<kind> <parameter>". Each apply takes the clip and
# the spec, and looks its operation up by name at call time, so a wrapper set on the
# module attribute (as perfbench/tracing.py does) sees every call; apply_transform
# does so for the noise kinds.
_KINDS = {
    "uniform": ({"intensity": None}, None),
    "gaussian": ({"intensity": None}, None),
    "requant8": ({}, lambda clip, spec: requantize_8bit(clip)),
    "lowpass": ({"cutoff": None, "taps": DEFAULT_LOWPASS_TAPS},
                lambda clip, spec: low_pass(clip, *_resolved(spec))),
    "silence": ({"threshold": DEFAULT_SILENCE_THRESHOLD},
                lambda clip, spec: silence_removal(clip, *_resolved(spec))),
    "downup": ({"factor": 2}, lambda clip, spec: down_up_sample(clip, *_resolved(spec))),
    "median": ({"window": 3}, lambda clip, spec: median_smooth(clip, *_resolved(spec))),
    "quant": ({"step": None}, lambda clip, spec: quantize(clip, *_resolved(spec))),
}


def parse_transform(text: str, seed: int = 0) -> TransformSpec:
    """Parse the CLI syntax, e.g. 'gaussian:200' or 'lowpass:4000:101'."""
    pieces = text.strip().split(":")
    kind = pieces[0]
    try:
        params = tuple(int(p) for p in pieces[1:])
    except ValueError as exc:
        raise ValueError(f"bad transform parameters in {text!r}") from exc
    return TransformSpec(kind=kind, params=params, seed=seed)


def apply_transform(spec: TransformSpec, clip: AudioClip, unit_draws=None) -> AudioClip:
    """Dispatch to the kind's operation, `add_noise` with the caller's `unit_draws`
    for a noise kind; deterministic given (spec, clip)."""
    if spec.kind in NOISE_KINDS:
        return add_noise(clip, spec, unit_draws)
    return _KINDS[spec.kind][1](clip, spec)
