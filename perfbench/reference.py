"""Reference computations written apart from noisegate, used to check its outputs.

Nothing here imports noisegate. WAVs are read with the standard `wave`
module, the model file is parsed from its text format, and the MFCC is
rebuilt in float64 from its definition: pre-emphasis 0.97, 25 ms Hamming
frames every 10 ms, 512-point power spectrum, an HTK-scale triangular mel
bank, floored log and an orthonormal DCT-II (`scipy.fft.dct`).
"""

import math
import wave

import numpy as np
import scipy.fft

PREEMPHASIS = 0.97


def read_samples(path):
    """(int16 samples, sample rate) of a mono 16-bit PCM WAV."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError(f"{path}: not mono 16-bit PCM")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.int16), rate


class Mfcc:
    """The MFCC of one feature configuration."""

    def __init__(self, frame_ms, hop_ms, fft_size, mel_filters, num_coeffs, log_floor):
        self.frame_ms, self.hop_ms = frame_ms, hop_ms
        self.fft_size, self.mel_filters = fft_size, mel_filters
        self.num_coeffs, self.log_floor = num_coeffs, log_floor

    def _mel_bank(self, rate):
        def to_mel(hz):
            return 2595.0 * np.log10(1.0 + hz / 700.0)

        edges_mel = np.linspace(0.0, to_mel(rate / 2.0), self.mel_filters + 2)
        edges_hz = 700.0 * (10.0 ** (edges_mel / 2595.0) - 1.0)
        bins_hz = np.arange(self.fft_size // 2 + 1) * rate / self.fft_size
        bank = np.empty((self.mel_filters, bins_hz.size))
        for j in range(self.mel_filters):
            lo, mid, hi = edges_hz[j], edges_hz[j + 1], edges_hz[j + 2]
            up = (bins_hz - lo) / (mid - lo)
            down = (hi - bins_hz) / (hi - mid)
            bank[j] = np.clip(np.minimum(up, down), 0.0, None)
        return bank

    def __call__(self, samples, rate):
        """Frames x coefficients of a clip padded or trimmed to one second."""
        x = np.zeros(rate)
        n = min(rate, samples.size)
        x[:n] = samples[:n]
        y = np.concatenate([x[:1], x[1:] - PREEMPHASIS * x[:-1]])
        flen = rate * self.frame_ms // 1000
        hop = rate * self.hop_ms // 1000
        starts = range(0, y.size - flen + 1, hop)
        ramp = np.arange(flen)
        hamming = 0.54 - 0.46 * np.cos(2.0 * math.pi * ramp / (flen - 1))
        frames = np.stack([y[s:s + flen] * hamming for s in starts])
        power = np.abs(np.fft.rfft(frames, self.fft_size)) ** 2
        energies = np.maximum(power @ self._mel_bank(rate).T, self.log_floor)
        return scipy.fft.dct(np.log(energies), type=2, norm="ortho", axis=1)[:, :self.num_coeffs]


class ReferenceModel:
    """A saved noisegate model, parsed from its text file and run in float64."""

    def __init__(self, path):
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
        if lines[0] != "MODELv1":
            raise ValueError(f"{path}: unknown model version {lines[0]!r}")
        header = dict(line.split(" ", 1) for line in lines[1:4])
        dims = [int(v) for v in header["dims"].split()]
        self.labels = header["labels"].split()
        frame_ms, hop_ms, fft_size, mel_filters, num_coeffs, log_floor = header["feature"].split()
        self.mfcc = Mfcc(int(frame_ms), int(hop_ms), int(fft_size), int(mel_filters),
                         int(num_coeffs), float(log_floor))
        values = np.array(" ".join(lines[4:]).split(), dtype=np.float64)
        self.layers = []
        pos = 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            w = values[pos:pos + fan_in * fan_out].reshape(fan_out, fan_in)
            pos += fan_in * fan_out
            self.layers.append((w, values[pos:pos + fan_out]))
            pos += fan_out
        if pos != values.size:
            raise ValueError(f"{path}: {values.size} parameters for dims {dims}")

    def probabilities(self, samples, rate):
        h = self.mfcc(samples, rate).reshape(-1)
        for i, (w, b) in enumerate(self.layers):
            h = w @ h + b
            if i < len(self.layers) - 1:
                h = np.maximum(h, 0.0)
        e = np.exp(h - h.max())
        return e / e.sum()

    def label(self, samples, rate):
        return self.labels[int(np.argmax(self.probabilities(samples, rate)))]


def peak_distortion_db(original, adversarial):
    """20 log10(max|delta| / max|x|) between two sample arrays."""
    delta = adversarial.astype(np.int64) - original.astype(np.int64)
    return 20.0 * math.log10(np.abs(delta).max() / np.abs(original.astype(np.int64)).max())


def hex_window(samples, byte_offset, byte_count):
    """The bytes a `od -An -tx1` call prints for a window of a canonical WAV.

    `byte_offset` counts from the start of the file, whose header is 44 bytes.
    """
    payload = samples.astype("<i2").tobytes()
    start = byte_offset - 44
    return " ".join(f"{b:02x}" for b in payload[start:start + byte_count])


def trapezoid_auc(points):
    """Area under (fpr, tpr) points, starting from the origin."""
    auc, prev_f, prev_t = 0.0, 0.0, 0.0
    for f, t in points:
        auc += (f - prev_f) * (t + prev_t) / 2.0
        prev_f, prev_t = f, t
    return auc
