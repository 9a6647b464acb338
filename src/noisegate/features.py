"""MFCC features for the classifier and spectrogram images for inspection.

Pipeline: pre-emphasis (0.97) -> 25 ms frames every 10 ms -> Hamming window
-> power spectrum -> 40 triangular mel filters (HTK scale) -> floored log
-> DCT-II, first 13 coefficients.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.fft import irfft, rfft  # pocketfft, much faster than numpy's on float32 batches

from noisegate.audio import AudioClip

PREEMPHASIS = 0.97

# Rows per mfcc_batch pass. One pass over a whole 49-row population spends
# its extra time on large temporaries (frames, spectrum, power), not on FFT
# work. Measured on a 2-vCPU Xeon (2 MiB L2 per core) with one core and one
# BLAS thread, 49 one-second rows, medians of 40 calls in two sweeps:
# float32 one pass 11.3-15.4 ms, chunks of 4 rows 9.7-10.2 ms; float64 one
# pass 28.2-28.4 ms, chunks of 4 rows 17.9-18.2 ms. Chunks of 2-12 rows
# came within 10% of 4 in float32.
MFCC_CHUNK_ROWS = 4


@dataclass(frozen=True)
class FeatureConfig:
    frame_ms: int = 25
    hop_ms: int = 10
    fft_size: int = 512
    mel_filters: int = 40
    num_coeffs: int = 13
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.num_coeffs > self.mel_filters:
            raise ValueError("num_coeffs must not exceed mel_filters")
        if min(self.frame_ms, self.hop_ms, self.fft_size, self.mel_filters,
               self.num_coeffs) <= 0 or self.log_floor <= 0:
            raise ValueError("feature config values must be positive")

    def frame_len(self, sample_rate_hz: int) -> int:
        return sample_rate_hz * self.frame_ms // 1000

    def hop_len(self, sample_rate_hz: int) -> int:
        return sample_rate_hz * self.hop_ms // 1000

    def frame_count(self, n_samples: int, sample_rate_hz: int) -> int:
        flen = self.frame_len(sample_rate_hz)
        if n_samples < flen:
            raise ValueError(f"clip of {n_samples} samples is shorter than one frame ({flen})")
        return (n_samples - flen) // self.hop_len(sample_rate_hz) + 1


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _plan(cfg: FeatureConfig, sample_rate_hz: int, dtype=np.float64):
    """Precomputed window, mel filterbank, filter centers, and DCT matrix.

    The window, filterbank and DCT are built in float64 and cast to `dtype`.
    """
    flen = cfg.frame_len(sample_rate_hz)
    if cfg.fft_size < flen:
        raise ValueError(f"fft_size {cfg.fft_size} smaller than frame length {flen}")
    window = np.hamming(flen)

    n_bins = cfg.fft_size // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate_hz / cfg.fft_size
    mel_pts = np.linspace(0.0, float(hz_to_mel(sample_rate_hz / 2.0)), cfg.mel_filters + 2)
    hz_pts = mel_to_hz(mel_pts)
    fbank = np.zeros((cfg.mel_filters, n_bins))
    for j in range(cfg.mel_filters):
        left, center, right = hz_pts[j], hz_pts[j + 1], hz_pts[j + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        fbank[j] = np.maximum(0.0, np.minimum(rising, falling))

    m = cfg.mel_filters
    k = np.arange(cfg.num_coeffs)[:, None]
    n = np.arange(m)[None, :]
    dct = math.sqrt(2.0 / m) * np.cos(np.pi * k * (2 * n + 1) / (2.0 * m))
    dct[0] /= math.sqrt(2.0)

    return window.astype(dtype), fbank.astype(dtype), hz_pts[1:-1], dct.astype(dtype)


def mel_filter_centers(cfg: FeatureConfig, sample_rate_hz: int) -> np.ndarray:
    """Center frequency (Hz) of each triangular mel filter."""
    return _plan(cfg, sample_rate_hz)[2].copy()


def _forward(x, sample_rate_hz: int, cfg: FeatureConfig, frames: np.ndarray):
    """The MFCC forward for the (k, n_samples) rows of `x`, in the dtype of `frames`.

    Returns (coeffs, spectrum, raw_energies, energies): the coefficients and
    the intermediates `mfcc_backprop` needs. `frames` is a zeroed work buffer
    of at least k rows of (frame_count, fft_size); only each frame's first
    frame_len samples are written, so the rest stays the FFT's zero padding.
    """
    dtype = frames.dtype.type
    window, fbank, _, dct = _plan(cfg, sample_rate_hz, dtype)
    x = np.asarray(x, dtype=dtype)
    k = len(x)
    hop, count = cfg.hop_len(sample_rate_hz), cfg.frame_count(x.shape[1], sample_rate_hz)
    blocks, used = -(-window.size // hop), (count - 1) * hop + window.size
    # pre-emphasis, y[t] = x[t] - PREEMPHASIS * x[t - 1] and y[0] = x[0], of the
    # samples the frames use, in rows of `hop`: frame t holds rows t .. t+blocks-1
    y = np.empty((k, (count + blocks - 1) * hop), dtype=dtype)
    y[:, 0] = x[:, 0]
    np.multiply(x[:, :used - 1], dtype(-PREEMPHASIS), out=y[:, 1:used])
    y[:, 1:used] += x[:, 1:used]
    y = y.reshape(k, -1, hop)
    # window block j of every frame at once, the mirror of mfcc_backprop's overlap-add
    for j in range(blocks):
        lo, hi = j * hop, min((j + 1) * hop, window.size)
        np.multiply(y[:, j:count + j, :hi - lo], window[lo:hi], out=frames[:k, :, lo:hi])
    spectrum = rfft(frames[:k])
    squares = np.square(spectrum.view(dtype))  # |X|^2 = re^2 + im^2 from (re, im) pairs
    raw_energies = np.add(squares[..., ::2], squares[..., 1::2]) @ fbank.T
    energies = np.maximum(raw_energies, dtype(cfg.log_floor))
    return np.log(energies) @ dct.T, spectrum, raw_energies, energies


def mfcc_from_array(samples, sample_rate_hz: int, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """MFCC matrix (frames x num_coeffs) from a raw sample array."""
    return mfcc_batch(np.asarray(samples, dtype=np.float64)[None, :], sample_rate_hz, cfg)[0]


def mfcc(clip: AudioClip, cfg: FeatureConfig = FeatureConfig()) -> np.ndarray:
    """MFCC matrix for a clip; every value finite, shape fixed by length alone."""
    return mfcc_from_array(clip.samples, clip.sample_rate_hz, cfg)


def mfcc_batch(batch: np.ndarray, sample_rate_hz: int,
               cfg: FeatureConfig = FeatureConfig(), dtype=np.float64) -> np.ndarray:
    """MFCCs for a (count, n_samples) batch, MFCC_CHUNK_ROWS rows at a time.

    A row's coefficients do not depend on the batch it came in: in float64
    they equal `mfcc_from_array` bit for bit. dtype=float32 roughly halves
    the cost; attack inner loops use it, and the coefficients agree with the
    float64 path to single precision.
    """
    count, n_samples = np.shape(batch)
    frames = np.zeros((min(count, MFCC_CHUNK_ROWS), cfg.frame_count(n_samples, sample_rate_hz),
                       cfg.fft_size), dtype=dtype)
    out = np.empty((count, frames.shape[1], cfg.num_coeffs), dtype=dtype)
    for start in range(0, count, MFCC_CHUNK_ROWS):
        chunk = batch[start:start + MFCC_CHUNK_ROWS]
        out[start:start + len(chunk)] = _forward(chunk, sample_rate_hz, cfg, frames)[0]
    return out


def mfcc_with_gradient_cache(samples, sample_rate_hz: int, cfg: FeatureConfig = FeatureConfig(),
                             frames=None):
    """Forward MFCC plus the intermediates needed to backpropagate to the samples;
    `frames` is an optional `_forward` work buffer, for callers that reuse one."""
    x = np.asarray(samples, dtype=np.float64)[None, :]
    if frames is None:
        frames = np.zeros((1, cfg.frame_count(x.shape[1], sample_rate_hz), cfg.fft_size))
    coeffs, spectrum, raw_energies, energies = _forward(x, sample_rate_hz, cfg, frames)
    return coeffs[0], (x.shape[1], sample_rate_hz, cfg, spectrum[0], raw_energies[0], energies[0])


def mfcc_backprop(grad_coeffs: np.ndarray, cache) -> np.ndarray:
    """Gradient of a scalar loss w.r.t. the raw samples, given d(loss)/d(coeffs).
    Leaves the cache unchanged."""
    n_samples, sample_rate_hz, cfg, spectrum, raw_energies, energies = cache
    window, fbank, _, dct = _plan(cfg, sample_rate_hz)
    flen = cfg.frame_len(sample_rate_hz)
    hop = cfg.hop_len(sample_rate_hz)
    m = cfg.fft_size

    grad_log = grad_coeffs @ dct
    grad_energy = np.where(raw_energies > cfg.log_floor, grad_log / energies, 0.0)
    grad_power = grad_energy @ fbank
    # adjoint of the one-sided power spectrum: double the DC/Nyquist bins so
    # m * irfft reproduces 2*Re(conj(X_k) e^{-2pi i kn/m}) for every k
    grad_power[:, 0] *= 2.0
    grad_power[:, -1] *= 2.0
    grad_frames = m * irfft(grad_power * spectrum, m)[:, :flen]
    grad_frames *= window

    # overlap-add over blocks of `hop` samples: frame t covers blocks t .. t+k-1.
    # Adding block j of every frame at once, last block first, sums each sample
    # over its frames in ascending order, bit for bit as a frame-by-frame loop
    count, k = len(grad_frames), -(-flen // hop)
    grad_pre = np.zeros((max(count + k - 1, -(-n_samples // hop)), hop))
    for j in range(k - 1, -1, -1):
        width = min(hop, flen - j * hop)
        grad_pre[j:count + j, :width] += grad_frames[:, j * hop:j * hop + width]
    grad_pre = grad_pre.reshape(-1)[:n_samples]

    # adjoint of the pre-emphasis: grad_x[t] = grad_pre[t] - PREEMPHASIS * grad_pre[t + 1]
    grad_x = np.empty(n_samples)
    grad_x[-1] = grad_pre[-1]
    np.multiply(grad_pre[1:], -PREEMPHASIS, out=grad_x[:-1])
    grad_x[:-1] += grad_pre[:-1]
    return grad_x


def spectrogram_image(clip: AudioClip, fft_size: int, hop: int) -> np.ndarray:
    """Log-magnitude STFT as an 8-bit image: rows are frequency bins, cols frames.

    Normalized to [0, 255] per image; a degenerate (constant) image maps to 0.
    """
    if fft_size <= 0 or hop <= 0:
        raise ValueError("fft_size and hop must be positive")
    x = clip.samples.astype(np.float64)
    if x.size < fft_size:
        raise ValueError(f"clip of {x.size} samples is shorter than fft_size {fft_size}")
    frames = np.lib.stride_tricks.sliding_window_view(x, fft_size)[::hop] * np.hamming(fft_size)
    magnitude = np.abs(rfft(frames, fft_size))
    log_mag = np.log(magnitude + 1e-10).T  # rows = bins, cols = frames
    lo, hi = log_mag.min(), log_mag.max()
    if hi == lo:
        return np.zeros(log_mag.shape, dtype=np.uint8)
    scaled = (log_mag - lo) / (hi - lo) * 255.0
    return np.round(scaled).astype(np.uint8)


def write_pgm(image: np.ndarray, path) -> None:
    """Write an 8-bit grayscale image as binary PGM (P5)."""
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("image must be a 2-D uint8 array")
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())
