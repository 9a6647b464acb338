"""MFCC features for the classifier.

Pipeline: pre-emphasis (PREEMPHASIS) -> FRAME_MS frames every HOP_MS ->
Hamming window -> FFT_SIZE-point power spectrum -> MEL_FILTERS triangular mel
filters (HTK scale) -> log floored at LOG_FLOOR -> DCT-II, first NUM_COEFFS
coefficients. The settings are fixed: every model hears through this one front end.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.fft import irfft, rfft  # pocketfft, much faster than numpy's on float32 batches

PREEMPHASIS = 0.97
FRAME_MS, HOP_MS, FFT_SIZE, MEL_FILTERS, NUM_COEFFS, LOG_FLOOR = 25, 10, 512, 40, 13, 1e-10

# Rows per mfcc_batch pass. One pass over a whole 49-row population spends
# its extra time on large buffers (frames, spectrum), not on FFT work.
# Measured on a 2-vCPU Xeon (2 MiB L2 per core) with one core and one BLAS
# thread, 49 one-second int16 rows, medians of 30 interleaved rounds of 4 calls:
# float32 one pass 9.0 ms, chunks of 4 rows 8.0 ms; float64 one pass 21.6 ms,
# chunks of 4 rows 13.8 ms. Chunks of 1, 2 and 8 rows came within 6% of 4,
# and none beat 4 in both dtypes in each of three such runs.
MFCC_CHUNK_ROWS = 4


def frame_len(sample_rate_hz: int) -> int:
    return sample_rate_hz * FRAME_MS // 1000


def hop_len(sample_rate_hz: int) -> int:
    return sample_rate_hz * HOP_MS // 1000


def frame_count(n_samples: int, sample_rate_hz: int) -> int:
    flen, hop = frame_len(sample_rate_hz), hop_len(sample_rate_hz)
    if hop < 1:
        raise ValueError(f"sample rate {sample_rate_hz} Hz has no {HOP_MS} ms hop: need >= 100 Hz")
    if flen > FFT_SIZE:  # the top rate is the last whose frame fits the FFT
        raise ValueError(f"sample rate {sample_rate_hz} Hz has a {FRAME_MS} ms frame over the "
                         f"{FFT_SIZE}-point FFT: need <= {(FFT_SIZE * 1000 + 999) // FRAME_MS} Hz")
    if n_samples < flen:
        raise ValueError(f"clip of {n_samples} samples is shorter than one frame ({flen})")
    return (n_samples - flen) // hop + 1


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=8)
def _plan(sample_rate_hz: int, dtype=np.float64):
    """Precomputed window, mel filterbank and DCT matrix.

    The window, filterbank and DCT are built in float64 and cast to `dtype`.
    """
    window = np.hamming(frame_len(sample_rate_hz))

    n_bins = FFT_SIZE // 2 + 1
    bin_hz = np.arange(n_bins) * sample_rate_hz / FFT_SIZE
    mel_pts = np.linspace(0.0, float(hz_to_mel(sample_rate_hz / 2.0)), MEL_FILTERS + 2)
    hz_pts = mel_to_hz(mel_pts)
    fbank = np.zeros((MEL_FILTERS, n_bins))
    for j in range(MEL_FILTERS):
        left, center, right = hz_pts[j], hz_pts[j + 1], hz_pts[j + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        fbank[j] = np.maximum(0.0, np.minimum(rising, falling))

    m = MEL_FILTERS
    k = np.arange(NUM_COEFFS)[:, None]
    n = np.arange(m)[None, :]
    dct = math.sqrt(2.0 / m) * np.cos(np.pi * k * (2 * n + 1) / (2.0 * m))
    dct[0] /= math.sqrt(2.0)

    return window.astype(dtype), fbank.astype(dtype), dct.astype(dtype)


def _work(rows, n_samples, sample_rate_hz, dtype, squares=False):
    """`_forward`'s buffers for up to `rows` rows: frames zeroed so their tails stay the
    FFT's zero padding, one pre-emphasised row per clip (framed by one strided view),
    power, the mel energies, floored energies and logs in one block (three made peak RSS
    layout-bound), and squares only for a gradient cache, whose spectrum must survive."""
    count, bins = frame_count(n_samples, sample_rate_hz), FFT_SIZE // 2 + 1
    used = (count - 1) * hop_len(sample_rate_hz) + frame_len(sample_rate_hz)
    frames = np.zeros((rows, count, FFT_SIZE), dtype=dtype)
    y, power = np.empty((rows, used), dtype=dtype), np.empty((rows, count, bins), dtype=dtype)
    extra = [np.empty((rows, count, 2 * bins), dtype=dtype)] if squares else []
    return (frames, y, power, *np.empty((3, rows, count, MEL_FILTERS), dtype=dtype), *extra)


def _forward(x, sample_rate_hz: int, work, out):
    """The MFCC forward for the (k, n_samples) rows of `x`, in the dtype of `work`.

    Writes the coefficients into `out`, k rows of (frame_count, NUM_COEFFS), and
    returns (spectrum, raw_energies, energies), the intermediates `mfcc_backprop`
    needs; the last two are views into `work`, from `_work` for at least k rows. Without
    squares in `work` the spectrum is squared in place, and None is returned for it.
    """
    frames, y, power, raw_energies, energies, logs, *squares = (a[:len(x)] for a in work)
    dtype = frames.dtype.type
    window, fbank, dct = _plan(sample_rate_hz, dtype)
    count, hop, step = frames.shape[1], hop_len(sample_rate_hz), y.strides[1]
    # pre-emphasis, y[t] = x[t] - PREEMPHASIS * x[t - 1] and y[0] = x[0], of the samples
    # the frames use. The ufuncs cast x to `dtype` first, as an astype would
    y[:, 0] = x[:, 0]
    np.multiply(x[:, :y.shape[1] - 1], dtype(-PREEMPHASIS), out=y[:, 1:], dtype=dtype)
    np.add(y[:, 1:], x[:, 1:y.shape[1]], out=y[:, 1:], dtype=dtype)
    # every windowed frame in one pass: frame t is the window.size samples from t * hop
    strided = np.lib.stride_tricks.as_strided(
        y, (len(x), count, window.size), (y.strides[0], hop * step, step), writeable=False)
    np.multiply(strided, window, out=frames[:, :, :window.size])
    spectrum = rfft(frames)
    # |X|^2 = re^2 + im^2 from (re, im) pairs, in place unless a backward reads the spectrum
    pairs = np.square(spectrum.view(dtype), out=squares[0] if squares else spectrum.view(dtype))
    np.add(pairs[..., ::2], pairs[..., 1::2], out=power)
    np.matmul(power, fbank.T, out=raw_energies)
    np.maximum(raw_energies, dtype(LOG_FLOOR), out=energies)
    np.matmul(np.log(energies, out=logs), dct.T, out=out)
    return spectrum if squares else None, raw_energies, energies


def mfcc_from_array(samples, sample_rate_hz: int) -> np.ndarray:
    """MFCC matrix (frames x NUM_COEFFS) from a raw sample array."""
    return mfcc_batch(np.asarray(samples, dtype=np.float64)[None, :], sample_rate_hz)[0]


def mfcc_batch(batch: np.ndarray, sample_rate_hz: int, dtype=np.float64) -> np.ndarray:
    """MFCCs for a (count, n_samples) batch, MFCC_CHUNK_ROWS rows at a time.

    A row's coefficients do not depend on the batch it came in: in float64
    they equal `mfcc_from_array` bit for bit, and one set of `_forward` buffers
    serves every chunk. dtype=float32 takes about 0.58 of the time; attack inner
    loops use it, and the coefficients agree with the float64 path to single precision.
    """
    batch = np.asarray(batch)
    work = _work(min(len(batch), MFCC_CHUNK_ROWS), batch.shape[1], sample_rate_hz, dtype)
    out = np.empty((len(batch), work[0].shape[1], NUM_COEFFS), dtype=dtype)
    for start in range(0, len(batch), MFCC_CHUNK_ROWS):
        chunk = batch[start:start + MFCC_CHUNK_ROWS]
        _forward(chunk, sample_rate_hz, work, out[start:start + len(chunk)])
    return out


def mfcc_with_gradient_cache(samples, sample_rate_hz: int, dtype=np.float64):
    """Forward MFCC plus the intermediates needed to backpropagate to the samples, in
    buffers of the call's own; `dtype` is the dtype of the coefficients and of the cache."""
    x = samples[None, :]  # `_forward`'s ufuncs cast the samples to `dtype`
    work = _work(1, x.shape[1], sample_rate_hz, dtype, squares=True)
    coeffs = np.empty((1, work[0].shape[1], NUM_COEFFS), dtype=dtype)
    spectrum, raw_energies, energies = _forward(x, sample_rate_hz, work, coeffs)
    return coeffs[0], (x.shape[1], sample_rate_hz, spectrum[0], raw_energies[0], energies[0])


def mfcc_backprop(grad_coeffs: np.ndarray, cache) -> np.ndarray:
    """Gradient of a scalar loss w.r.t. the raw samples, given d(loss)/d(coeffs), in
    the dtype of the cache's forward. Leaves the cache unchanged."""
    n_samples, sample_rate_hz, spectrum, raw_energies, energies = cache
    dtype = energies.dtype
    window, fbank, dct = _plan(sample_rate_hz, dtype.type)
    flen, hop, m = frame_len(sample_rate_hz), hop_len(sample_rate_hz), FFT_SIZE

    grad_log = grad_coeffs.astype(dtype, copy=False) @ dct
    grad_energy = np.where(raw_energies > LOG_FLOOR, grad_log / energies, 0.0)
    grad_power = grad_energy @ fbank
    # adjoint of the one-sided power spectrum: double the DC/Nyquist bins so the
    # unscaled irfft reproduces 2*Re(conj(X_k) e^{-2pi i kn/m}) for every k
    grad_power[:, 0] *= 2.0
    grad_power[:, -1] *= 2.0
    grad_frames = irfft(grad_power * spectrum, m, norm="forward")[:, :flen]
    grad_frames *= window

    # overlap-add over blocks of `hop` samples: frame t covers blocks t .. t+k-1.
    # Adding block j of every frame at once, last block first, sums each sample
    # over its frames in ascending order, bit for bit as a frame-by-frame loop
    count, k = len(grad_frames), -(-flen // hop)
    grad_pre = np.zeros((max(count + k - 1, -(-n_samples // hop)), hop), dtype=dtype)
    for j in range(k - 1, -1, -1):
        width = min(hop, flen - j * hop)
        grad_pre[j:count + j, :width] += grad_frames[:, j * hop:j * hop + width]
    grad_pre = grad_pre.reshape(-1)[:n_samples]

    # adjoint of the pre-emphasis: grad_x[t] = grad_pre[t] - PREEMPHASIS * grad_pre[t + 1]
    grad_x = np.empty(n_samples, dtype=dtype)
    grad_x[-1] = grad_pre[-1]
    np.multiply(grad_pre[1:], -PREEMPHASIS, out=grad_x[:-1])
    grad_x[:-1] += grad_pre[:-1]
    return grad_x

