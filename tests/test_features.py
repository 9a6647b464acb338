import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import irfft, rfft

from noisegate import features
from noisegate.audio import AudioClip
from noisegate.classifier import (
    HEAR_MARGIN,
    float32_copy,
    pad_or_trim,
    predict_clips,
    predict_samples_batch,
)
from noisegate.features import (
    FFT_SIZE,
    LOG_FLOOR,
    MEL_FILTERS,
    NUM_COEFFS,
    PREEMPHASIS,
    frame_count,
    frame_len,
    hop_len,
    hz_to_mel,
    mel_to_hz,
    mfcc_backprop,
    mfcc_batch,
    mfcc_from_array,
    mfcc_with_gradient_cache,
    _forward,
    _plan,
    _work,
)
from noisegate.transforms import apply_transform, parse_transform

RATE = 16000


def tone(freq, seconds=1.0, amplitude=10000):
    t = np.arange(int(seconds * RATE)) / RATE
    return AudioClip(
        samples=np.round(amplitude * np.sin(2 * np.pi * freq * t)).astype(np.int16),
        sample_rate_hz=RATE,
    )


class TestMfcc:
    def test_one_second_shape(self):
        m = mfcc_from_array(tone(440).samples, RATE)
        assert m.shape == (98, 13)  # (16000 - 400) // 160 + 1 frames

    def test_all_zero_clip_finite_and_uniform(self):
        clip = AudioClip(samples=np.zeros(RATE, dtype=np.int16), sample_rate_hz=RATE)
        m = mfcc_from_array(clip.samples, RATE)
        assert np.isfinite(m).all()
        assert np.allclose(m, m[0])  # every frame identical

    def test_tone_hits_nearest_mel_filter(self):
        window, fbank, _ = _plan(RATE)
        clip = tone(1000)
        x = clip.samples.astype(np.float64)
        y = np.empty_like(x)
        y[0] = x[0]
        y[1:] = x[1:] - 0.97 * x[:-1]
        frames = np.lib.stride_tricks.sliding_window_view(y, 400)[::160] * window
        spectrum = np.fft.rfft(frames, FFT_SIZE)
        energies = ((spectrum.real**2 + spectrum.imag**2) @ fbank.T).mean(axis=0)
        # the filters' peaks sit at equal mel steps strictly inside [0, RATE/2]
        mels = np.linspace(0.0, float(hz_to_mel(RATE / 2.0)), MEL_FILTERS + 2)
        centers = mel_to_hz(mels)[1:-1]
        expected = int(np.argmin(np.abs(centers - 1000.0)))
        assert int(np.argmax(energies)) == expected

    def test_mel_scale_formula(self):
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))
        assert mel_to_hz(hz_to_mel(1234.5)) == pytest.approx(1234.5)

    def test_shape_depends_only_on_length(self):
        a = mfcc_from_array(tone(250, 0.5).samples, RATE)
        b = mfcc_from_array(tone(3750, 0.5, amplitude=31000).samples, RATE)
        assert a.shape == b.shape

    def test_doubling_amplitude_moves_only_c0(self):
        clip = tone(800, 0.3, amplitude=9000)
        doubled = AudioClip(samples=(clip.samples * 2).astype(np.int16),
                            sample_rate_hz=RATE)
        a, b = mfcc_from_array(clip.samples, RATE), mfcc_from_array(doubled.samples, RATE)
        assert not np.allclose(a[:, 0], b[:, 0])
        rel = np.abs(b[:, 1:] - a[:, 1:]) / np.maximum(np.abs(a[:, 1:]), 1e-12)
        assert rel.max() < 1e-6

    def test_too_short_clip_rejected(self):
        clip = AudioClip(samples=np.ones(399, dtype=np.int16), sample_rate_hz=RATE)
        with pytest.raises(ValueError):
            mfcc_from_array(clip.samples, RATE)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_no_nan_inf_on_random_input(self, seed):
        rng = np.random.default_rng(seed)
        clip = AudioClip(samples=rng.integers(-32768, 32768, 500, dtype=np.int16),
                         sample_rate_hz=RATE)
        assert np.isfinite(mfcc_from_array(clip.samples, RATE)).all()

    def test_batch_matches_single(self):
        rng = np.random.default_rng(0)
        batch = rng.integers(-20000, 20000, (3, 4000), dtype=np.int16)
        singles = np.stack([mfcc_from_array(row, RATE) for row in batch])
        assert np.allclose(mfcc_batch(batch, RATE), singles, rtol=1e-10, atol=1e-9)
        approx32 = mfcc_batch(batch, RATE, dtype=np.float32)
        assert np.allclose(approx32, singles, rtol=1e-3, atol=1e-2)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch_rows_are_batch_invariant(self, dtype):
        # 9 rows: not a multiple of the chunk, so rows change chunk and place
        rng = np.random.default_rng(1)
        batch = rng.integers(-20000, 20000, (9, 4000), dtype=np.int16)
        whole = mfcc_batch(batch, RATE, dtype=dtype)
        assert whole.dtype == dtype
        order = rng.permutation(9)
        assert np.array_equal(mfcc_batch(batch[order], RATE, dtype=dtype), whole[order])
        for row, expected in zip(batch, whole):
            assert np.array_equal(mfcc_batch(row[None, :], RATE, dtype=dtype)[0], expected)
            if dtype is np.float64:
                assert np.array_equal(mfcc_from_array(row, RATE), expected)
                assert np.array_equal(mfcc_with_gradient_cache(row, RATE)[0], expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_samples", [400, 401, 559, 560, 4000, 16000, 16123])
    def test_forward_equals_sliding_window_frames(self, dtype, n_samples):
        rng = np.random.default_rng(n_samples)
        # both kinds of buffers: with squares (a gradient cache's) the spectrum comes back
        # as rfft wrote it; without, it is squared in place and None comes back for it
        for squares in (True, False):
            work = _work(3, n_samples, RATE, dtype, squares=squares)
            # two batches through one set of buffers: the first leaves no trace in the second
            for _ in range(2):
                batch = rng.integers(-32768, 32768, (3, n_samples)).astype(np.int16)
                coeffs = np.empty((3, frame_count(n_samples, RATE), NUM_COEFFS), dtype=dtype)
                spectrum, raw_energies, energies = _forward(batch, RATE, work, coeffs)
                assert squares or spectrum is None
                got = [coeffs, raw_energies, energies] + ([spectrum] if squares else [])
                oracle, oracle_spectrum, *oracle_energies = _forward_sliding_window(
                    batch, RATE, dtype)
                want = [oracle, *oracle_energies] + ([oracle_spectrum] if squares else [])
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_samples", [400, 16000, 16123])
    @pytest.mark.parametrize("chunk_rows", [1, 3, 4])
    def test_batch_equals_sliding_window_at_every_chunk_size(self, monkeypatch, dtype,
                                                             n_samples, chunk_rows):
        # 9 rows, so the last chunk is short; twice in a row, so a buffer left stale
        # by a longer chunk or an FFT pad dirtied by an earlier chunk would show
        monkeypatch.setattr(features, "MFCC_CHUNK_ROWS", chunk_rows)
        rng = np.random.default_rng([n_samples, chunk_rows])
        for _ in range(2):
            batch = rng.integers(-32768, 32768, (9, n_samples)).astype(np.int16)
            got = mfcc_batch(batch, RATE, dtype=dtype)
            want = _forward_sliding_window(batch, RATE, dtype)[0]
            assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("rate", [80, 99])
    def test_a_rate_under_100_hz_is_rejected_by_name(self, rate, tiny_model):
        # its 10 ms hop is 0 samples, which the frame count divided by
        assert hop_len(rate) == 0
        message = f"sample rate {rate} Hz has no 10 ms hop: need >= 100 Hz"
        with pytest.raises(ValueError, match=message):
            mfcc_batch(np.ones((2, rate), dtype=np.int16), rate)
        clip = AudioClip(samples=np.ones(rate, dtype=np.int16), sample_rate_hz=rate)
        with pytest.raises(ValueError, match=message):
            predict_clips(tiny_model, [clip])
        # the lowest rate the front end takes: 2-sample frames every sample
        assert mfcc_batch(np.ones((1, 100), dtype=np.int16), 100).shape == (1, 99, NUM_COEFFS)

    def test_config_validation(self):  # the one check the fixed settings need
        assert frame_len(48000) == 1200 > FFT_SIZE
        clip = AudioClip(samples=np.zeros(48000, dtype=np.int16), sample_rate_hz=48000)
        with pytest.raises(ValueError, match="fft_size 512 smaller than frame length 1200"):
            mfcc_from_array(clip.samples, clip.sample_rate_hz)


def _forward_sliding_window(x, sample_rate_hz, dtype):
    """The MFCC forward with strided frames and |X|^2 = re^2 + im^2: the oracle."""
    window, fbank, dct = _plan(sample_rate_hz, dtype)
    x = np.asarray(x, dtype=dtype)
    y = np.empty_like(x)
    y[:, 0] = x[:, 0]
    y[:, 1:] = x[:, 1:] + x[:, :-1] * dtype(-PREEMPHASIS)
    frames = np.zeros((len(x), frame_count(x.shape[1], sample_rate_hz), FFT_SIZE), dtype=dtype)
    frames[:, :, :window.size] = (np.lib.stride_tricks.sliding_window_view(
        y, window.size, axis=1)[:, ::hop_len(sample_rate_hz)] * window)
    spectrum = rfft(frames)
    raw_energies = (spectrum.real**2 + spectrum.imag**2) @ fbank.T
    energies = np.maximum(raw_energies, dtype(LOG_FLOOR))
    return np.log(energies) @ dct.T, spectrum, raw_energies, energies


def test_float32_features_move_no_probability_near_the_hearing_margin(tiny_model, tiny_clips):
    """Lists are screened on float32 features through the float32 model, as one matrix
    product, and only rows whose float32 top two are closer than HEAR_MARGIN are scored
    again in float64; a label can flip unseen only if float32 moves a probability by
    HEAR_MARGIN / 2. Over the corpus clips, plain and after three transforms, it stays
    under a tenth of the margin, on float32 features and through the float32 product."""
    clips = [clip for _, clip in tiny_clips]
    for text in ("gaussian:500", "lowpass:500:101", "requant8"):
        spec = parse_transform(text, seed=3)
        clips += [apply_transform(spec, clip) for _, clip in tiny_clips]
    rows = np.stack([pad_or_trim(clip.samples, RATE) for clip in clips])
    p32 = predict_samples_batch(tiny_model, rows, RATE, dtype=np.float32)
    p64 = predict_samples_batch(tiny_model, rows, RATE)
    screen = predict_samples_batch(float32_copy(tiny_model), rows, RATE, dtype=np.float32)
    assert screen.dtype == np.float32
    assert np.abs(p32 - p64).max() < HEAR_MARGIN / 10
    assert np.abs(screen - p64).max() < HEAR_MARGIN / 10


class TestFeatureGradient:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 400.0, 900)
        feats, cache = mfcc_with_gradient_cache(x, RATE)
        upstream = rng.normal(size=feats.shape)
        grad = mfcc_backprop(upstream, cache)
        eps = 1e-3
        for i in rng.integers(0, x.size, 10):
            xp, xm = x.copy(), x.copy()
            xp[i] += eps
            xm[i] -= eps
            fd = ((mfcc_from_array(xp, RATE) * upstream).sum()
                  - (mfcc_from_array(xm, RATE) * upstream).sum()) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_a_float32_buffer_sets_the_dtype(self):
        rng = np.random.default_rng(6)
        row = rng.integers(-20000, 20000, 4000).astype(np.int16)
        feats, cache = mfcc_with_gradient_cache(row, RATE, np.float32)
        assert np.array_equal(feats, mfcc_batch(row[None, :], RATE, dtype=np.float32)[0])
        grad = mfcc_backprop(rng.normal(size=feats.shape), cache)
        assert feats.dtype == grad.dtype == np.float32 and grad.shape == row.shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_later_batch_leaves_a_gradient_cache_unchanged(self, dtype):
        # mfcc_batch squares its spectrum in place; a cache's spectrum must never be one
        row = np.random.default_rng(7).integers(-32768, 32768, 4000).astype(np.int16)
        feats, cache = mfcc_with_gradient_cache(row, RATE, dtype)
        before = [feats.copy()] + [a.copy() for a in cache[2:]]
        mfcc_batch(np.stack([row] * 5), RATE, dtype=dtype)
        for a, b in zip(before, [feats, *cache[2:]], strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @given(n_samples=st.integers(400, 16200), seed=st.integers(0, 2**32 - 1))
    @example(n_samples=400, seed=0)
    @example(n_samples=401, seed=1)
    @example(n_samples=559, seed=2)
    @example(n_samples=560, seed=3)
    @example(n_samples=16000, seed=4)
    @example(n_samples=16123, seed=5)
    @settings(max_examples=30, deadline=None)
    def test_backprop_equals_frame_loop(self, n_samples, seed):
        rng = np.random.default_rng(seed)
        feats, cache = mfcc_with_gradient_cache(rng.normal(0.0, 3000.0, n_samples), RATE)
        upstream = rng.normal(size=feats.shape)
        arrays = [a.copy() for a in cache[2:]]
        grad = mfcc_backprop(upstream, cache)
        # the backprop leaves the cache as the forward wrote it
        assert all(np.array_equal(a, b) for a, b in zip(cache[2:], arrays))
        assert np.array_equal(grad, _mfcc_backprop_frame_loop(upstream, cache))


def _mfcc_backprop_frame_loop(grad_coeffs, cache):
    """The sample gradient with the overlap-add as a loop over frames: the oracle."""
    n_samples, sample_rate_hz, spectrum, raw_energies, energies = cache
    window, fbank, dct = _plan(sample_rate_hz)
    flen = frame_len(sample_rate_hz)
    hop = hop_len(sample_rate_hz)
    m = FFT_SIZE
    grad_log = grad_coeffs @ dct
    grad_energy = np.where(raw_energies > LOG_FLOOR, grad_log / energies, 0.0)
    c = (grad_energy @ fbank) * spectrum
    c[:, 0] *= 2.0
    c[:, -1] *= 2.0
    grad_frames = m * irfft(c, m)[:, :flen] * window
    grad_pre = np.zeros(n_samples)
    for t in range(grad_frames.shape[0]):
        grad_pre[t * hop : t * hop + flen] += grad_frames[t]
    grad_x = np.empty(n_samples)
    grad_x[-1] = grad_pre[-1]
    grad_x[:-1] = grad_pre[:-1] - PREEMPHASIS * grad_pre[1:]
    return grad_x

