import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate import transforms
from noisegate.audio import I16_MAX, I16_MIN, AudioClip
from noisegate.experiments import DEFAULT_GRID
from noisegate.transforms import (
    TransformSpec,
    add_noise,
    apply_transform,
    down_up_sample,
    low_pass,
    median_smooth,
    parse_transform,
    quantize,
    requantize_8bit,
    silence_removal,
)

RATE = 16000


def clip_of(values, rate=RATE):
    return AudioClip(samples=np.array(values, dtype=np.int16), sample_rate_hz=rate)


def tone(freq, seconds=1.0, amplitude=10000, rate=RATE):
    t = np.arange(int(seconds * rate)) / rate
    return AudioClip(
        samples=np.round(amplitude * np.sin(2 * np.pi * freq * t)).astype(np.int16),
        sample_rate_hz=rate,
    )


def rms(clip):
    return float(np.sqrt(np.mean(clip.samples.astype(np.float64) ** 2)))


def _add_noise_oracle(clip, spec):
    """add_noise as it was before it added the samples into the draw in place: the oracle."""
    (intensity,) = spec.params
    if intensity == 0:
        return clip
    rng = np.random.default_rng(spec.seed)
    n = len(clip)
    if spec.kind == "uniform":
        deltas = rng.integers(-intensity, intensity + 1, size=n, dtype=np.int32)
        noisy = clip.samples.astype(np.int32) + deltas
    else:
        noisy = np.round(rng.normal(0.0, float(intensity), size=n))
        noisy += clip.samples
    out = np.clip(noisy, I16_MIN, I16_MAX, out=noisy).astype(np.int16)
    return AudioClip(samples=out, sample_rate_hz=clip.sample_rate_hz)


class TestAddNoise:
    def test_zero_intensity_is_identity(self):
        clip = tone(440, 0.1)
        assert add_noise(clip, TransformSpec("uniform", (0,), seed=1)) == clip
        assert add_noise(clip, TransformSpec("gaussian", (0,), seed=1)) == clip

    def test_deterministic_per_spec(self):
        clip = tone(200, 0.2)
        spec = TransformSpec("gaussian", (70,), seed=42)
        assert add_noise(clip, spec) == add_noise(clip, spec)
        other = add_noise(clip, TransformSpec("gaussian", (70,), seed=43))
        assert other != add_noise(clip, spec)

    def test_uniform_bounded(self):
        clip = clip_of([0] * 5000)
        out = add_noise(clip, TransformSpec("uniform", (30,), seed=9))
        deltas = out.samples.astype(int)
        assert np.abs(deltas).max() <= 30
        assert deltas.max() > 0 and deltas.min() < 0

    def test_saturation_at_peak(self):
        clip = clip_of([32767] * 2000)
        out = add_noise(clip, TransformSpec("uniform", (500,), seed=3))
        assert out.samples.max() == 32767

    def test_gaussian_monte_carlo_moments(self):
        # mean within +-1 and std within 2% of intensity at one million draws
        clip = clip_of([0] * 1_000_000)
        out = add_noise(clip, TransformSpec("gaussian", (100,), seed=11))
        deltas = out.samples.astype(np.float64)
        assert abs(deltas.mean()) < 1.0
        assert abs(deltas.std() - 100.0) / 100.0 < 0.02

    @settings(max_examples=60, deadline=None)
    @given(samples=st.lists(st.integers(I16_MIN, I16_MAX), min_size=1, max_size=3000),
           intensity=st.one_of(st.sampled_from([0, 1, I16_MAX]), st.integers(0, I16_MAX)),
           seed=st.integers(0, 2**63 - 1))
    def test_gaussian_matches_the_int32_formula(self, samples, intensity, seed):
        # the int32 formula add_noise used before it summed in float64, kept as the oracle
        clip = clip_of(samples)
        spec = TransformSpec("gaussian", (intensity,), seed=seed)
        if intensity == 0:
            want = clip.samples
        else:
            rng = np.random.default_rng(seed)
            deltas = np.round(rng.normal(0.0, float(intensity), size=len(clip))).astype(np.int32)
            want = np.clip(clip.samples.astype(np.int32) + deltas, I16_MIN, I16_MAX
                           ).astype(np.int16)
        out = add_noise(clip, spec).samples
        assert out.dtype == np.int16 and out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("intensity", [1, 10, 30, 50, 70, 100, 200, 500, I16_MAX])
    def test_gaussian_draw_is_the_normal_draw(self, intensity):
        # rng.normal(0, I, n) is 0 + I * z over the standard normal draws z that
        # add_noise scales; the two can differ only in the sign of a zero
        n = 16000
        clip = clip_of(np.zeros(n, dtype=np.int16))
        for seed in range(20):
            want = np.round(np.random.default_rng(seed).normal(0.0, float(intensity), n))
            want = np.clip(want, I16_MIN, I16_MAX).astype(np.int16)
            out = add_noise(clip, TransformSpec("gaussian", (intensity,), seed=seed)).samples
            assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["uniform", "gaussian"])
    @pytest.mark.parametrize("intensity", [1, 200, I16_MAX])
    def test_matches_the_copying_oracle(self, kind, intensity):
        # both rails, then a ramp: draws saturate each way, and the clip stays untouched
        samples = np.concatenate([np.full(700, I16_MIN), np.full(700, I16_MAX),
                                  np.arange(-3000, 3000, 3)]).astype(np.int16)
        clip = clip_of(samples)
        for seed in (0, 5, 2**63 - 1):
            spec = TransformSpec(kind, (intensity,), seed=seed)
            out = add_noise(clip, spec).samples
            want = _add_noise_oracle(clip, spec).samples
            assert out.dtype == np.int16 and out.tobytes() == want.tobytes()
            assert (out == I16_MIN).any() and (out == I16_MAX).any()
        assert clip.samples.tobytes() == samples.tobytes()

    def test_shared_unit_draws_keep_every_byte(self):
        # one read-only draw per (kind, seed, length), in the caller's mapping, serves
        # every intensity of that kind: the gaussian unit draw and the uniform raw stream.
        # When a caller keeps one is `hear_rows`' rule (tests/test_detection.py)
        clip, short = tone(440, 0.1), tone(440, 0.05)
        units = {}
        for intensity in (1, 70, 500, I16_MAX):
            for c in (clip, short):
                for kind in ("uniform", "gaussian"):
                    spec = TransformSpec(kind, (intensity,), seed=3)
                    assert add_noise(c, spec, units) == _add_noise_oracle(c, spec)
                    assert apply_transform(spec, c, units) == _add_noise_oracle(c, spec)
        assert sorted(units) == [(kind, 3, n) for kind in ("gaussian", "uniform")
                                 for n in (len(short), len(clip))]
        assert not any(z.flags.writeable for z in units.values())
        assert [len(units["uniform", 3, n]) for n in (len(short), len(clip))] == [
            len(short) + transforms.UNIFORM_SPARE, len(clip) + transforms.UNIFORM_SPARE]

    @pytest.mark.parametrize("spare", [transforms.UNIFORM_SPARE, 0])
    def test_uniform_rebuild_is_numpys_bounded_draw(self, monkeypatch, spare):
        # numpy's `integers` skips a raw value now and then (Lemire's rejection); seed 343
        # does so at intensity 500 within the first 4000 values. With no spare values, each
        # skip runs the stream out, and it is drawn again, longer
        monkeypatch.setattr(transforms, "UNIFORM_SPARE", spare)
        n, skipped, redrawn = 4000, [], []
        clip = clip_of(np.arange(n) % 2001 - 1000)
        for seed in range(400):
            units = {}
            for intensity in (*DEFAULT_GRID, I16_MAX):
                spec = TransformSpec("uniform", (intensity,), seed=seed)
                assert add_noise(clip, spec, units) == _add_noise_oracle(clip, spec)
                # the stream mapped with no value skipped is not numpy's draw
                r, raw = 2 * intensity + 1, units["uniform", seed, n][:n].astype(np.uint64)
                want = np.random.default_rng(seed).integers(-intensity, intensity + 1, n,
                                                            dtype=np.int32)
                if not np.array_equal((raw * r >> 32).astype(np.int64) - intensity, want):
                    skipped.append((seed, intensity))
            if len(units["uniform", seed, n]) > n + spare:
                redrawn.append(seed)
        assert skipped == [(343, 500)]
        assert (redrawn == [343] if spare == 0 else not redrawn)

    def test_bad_kind_and_intensity(self):
        with pytest.raises(ValueError):
            TransformSpec("pink", (10,))
        with pytest.raises(ValueError):
            TransformSpec("uniform", (-1,))
        with pytest.raises(ValueError):
            TransformSpec("uniform", (40000,))
        with pytest.raises(ValueError, match=r"gaussian intensity must be in \[0, 32767\]"):
            TransformSpec("gaussian", (40000,))

    @pytest.mark.parametrize("text", ["requant8", "quant:256", "lowpass:4000"])
    def test_other_kinds_rejected(self, text):
        # a spec of another kind would otherwise be heard as gaussian noise
        with pytest.raises(ValueError, match="add_noise takes a noise kind"):
            add_noise(tone(440, 0.05), parse_transform(text))


class TestRequantize8Bit:
    @pytest.mark.parametrize("value,expected", [
        (0, 0),
        (255, (255 >> 8) << 8),
        (256, 256),
        (-1, (-1 >> 8) << 8),
        (-300, (-300 >> 8) << 8),
        (32767, 32512),
    ])
    def test_bit_level_oracle(self, value, expected):
        out = requantize_8bit(clip_of([value]))
        assert out.samples[0] == expected

    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values):
        once = requantize_8bit(clip_of(values))
        assert requantize_8bit(once) == once


class TestLowPass:
    def test_dc_passthrough(self):
        clip = clip_of([1000] * 4000)
        out = low_pass(clip, 4000, 101)
        middle = out.samples[200:-200]
        assert np.all(np.abs(middle.astype(int) - 1000) <= 10)

    def test_stop_band_tone_attenuated(self):
        out = low_pass(tone(7000), 4000, 101)
        assert rms(out) < 0.05 * rms(tone(7000))

    def test_pass_band_tone_survives(self):
        original = tone(500)
        out = low_pass(original, 4000, 101)
        assert abs(rms(out) - rms(original)) / rms(original) < 0.10

    def test_invalid_parameters(self):
        clip = tone(440, 0.05)
        with pytest.raises(ValueError):
            low_pass(clip, 0, 101)
        with pytest.raises(ValueError):
            low_pass(clip, 9000, 101)  # above Nyquist
        with pytest.raises(ValueError):
            low_pass(clip, 4000, 100)  # even taps


class TestSilenceRemoval:
    def test_loud_clip_unchanged(self):
        clip = tone(300, 0.5, amplitude=12000)
        assert silence_removal(clip, 328) == clip

    def test_all_zero_returns_single_frame(self):
        clip = clip_of([0] * RATE)
        out = silence_removal(clip, 328)
        assert len(out) == RATE * 20 // 1000

    def test_tone_plus_silence_halves(self):
        loud = tone(400, 1.0, amplitude=8000).samples
        quiet = np.zeros(RATE, dtype=np.int16)
        clip = AudioClip(samples=np.concatenate([loud, quiet]), sample_rate_hz=RATE)
        out = silence_removal(clip, 328)
        frame = RATE * 20 // 1000
        assert abs(len(out) - RATE) <= frame

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            silence_removal(tone(300, 0.05), -1)

    @settings(max_examples=80, deadline=None)
    @given(samples=st.lists(st.integers(I16_MIN, I16_MAX), min_size=1, max_size=1500),
           rate=st.sampled_from([50, 8000, 16000, 44100]),
           threshold=st.one_of(st.integers(0, 40000), st.floats(0, 40000)))
    def test_matches_the_frame_loop(self, samples, rate, threshold):
        # the frame-by-frame loop silence_removal used before, kept as the oracle
        clip = clip_of(samples, rate)
        frame_len = max(1, rate * 20 // 1000)
        bounds = [(s, min(s + frame_len, len(clip))) for s in range(0, len(clip), frame_len)]
        means = [np.abs(clip.samples[a:b].astype(np.int32)).mean() for a, b in bounds]
        kept = [clip.samples[a:b] for (a, b), m in zip(bounds, means) if m >= threshold]
        if not kept:
            a, b = bounds[int(np.argmax(means))]
            kept = [clip.samples[a:b]]
        out = silence_removal(clip, threshold)
        assert out.sample_rate_hz == rate
        assert out.samples.dtype == np.int16
        assert out.samples.tobytes() == np.concatenate(kept).tobytes()


class TestDownUpSample:
    def test_constant_survives(self):
        clip = clip_of([1200] * 2000)
        out = down_up_sample(clip, 2)
        assert np.all(np.abs(out.samples.astype(int) - 1200) <= 1)

    def test_length_preserved(self):
        clip = tone(150, 0.7)
        assert len(down_up_sample(clip, 2)) == len(clip)
        assert len(down_up_sample(clip, 4)) == len(clip)

    def test_low_tone_correlates(self):
        clip = tone(100)
        out = down_up_sample(clip, 2)
        a = clip.samples.astype(np.float64)
        b = out.samples.astype(np.float64)
        corr = np.corrcoef(a, b)[0, 1]
        assert corr >= 0.99

    def test_factor_validation(self):
        with pytest.raises(ValueError):
            down_up_sample(tone(100, 0.05), 1)


class TestMedianSmooth:
    def test_constant_fixed_point(self):
        clip = clip_of([77] * 500)
        assert median_smooth(clip, 5) == clip

    def test_spike_removed(self):
        clip = clip_of([0, 0, 0, 30000, 0, 0, 0])
        out = median_smooth(clip, 3)
        assert out.samples[3] == 0

    def test_hand_case(self):
        out = median_smooth(clip_of([1, 2, 9, 2, 1]), 3)
        assert list(out.samples) == [1, 2, 2, 2, 1]

    def test_window_validation(self):
        with pytest.raises(ValueError):
            median_smooth(clip_of([1, 2, 3]), 4)
        with pytest.raises(ValueError):
            median_smooth(clip_of([1, 2, 3]), 1)


class TestQuantize:
    @pytest.mark.parametrize("value,step,expected", [
        (129, 256, 256),
        (128, 256, 256),   # tie goes away from zero
        (-100, 256, 0),
        (-128, 256, -256),
        (-129, 256, -256),
        (127, 256, 0),
        (32767, 256, 32767),  # nearest multiple saturates back into range
        (300, 512, 512),
    ])
    def test_nearest_multiple(self, value, step, expected):
        assert quantize(clip_of([value]), step).samples[0] == expected

    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=50),
           st.sampled_from([2, 256, 512]))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, values, step):
        once = quantize(clip_of(values), step)
        assert quantize(once, step) == once

    def test_step_validation(self):
        with pytest.raises(ValueError):
            quantize(clip_of([1]), 0)


class TestSpecAndDispatch:
    def test_parse_round_trip(self):
        for text in ("uniform:50", "gaussian:200", "requant8", "lowpass:4000:101",
                     "silence:328", "downup:2", "median:3", "quant:256"):
            assert parse_transform(text).label == text

    @pytest.mark.parametrize("text", [
        "reverb:3", "gaussian:many",
        # each kind's parameter rule
        "uniform:-1", "gaussian:40000", "lowpass:0", "lowpass:4000:100", "silence:-1",
        "downup:1", "median:4", "quant:0",
        # each kind's arity
        "uniform", "gaussian:1:2", "requant8:1", "lowpass", "lowpass:4000:101:1",
        "silence:1:2", "downup:2:2", "median:3:3", "quant",
    ])
    def test_parse_rejects_unknown_and_bad_params(self, text):
        with pytest.raises(ValueError):
            parse_transform(text)

    @pytest.mark.parametrize("text, message", [
        ("gaussian", r"gaussian takes 1\.\.1 parameters \(intensity\), got \(\)"),
        ("lowpass:1:3:5", r"lowpass takes 1\.\.2 parameters \(cutoff, taps\)"),
        ("uniform:-1", r"uniform intensity must be in \[0, 32767\], got -1"),
        ("median:4", r"median window must be odd and >= 3, got 4"),
    ])
    def test_parse_errors_name_the_parameter(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_transform(text)

    @pytest.mark.parametrize("text, operation", [
        ("uniform:40", "add_noise"), ("gaussian:40", "add_noise"),
        ("requant8", "requantize_8bit"), ("lowpass:4000:31", "low_pass"),
        ("silence:328", "silence_removal"), ("downup:2", "down_up_sample"),
        ("median:3", "median_smooth"), ("quant:256", "quantize"),
    ])
    def test_dispatch_calls_the_module_attribute_once(self, monkeypatch, text, operation):
        # a wrapper set on the module attribute must see the call, as the tracer's does
        original = getattr(transforms, operation)
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(transforms, operation, counted)
        clip = tone(730, 0.1)
        out = apply_transform(parse_transform(text, seed=3), clip)
        assert len(calls) == 1 and calls[0][0] is clip
        assert out == original(*calls[0])

    def test_gaussian_zero_is_identity(self):
        clip = tone(220, 0.1)
        assert apply_transform(parse_transform("gaussian:0"), clip) == clip

    def test_requant_twice_same_as_once(self):
        clip = tone(350, 0.1)
        once = apply_transform(parse_transform("requant8"), clip)
        assert apply_transform(parse_transform("requant8"), once) == once

    def test_quantize_already_quantized_unchanged(self):
        clip = tone(350, 0.1)
        once = apply_transform(parse_transform("quant:256"), clip)
        assert apply_transform(parse_transform("quant:256"), once) == once

    def test_dispatch_deterministic_given_seed(self):
        clip = tone(500, 0.2)
        spec = TransformSpec(kind="uniform", params=(60,), seed=5)
        assert apply_transform(spec, clip) == apply_transform(spec, clip)

    @pytest.mark.parametrize("text", ["uniform:40", "gaussian:40", "requant8",
                                      "lowpass:4000:31", "downup:2", "median:3",
                                      "quant:256"])
    def test_length_preserved_except_silence(self, text):
        clip = tone(730, 0.3)
        out = apply_transform(parse_transform(text, seed=2), clip)
        assert len(out) == len(clip)

    @pytest.mark.parametrize("text", ["uniform:500", "gaussian:500", "requant8",
                                      "lowpass:4000:31", "silence:328", "downup:2",
                                      "median:3", "quant:512"])
    def test_outputs_stay_16_bit(self, text):
        clip = clip_of([32767, -32768] * 800)
        out = apply_transform(parse_transform(text, seed=4), clip)
        assert out.samples.dtype == np.int16
