import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.audio import (
    SILENT_PERTURBATION,
    AudioClip,
    SilentCarrierError,
    UnsupportedWavError,
    WavFormatError,
    db_distortion,
    read_wav,
    write_wav,
)

from helpers import clip_of


sample_arrays = st.lists(
    st.integers(min_value=-32768, max_value=32767), min_size=1, max_size=400
)


class TestClipTypes:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            clip_of([])

    def test_rejects_out_of_range(self):
        for dtype in (np.int32, np.int64):
            for value in (40000, 32768, -32769):
                with pytest.raises(ValueError, match="16-bit"):
                    AudioClip(samples=np.array([0, value], dtype=dtype), sample_rate_hz=16000)
            edges = AudioClip(samples=np.array([-32768, 32767], dtype=dtype), sample_rate_hz=16000)
            assert edges.samples.dtype == np.int16 and edges.samples.tolist() == [-32768, 32767]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rejects_float(self, dtype):
        with pytest.raises(ValueError, match="integers"):
            AudioClip(samples=np.array([0.0, 1.0], dtype=dtype), sample_rate_hz=16000)

    def test_int16_samples_are_a_read_only_copy(self):
        caller = np.array([-32768, 0, 32767], dtype=np.int16)
        clip = AudioClip(samples=caller, sample_rate_hz=16000)
        assert not np.shares_memory(clip.samples, caller)
        assert not clip.samples.flags.writeable
        with pytest.raises(ValueError):
            clip.samples[0] = 1
        assert caller.flags.writeable and caller.tolist() == [-32768, 0, 32767]
        caller[0] = 5
        assert clip.samples.tolist() == [-32768, 0, 32767]

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            clip_of([0], rate=0)

    def test_equality_is_by_value(self):
        assert clip_of([1, 2, 3]) == clip_of([1, 2, 3])
        assert clip_of([1, 2, 3]) != clip_of([1, 2, 4])


class TestWavRoundtrip:
    @given(values=sample_arrays, rate=st.sampled_from([8000, 16000, 44100]))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_identity(self, tmp_path_factory, values, rate):
        path = tmp_path_factory.mktemp("wav") / "clip.wav"
        clip = clip_of(values, rate)
        write_wav(clip, path)
        assert read_wav(path) == clip

    def test_one_second_file_layout(self, tmp_path):
        clip = clip_of([100] * 16000)
        path = tmp_path / "one_second.wav"
        write_wav(clip, path)
        raw = path.read_bytes()
        assert len(raw) == 44 + 32000  # 2 bytes per sample after the header
        (data_size,) = struct.unpack_from("<I", raw, 40)
        assert data_size == 32000
        assert len(read_wav(path)) == 16000

    def test_zero_clip_header_size(self, tmp_path):
        path = tmp_path / "zeros.wav"
        write_wav(clip_of([0] * 100), path)
        assert len(path.read_bytes()) == 44 + 200

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError):
            write_wav(clip_of([1]), tmp_path / "no" / "such" / "dir.wav")


def _wav_bytes(format_code=1, channels=1, bits=16, n_samples=4, rate=16000):
    payload = b"\x01\x00" * n_samples
    fmt = struct.pack("<HHIIHH", format_code, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    return (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(payload)) + payload)


class TestWavErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_24_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.wav"
        path.write_bytes(_wav_bytes(bits=24))
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        path.write_bytes(_wav_bytes(channels=2))
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "float.wav"
        path.write_bytes(_wav_bytes(format_code=3))
        with pytest.raises(UnsupportedWavError):
            read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "cut.wav"
        path.write_bytes(_wav_bytes()[:-3])
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_extra_chunk_before_data_tolerated(self, tmp_path):
        raw = _wav_bytes()
        head, data = raw[:36], raw[36:]
        listed = head + b"LIST" + struct.pack("<I", 4) + b"INFO" + data
        path = tmp_path / "extra.wav"
        path.write_bytes(listed)
        assert len(read_wav(path)) == 4


class TestDbDistortion:
    def test_equal_signals_zero_db(self):
        # the adversarial clip is twice the original, so the delta equals it
        assert db_distortion(clip_of([100, -200, 300]), clip_of([200, -400, 600])) == \
            pytest.approx(0.0)

    def test_tenth_peak_is_minus_20db(self):
        assert db_distortion(clip_of([10000, -3000]), clip_of([11000, -3500])) == \
            pytest.approx(-20.0)

    def test_silent_perturbation_marker(self):
        clip = clip_of([100])
        assert db_distortion(clip, clip) == SILENT_PERTURBATION

    def test_silent_carrier_errors(self):
        with pytest.raises(SilentCarrierError):
            db_distortion(clip_of([0, 0]), clip_of([1, 2]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            db_distortion(clip_of([1, 2]), clip_of([1]))

    @given(st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_scaled_copy_tracks_20log10(self, k):
        # base + k * base stays inside 16 bits for every k <= 1
        base = np.array([15500, -13500, 7500], dtype=np.int16)
        deltas = np.round(k * base.astype(np.float64)).astype(np.int16)
        if np.max(np.abs(deltas)) == 0:
            return
        got = db_distortion(AudioClip(samples=base, sample_rate_hz=16000),
                            AudioClip(samples=base + deltas, sample_rate_hz=16000))
        assert got == pytest.approx(20.0 * math.log10(k), abs=0.1)
