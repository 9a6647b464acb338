"""16-bit mono PCM clips: WAV I/O and peak-dB levels."""

import math
import struct
from dataclasses import dataclass

import numpy as np

I16_MIN = -32768
I16_MAX = 32767

# Distinguished db_distortion result for two identical clips.
SILENT_PERTURBATION = float("-inf")


class WavFormatError(ValueError):
    """The file is not a well-formed RIFF/WAVE container."""


class UnsupportedWavError(WavFormatError):
    """Well-formed WAV, but not PCM / 16-bit / mono."""


class SilentCarrierError(ValueError):
    """The carrier signal is all zeros, so relative dB is undefined."""


def _as_sample_array(samples) -> np.ndarray:
    arr = np.asarray(samples)
    if arr.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("samples must be non-empty")
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"samples must be integers, got dtype {arr.dtype}")
    if arr.dtype != np.int16 and (arr.min() < I16_MIN or arr.max() > I16_MAX):
        raise ValueError("samples outside the signed 16-bit range")
    out = arr.astype(np.int16)
    out.flags.writeable = False
    return out


@dataclass(eq=False)
class AudioClip:
    """A mono 16-bit PCM signal with its sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = _as_sample_array(self.samples)
        if int(self.sample_rate_hz) <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        self.sample_rate_hz = int(self.sample_rate_hz)

    def __len__(self) -> int:
        return int(self.samples.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AudioClip):
            return NotImplemented
        return self.sample_rate_hz == other.sample_rate_hz and np.array_equal(
            self.samples, other.samples
        )


def read_wav(path) -> AudioClip:
    """Read a mono 16-bit PCM WAV file.

    Extra chunks before `data` are tolerated; anything that is not PCM,
    16-bit, single-channel raises UnsupportedWavError.
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    if len(raw) < 12 or raw[0:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise WavFormatError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise WavFormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
            break
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")

    format_code, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if format_code != 1:
        raise UnsupportedWavError(f"{path}: format code {format_code}, only PCM (1) supported")
    if bits != 16:
        raise UnsupportedWavError(f"{path}: {bits}-bit samples, only 16-bit supported")
    if channels != 1:
        raise UnsupportedWavError(f"{path}: {channels} channels, only mono supported")
    if len(data) % 2 != 0:
        raise WavFormatError(f"{path}: data chunk has an odd byte count")
    if len(data) == 0:
        raise WavFormatError(f"{path}: empty data chunk")

    samples = np.frombuffer(data, dtype="<i2").astype(np.int16)
    return AudioClip(samples=samples, sample_rate_hz=sample_rate)


def write_wav(clip: AudioClip, path) -> None:
    """Write a clip as canonical RIFF/WAVE: PCM, mono, 16-bit LE, 44-byte header."""
    payload = clip.samples.astype("<i2").tobytes()
    byte_rate = clip.sample_rate_hz * 2
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        clip.sample_rate_hz,
        byte_rate,
        2,  # block align
        16,  # bits per sample
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def relative_peak_db(peak_delta: float, peak_carrier: float) -> float:
    """Peak level of a perturbation relative to its carrier's peak, in dB:
    20*log10(peak_delta) - 20*log10(peak_carrier).

    A silent carrier (peak 0) raises SilentCarrierError, since it leaves the
    ratio undefined; a silent perturbation gives SILENT_PERTURBATION (-inf).
    """
    if peak_carrier == 0:
        raise SilentCarrierError("carrier clip is silent; relative dB undefined")
    if peak_delta == 0:
        return SILENT_PERTURBATION
    return 20.0 * math.log10(peak_delta) - 20.0 * math.log10(peak_carrier)


def peak_amplitude(values: np.ndarray) -> int:
    """Peak magnitude of integer samples or deltas."""
    return int(np.max(np.abs(values.astype(np.int64))))


def db_distortion(original: AudioClip, adversarial: AudioClip) -> float:
    """Loudness of `adversarial - original` relative to the original, in dB of
    peak amplitude.

    Follows `relative_peak_db`: SILENT_PERTURBATION (-inf) for identical clips,
    SilentCarrierError for a silent original.
    """
    if len(original) != len(adversarial):
        raise ValueError(f"length mismatch: original has {len(original)} samples, "
                         f"adversarial {len(adversarial)}")
    deltas = adversarial.samples.astype(np.int32) - original.samples.astype(np.int32)
    return relative_peak_db(peak_amplitude(deltas), peak_amplitude(original.samples))
