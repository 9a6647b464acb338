"""Uniform recognizer interface over the built-in classifier, external ASR
tools, and transcript caches."""

import hashlib
import json
import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass

from noisegate import classifier as clf
from noisegate.audio import AudioClip, write_wav


class RecognizerError(RuntimeError):
    pass


class ExternalCommandError(RecognizerError):
    """The external recognizer exited non-zero."""


class ExternalTimeoutError(RecognizerError):
    """The external recognizer exceeded its timeout."""


class CacheMissError(RecognizerError, KeyError):
    """No cached transcript for this clip's content hash."""

    __str__ = RecognizerError.__str__  # the message, not KeyError's quoted repr of it


@dataclass(frozen=True)
class Transcript:
    text: str


@dataclass(frozen=True)
class RecognizerSpec:
    """A recognizer: its kind and `arg`, the text after `kind:` (a model path, a
    command template with one {} placeholder, or a transcript file path)."""

    kind: str
    arg: str
    timeout_s: float = 30.0  # external only

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown recognizer {self.kind + ':' + self.arg!r} "
                             "(expected builtin:/external:/cache:)")
        if not self.arg:
            raise ValueError(f"{self.kind} recognizer needs {_KINDS[self.kind][0]}")
        if self.kind == "external":
            if self.arg.count("{}") != 1:
                raise ValueError("command template must contain exactly one {} placeholder")
            if self.timeout_s <= 0:
                raise ValueError("timeout must be positive")

    @staticmethod
    def builtin(model_path: str) -> "RecognizerSpec":
        return RecognizerSpec("builtin", str(model_path))

    @staticmethod
    def external(command: str, timeout_s: float = 30.0) -> "RecognizerSpec":
        return RecognizerSpec("external", command, timeout_s)


def parse_recognizer(text: str) -> RecognizerSpec:
    """Parse CLI syntax: builtin:<model>, external:<command with {}>, cache:<jsonl>."""
    kind, _, arg = text.partition(":")
    return RecognizerSpec(kind, arg)


def normalize_text(text: str) -> str:
    """Trim, lowercase, and collapse internal whitespace."""
    return " ".join(text.split()).lower()


def clip_content_hash(clip: AudioClip) -> str:
    """sha256 of the raw little-endian 16-bit sample bytes."""
    return hashlib.sha256(clip.samples.astype("<i2").tobytes()).hexdigest()


def _load_cache_file(path: str) -> dict:
    table = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                if not all(isinstance(row[key], str) for key in ("sha256", "transcript")):
                    raise TypeError("sha256 and transcript must be strings")
                table[row["sha256"]] = row["transcript"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise RecognizerError(f"{path}:{line_no}: bad cache row ({exc})") from exc
    return table


# (path, loader) -> (stamp, time of the last check, sha256 of the bytes, loaded value)
_loaded: dict = {}
_TICK_NS = 2_000_000_000  # the coarsest filesystem clock in common use (FAT's 2 s)


def _load(path: str, loader):
    """`loader(path)`, memoized until the file's bytes change.

    One stat per call checks the stamp (device, inode, mtime, size; the device
    and inode name the file at ~1/20 the cost of resolving the path). A same-size
    rewrite within one tick of a coarse clock keeps the stamp, so, by Git's
    racy-clean rule, a file whose mtime is within a tick of the last check is
    hashed again on use: a mismatch reloads it, a match moves the check time on.
    The time is taken before the hash and the hash before the load, so a later
    write never passes for the loaded bytes.
    """
    st = os.stat(path)
    stamp = (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
    cached = _loaded.get((path, loader))
    if cached is not None and cached[0] == stamp and st.st_mtime_ns + _TICK_NS <= cached[1]:
        return cached[3]
    checked_ns, sha = time.time_ns(), hashlib.sha256()
    with open(path, "rb") as fh:  # in blocks: no second copy of the file in memory
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    digest = sha.digest()
    value = cached[3] if cached and (cached[0], cached[2]) == (stamp, digest) else loader(path)
    _loaded[(path, loader)] = (stamp, checked_ns, digest, value)
    return value


def _run_external(spec: RecognizerSpec, clip: AudioClip) -> str:
    argv = shlex.split(spec.arg)
    with tempfile.NamedTemporaryFile(suffix=".wav", delete=True) as tmp:
        write_wav(clip, tmp.name)
        argv = [arg.replace("{}", tmp.name) for arg in argv]
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=spec.timeout_s
            )
        except subprocess.TimeoutExpired as exc:
            raise ExternalTimeoutError(
                f"recognizer {spec.arg!r} timed out after {spec.timeout_s}s"
            ) from exc
    if proc.returncode != 0:
        raise ExternalCommandError(
            f"recognizer {spec.arg!r} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    first_line = proc.stdout.splitlines()[0] if proc.stdout.splitlines() else ""
    return first_line


def _cached_transcripts(spec: RecognizerSpec, clips) -> list:
    table = _load(spec.arg, _load_cache_file)
    out = []
    for clip in clips:
        digest = clip_content_hash(clip)
        if digest not in table:
            raise CacheMissError(f"no cached transcript for content hash {digest}")
        out.append(table[digest])
    return out


# kind -> (what `arg` names, hear: (spec, clips) -> a raw transcript per clip).
# A list stats its model or transcript file once. The external entry looks
# _run_external up at call time, so a wrapper set on the module attribute (as
# perfbench/tracing.py does) sees every spawn.
_KINDS = {
    "builtin": ("a model path",
                lambda spec, clips: clf.predict_clips(_load(spec.arg, clf.load), clips)),
    "external": ("a command template",
                 lambda spec, clips: [_run_external(spec, clip) for clip in clips]),
    "cache": ("a transcript file path", _cached_transcripts),
}


def transcribe_clips(spec: RecognizerSpec, clips) -> list[str]:
    """Run the recognizer described by `spec` on each clip of a list.

    Output text is normalized (trim, lowercase, collapsed whitespace) so
    downstream distances never react to casing or spacing.
    """
    return [normalize_text(text) for text in _KINDS[spec.kind][1](spec, clips)]


def transcribe(spec: RecognizerSpec, clip: AudioClip) -> Transcript:
    """`transcribe_clips` on a list of one clip."""
    return Transcript(transcribe_clips(spec, [clip])[0])
