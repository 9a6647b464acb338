"""Uniform recognizer interface over the built-in classifier, external ASR
tools, and transcript caches, plus the edit-distance primitive."""

import hashlib
import json
import os
import shlex
import subprocess
import tempfile
from dataclasses import dataclass

from noisegate import _kernels
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
    recognizer_id: str

    def __post_init__(self):
        if not self.recognizer_id:
            raise ValueError("recognizer_id must be non-empty")


@dataclass(frozen=True)
class RecognizerSpec:
    """A recognizer: its kind and `arg`, the text after `kind:` (a model path, a
    command template with one {} placeholder, or a transcript file path)."""

    kind: str
    arg: str
    timeout_s: float = 30.0  # external only

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown recognizer kind {self.kind!r}")
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

    @staticmethod
    def cache(cache_path: str) -> "RecognizerSpec":
        return RecognizerSpec("cache", str(cache_path))


def parse_recognizer(text: str) -> RecognizerSpec:
    """Parse CLI syntax: builtin:<model>, external:<command with {}>, cache:<jsonl>."""
    kind, _, arg = text.partition(":")
    if kind not in _KINDS:
        raise ValueError(f"unknown recognizer {text!r} (expected builtin:/external:/cache:)")
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
                table[row["sha256"]] = row["transcript"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise RecognizerError(f"{path}:{line_no}: bad cache row ({exc})") from exc
    return table


def write_cache_file(entries, path) -> None:
    """Write {sha256, transcript} rows as JSON lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for digest, text in entries:
            fh.write(json.dumps({"sha256": digest, "transcript": text}) + "\n")


_loaded: dict = {}


def _load(path: str, loader):
    """`loader(path)`, memoized until the file changes.

    A file rewritten or replaced in place gets a new stamp and is loaded again.
    (st_dev, st_ino) names the file: one stat per call, where resolving the path
    as well cost ~20x more per transcript. A rewrite that keeps the size within
    one tick of a coarse filesystem clock keeps the stamp, so it is not seen.
    """
    st = os.stat(path)
    stamp = (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
    cached = _loaded.get((path, loader))
    if cached is None or cached[0] != stamp:
        cached = _loaded[(path, loader)] = (stamp, loader(path))
    return cached[1]


def clear_recognizer_state() -> None:
    """Drop memoized models and transcript tables (for tests and long sessions)."""
    _loaded.clear()


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
    "builtin": ("a model path", lambda spec, clips: [
        label for label, _ in clf.predict_clips(_load(spec.arg, clf.load), clips)]),
    "external": ("a command template",
                 lambda spec, clips: [_run_external(spec, clip) for clip in clips]),
    "cache": ("a transcript file path", _cached_transcripts),
}


def transcribe_clips(spec: RecognizerSpec, clips) -> list:
    """Run the recognizer described by `spec` on each clip of a list.

    Output text is normalized (trim, lowercase, collapsed whitespace) so
    downstream distances never react to casing or spacing.
    """
    recognizer_id = f"{spec.kind}:{spec.arg}"
    return [Transcript(normalize_text(text), recognizer_id)
            for text in _KINDS[spec.kind][1](spec, clips)]


def transcribe(spec: RecognizerSpec, clip: AudioClip) -> Transcript:
    """`transcribe_clips` on a list of one clip."""
    return transcribe_clips(spec, [clip])[0]


def levenshtein(a: str, b: str) -> int:
    """Minimum single-character insertions, deletions, substitutions from a to b."""
    return _kernels.levenshtein(a, b)
