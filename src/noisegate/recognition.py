"""Uniform recognizer interface over the built-in classifier, external ASR
tools, and transcript caches, plus the edit-distance primitive."""

import hashlib
import json
import os
import shlex
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

from noisegate import _kernels
from noisegate import classifier as clf
from noisegate.audio import AudioClip, write_wav

RECOGNIZER_KINDS = ("builtin", "external", "cache")

# external recognizers are one-shot subprocesses; cap how many run at once
MAX_CONCURRENT_EXTERNAL = 4
_external_slots = threading.BoundedSemaphore(MAX_CONCURRENT_EXTERNAL)


class RecognizerError(RuntimeError):
    pass


class ExternalCommandError(RecognizerError):
    """The external recognizer exited non-zero."""


class ExternalTimeoutError(RecognizerError):
    """The external recognizer exceeded its timeout."""


class CacheMissError(RecognizerError, KeyError):
    """No cached transcript for this clip's content hash."""


@dataclass(frozen=True)
class Transcript:
    text: str
    recognizer_id: str

    def __post_init__(self):
        if not self.recognizer_id:
            raise ValueError("recognizer_id must be non-empty")


@dataclass(frozen=True)
class RecognizerSpec:
    kind: str
    model_path: str | None = None
    command: str | None = None
    timeout_s: float = 30.0
    cache_path: str | None = None

    def __post_init__(self):
        if self.kind not in RECOGNIZER_KINDS:
            raise ValueError(f"unknown recognizer kind {self.kind!r}")
        if self.kind == "builtin" and not self.model_path:
            raise ValueError("builtin recognizer needs a model path")
        if self.kind == "external":
            if not self.command:
                raise ValueError("external recognizer needs a command template")
            if self.command.count("{}") != 1:
                raise ValueError("command template must contain exactly one {} placeholder")
            if self.timeout_s <= 0:
                raise ValueError("timeout must be positive")
        if self.kind == "cache" and not self.cache_path:
            raise ValueError("cache recognizer needs a transcript file path")

    @staticmethod
    def builtin(model_path: str) -> "RecognizerSpec":
        return RecognizerSpec(kind="builtin", model_path=str(model_path))

    @staticmethod
    def external(command: str, timeout_s: float = 30.0) -> "RecognizerSpec":
        return RecognizerSpec(kind="external", command=command, timeout_s=timeout_s)

    @staticmethod
    def cache(cache_path: str) -> "RecognizerSpec":
        return RecognizerSpec(kind="cache", cache_path=str(cache_path))


def parse_recognizer(text: str) -> RecognizerSpec:
    """Parse CLI syntax: builtin:<model>, external:<command with {}>, cache:<jsonl>."""
    kind, _, rest = text.partition(":")
    if kind == "builtin":
        return RecognizerSpec.builtin(rest)
    if kind == "external":
        return RecognizerSpec.external(rest)
    if kind == "cache":
        return RecognizerSpec.cache(rest)
    raise ValueError(f"unknown recognizer {text!r} (expected builtin:/external:/cache:)")


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


_loaded_models: dict = {}
_loaded_caches: dict = {}


def _builtin_model(path: str):
    # a model file rewritten or replaced gets a new stamp and is loaded again.
    # (st_dev, st_ino) names the file: one stat per call, where resolving the
    # path as well cost ~20x more per transcript
    st = os.stat(path)
    stamp = (st.st_dev, st.st_ino, st.st_mtime_ns, st.st_size)
    cached = _loaded_models.get(path)
    if cached is None or cached[0] != stamp:
        cached = _loaded_models[path] = (stamp, clf.load(path))
    return cached[1]


def _cache_table(path: str) -> dict:
    key = str(Path(path).resolve())
    if key not in _loaded_caches:
        _loaded_caches[key] = _load_cache_file(path)
    return _loaded_caches[key]


def clear_recognizer_state() -> None:
    """Drop memoized models and transcript caches (for tests and long sessions)."""
    _loaded_models.clear()
    _loaded_caches.clear()


def _run_external(spec: RecognizerSpec, clip: AudioClip) -> str:
    argv = shlex.split(spec.command)
    with tempfile.NamedTemporaryFile(suffix=".wav", delete=True) as tmp:
        write_wav(clip, tmp.name)
        argv = [arg.replace("{}", tmp.name) for arg in argv]
        with _external_slots:
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=spec.timeout_s
                )
            except subprocess.TimeoutExpired as exc:
                raise ExternalTimeoutError(
                    f"recognizer {spec.command!r} timed out after {spec.timeout_s}s"
                ) from exc
    if proc.returncode != 0:
        raise ExternalCommandError(
            f"recognizer {spec.command!r} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    first_line = proc.stdout.splitlines()[0] if proc.stdout.splitlines() else ""
    return first_line


def transcribe(spec: RecognizerSpec, clip: AudioClip) -> Transcript:
    """Run the recognizer described by `spec` on a clip.

    Output text is normalized (trim, lowercase, collapsed whitespace) so
    downstream distances never react to casing or spacing.
    """
    if spec.kind == "builtin":
        label, _ = clf.predict(_builtin_model(spec.model_path), clip)
        return Transcript(text=normalize_text(label), recognizer_id=f"builtin:{spec.model_path}")
    if spec.kind == "external":
        return Transcript(
            text=normalize_text(_run_external(spec, clip)),
            recognizer_id=f"external:{spec.command}",
        )
    digest = clip_content_hash(clip)
    table = _cache_table(spec.cache_path)
    if digest not in table:
        raise CacheMissError(f"no cached transcript for content hash {digest}")
    return Transcript(
        text=normalize_text(table[digest]), recognizer_id=f"cache:{spec.cache_path}"
    )


def levenshtein(a: str, b: str) -> int:
    """Minimum single-character insertions, deletions, substitutions from a to b."""
    return _kernels.levenshtein(a, b)
