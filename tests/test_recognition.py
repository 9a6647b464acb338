import dataclasses
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.audio import AudioClip
from noisegate.recognition import (
    CacheMissError,
    ExternalCommandError,
    ExternalTimeoutError,
    RecognizerSpec,
    Transcript,
    clear_recognizer_state,
    clip_content_hash,
    levenshtein,
    normalize_text,
    parse_recognizer,
    transcribe,
    write_cache_file,
)

RATE = 16000


def clip_of(values):
    return AudioClip(samples=np.array(values, dtype=np.int16), sample_rate_hz=RATE)


def lev_oracle(a, b):
    # full-matrix DP, kept independent of the library implementation
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(
                table[i - 1][j] + 1,
                table[i][j - 1] + 1,
                table[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return table[-1][-1]


class TestLevenshtein:
    @given(st.text(max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_identity(self, s):
        assert levenshtein(s, s) == 0

    def test_insertions_only(self):
        assert levenshtein("", "abc") == 3

    def test_kitten_sitting(self):
        assert levenshtein("kitten", "sitting") == 3
        assert lev_oracle("kitten", "sitting") == 3

    @given(st.text(max_size=25), st.text(max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_and_symmetric(self, a, b):
        d = levenshtein(a, b)
        assert d == lev_oracle(a, b)
        assert d == levenshtein(b, a)

    @given(st.text(max_size=15), st.text(max_size=15), st.text(max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


class TestNormalize:
    def test_trims_lowers_collapses(self):
        assert normalize_text("  Hello   WORLD \n") == "hello world"
        assert normalize_text("") == ""


class TestSpecs:
    def test_parse_forms(self):
        assert parse_recognizer("builtin:m.txt").kind == "builtin"
        assert parse_recognizer("external:run {}").kind == "external"
        assert parse_recognizer("cache:t.jsonl").kind == "cache"
        with pytest.raises(ValueError):
            parse_recognizer("magic:x")

    def test_external_needs_one_placeholder(self):
        with pytest.raises(ValueError):
            RecognizerSpec.external("deepspeech --audio")
        with pytest.raises(ValueError):
            RecognizerSpec.external("cp {} {}")
        with pytest.raises(ValueError):
            RecognizerSpec(kind="external", command="x {}", timeout_s=0)

    def test_transcript_requires_recognizer_id(self):
        with pytest.raises(ValueError):
            Transcript(text="x", recognizer_id="")


class TestExternalRecognizer:
    def test_stub_echo(self):
        spec = RecognizerSpec.external("sh -c 'echo Hello' {}")
        out = transcribe(spec, clip_of([1, 2, 3]))
        assert out.text == "hello"
        assert out.recognizer_id.startswith("external:")

    def test_reads_first_stdout_line(self):
        spec = RecognizerSpec.external("sh -c 'echo one line; echo two' {}")
        assert transcribe(spec, clip_of([5])).text == "one line"

    def test_nonzero_exit_raises(self):
        spec = RecognizerSpec.external("sh -c 'exit 3' {}")
        with pytest.raises(ExternalCommandError, match="exited 3"):
            transcribe(spec, clip_of([5]))

    def test_timeout_raises(self):
        spec = RecognizerSpec.external("sh -c 'sleep 5' {}", timeout_s=0.2)
        with pytest.raises(ExternalTimeoutError):
            transcribe(spec, clip_of([5]))

    def test_placeholder_receives_wav_path(self):
        # the command gets a readable WAV of the exact clip
        spec = RecognizerSpec.external("wc -c {}")
        out = transcribe(spec, clip_of([1] * 10))
        assert out.text.split()[0] == str(44 + 20)


class TestBuiltinRecognizer:
    def test_training_clip_transcribes_to_its_label(self, tmp_path, tiny_model, tiny_clips):
        import noisegate.classifier as clf

        model_path = tmp_path / "model.txt"
        clf.save(tiny_model, model_path)
        spec = RecognizerSpec.builtin(str(model_path))
        row, clip = tiny_clips[0]
        out = transcribe(spec, clip)
        assert out.text == clf.predict(tiny_model, clip)[0]
        assert out.recognizer_id == f"builtin:{model_path}"

    def test_model_rewritten_in_place_is_reloaded(self, tmp_path, tiny_model, tiny_clips):
        import noisegate.classifier as clf

        model_path = tmp_path / "model.txt"
        clf.save(tiny_model, model_path)
        spec = RecognizerSpec.builtin(str(model_path))
        clip = next(c for _, c in tiny_clips
                    if clf.predict(tiny_model, c)[0] != tiny_model.class_labels[1])
        assert transcribe(spec, clip).text == clf.predict(tiny_model, clip)[0]

        reversed_model = dataclasses.replace(
            tiny_model, class_labels=list(reversed(tiny_model.class_labels)))
        first_mtime = model_path.stat().st_mtime_ns
        clf.save(reversed_model, model_path)
        # same size by construction; on a coarse-clock filesystem, rewrite
        # until the modification time moves, as a later save would
        for _ in range(300):
            if model_path.stat().st_mtime_ns != first_mtime:
                break
            time.sleep(0.01)
            clf.save(reversed_model, model_path)
        expected = clf.predict(reversed_model, clip)[0]
        assert expected != clf.predict(tiny_model, clip)[0]
        assert transcribe(spec, clip).text == expected


class TestCacheRecognizer:
    def test_hit_and_miss(self, tmp_path):
        clear_recognizer_state()
        clip = clip_of([4, 5, 6])
        path = tmp_path / "cache.jsonl"
        write_cache_file([(clip_content_hash(clip), "Cached  Words")], path)
        spec = RecognizerSpec.cache(str(path))
        assert transcribe(spec, clip).text == "cached words"
        with pytest.raises(CacheMissError) as err:
            transcribe(spec, clip_of([9, 9]))
        assert clip_content_hash(clip_of([9, 9])) in str(err.value)

    def test_malformed_cache_row(self, tmp_path):
        clear_recognizer_state()
        path = tmp_path / "bad.jsonl"
        path.write_text('{"sha256": "x"}\n')
        with pytest.raises(Exception, match="bad cache row"):
            transcribe(RecognizerSpec.cache(str(path)), clip_of([1]))

    def test_hash_is_content_based(self):
        assert clip_content_hash(clip_of([1, 2])) == clip_content_hash(clip_of([1, 2]))
        assert clip_content_hash(clip_of([1, 2])) != clip_content_hash(clip_of([2, 1]))
