import dataclasses
import json
import os
import time

import numpy as np
import pytest

from noisegate import recognition
from noisegate.audio import AudioClip
from noisegate.recognition import (
    CacheMissError,
    ExternalCommandError,
    ExternalTimeoutError,
    RecognizerError,
    RecognizerSpec,
    Transcript,
    clip_content_hash,
    normalize_text,
    parse_recognizer,
    transcribe,
    transcribe_clips,
)

from helpers import write_cache_file

RATE = 16000
KIND_ARGS = [("builtin", "m.txt"), ("external", "run {}"), ("cache", "t.jsonl")]


@pytest.fixture
def fresh_memo():
    """No model or transcript table memoized by an earlier test."""
    recognition._loaded.clear()


def clip_of(values):
    return AudioClip(samples=np.array(values, dtype=np.int16), sample_rate_hz=RATE)


class TestNormalize:
    def test_trims_lowers_collapses(self):
        assert normalize_text("  Hello   WORLD \n") == "hello world"
        assert normalize_text("") == ""


class TestSpecs:
    def test_parse_forms(self):
        assert parse_recognizer("builtin:m.txt").kind == "builtin"
        assert parse_recognizer("external:run {}").kind == "external"
        assert parse_recognizer("cache:t.jsonl").kind == "cache"
        with pytest.raises(ValueError, match="expected builtin:/external:/cache:"):
            parse_recognizer("magic:x")
        with pytest.raises(ValueError, match="unknown recognizer kind"):
            RecognizerSpec("magic", "x")

    def test_external_needs_one_placeholder(self):
        with pytest.raises(ValueError):
            RecognizerSpec.external("deepspeech --audio")
        with pytest.raises(ValueError):
            RecognizerSpec.external("cp {} {}")
        with pytest.raises(ValueError):
            RecognizerSpec("external", "x {}", timeout_s=0)

    @pytest.mark.parametrize("kind, arg", KIND_ARGS)
    def test_spec_is_the_kind_and_the_text_after_it(self, kind, arg):
        spec = parse_recognizer(f"{kind}:{arg}")
        assert (spec.kind, spec.arg) == (kind, arg)
        assert spec == getattr(RecognizerSpec, kind, lambda a: RecognizerSpec(kind, a))(arg)

    @pytest.mark.parametrize("kind", [kind for kind, _ in KIND_ARGS])
    def test_empty_arg_rejected(self, kind):
        with pytest.raises(ValueError, match=f"^{kind} recognizer needs "):
            parse_recognizer(f"{kind}:")
        with pytest.raises(ValueError, match=f"^{kind} recognizer needs "):
            RecognizerSpec(kind, "")


class TestExternalRecognizer:
    def test_stub_echo(self):
        spec = RecognizerSpec.external("sh -c 'echo Hello' {}")
        out = transcribe(spec, clip_of([1, 2, 3]))
        assert out == Transcript("hello")

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

    def test_dispatch_calls_the_module_attribute_once(self, monkeypatch):
        # a wrapper set on the module attribute must see the spawn, as the tracer's does
        original = recognition._run_external
        calls = []

        def counted(spec, clip):
            calls.append((spec, clip))
            return original(spec, clip)

        monkeypatch.setattr(recognition, "_run_external", counted)
        spec = RecognizerSpec.external("sh -c 'echo Hello' {}")
        clip = clip_of([1, 2, 3])
        assert transcribe(spec, clip).text == "hello"
        assert len(calls) == 1 and calls[0][0] is spec and calls[0][1] is clip

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
        assert out == Transcript(clf.predict(tiny_model, clip)[0])

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


class TestListHearing:
    @pytest.fixture
    def specs(self, tmp_path, tiny_model, tiny_clips):
        import noisegate.classifier as clf

        clips = [clip for _, clip in tiny_clips[:5]]
        clf.save(tiny_model, tmp_path / "model.txt")
        write_cache_file([(clip_content_hash(clip), f"Word {i}") for i, clip in enumerate(clips)],
                         tmp_path / "cache.jsonl")
        return clips, {"builtin": RecognizerSpec.builtin(str(tmp_path / "model.txt")),
                       "cache": RecognizerSpec("cache", str(tmp_path / "cache.jsonl"))}

    @pytest.mark.parametrize("kind", ["builtin", "cache"])
    def test_a_list_stats_its_file_once(self, fresh_memo, monkeypatch, specs, kind):
        clips, by_kind = specs
        spec = by_kind[kind]
        one_by_one = [transcribe(spec, clip).text for clip in clips]
        stats, real_stat = [], os.stat

        def counting(path, *args, **kwargs):
            stats.append(os.fspath(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting)
        assert transcribe_clips(spec, clips) == one_by_one
        assert stats.count(spec.arg) == 1

    @pytest.mark.parametrize("kind", ["builtin", "cache"])
    def test_rewrite_that_keeps_the_stamp_is_heard(self, fresh_memo, monkeypatch, tiny_model,
                                                   specs, kind):
        import noisegate.classifier as clf

        clips, by_kind = specs
        spec = by_kind[kind]
        before = transcribe_clips(spec, clips)
        st = os.stat(spec.arg)
        # the same size by construction, and the old mtime put back: the stamp
        # is what a coarse filesystem clock would keep
        if kind == "builtin":
            swapped = dataclasses.replace(
                tiny_model, class_labels=list(reversed(tiny_model.class_labels)))
            # save() moves a new file over the old one; copy its bytes in place instead
            clf.save(swapped, spec.arg + ".new")
            with open(spec.arg + ".new", "rb") as new, open(spec.arg, "r+b") as old:
                old.write(new.read())
            want = clf.predict_clips(swapped, clips)
        else:
            want = [f"drow {i}" for i in range(len(clips))]
            write_cache_file([(clip_content_hash(clip), text) for clip, text in zip(clips, want)],
                             spec.arg)
        os.utime(spec.arg, ns=(st.st_atime_ns, st.st_mtime_ns))
        keep = ("st_dev", "st_ino", "st_mtime_ns", "st_size")
        assert [getattr(os.stat(spec.arg), k) for k in keep] == [getattr(st, k) for k in keep]
        after = transcribe_clips(spec, clips)
        assert after != before
        assert after == want

        # a file older than one tick is not read again while its stamp holds
        os.utime(spec.arg, ns=(st.st_atime_ns, st.st_mtime_ns - 10 * 10**9))
        assert transcribe_clips(spec, clips) == after
        monkeypatch.setattr(recognition, "open", None, raising=False)  # a read would now fail
        assert transcribe_clips(spec, clips) == after

    def test_empty_list(self, specs):
        assert transcribe_clips(specs[1]["builtin"], []) == []


class TestCacheRecognizer:
    def test_hit_and_miss(self, fresh_memo, tmp_path):
        clip = clip_of([4, 5, 6])
        path = tmp_path / "cache.jsonl"
        write_cache_file([(clip_content_hash(clip), "Cached  Words")], path)
        spec = RecognizerSpec("cache", str(path))
        assert transcribe(spec, clip).text == "cached words"
        with pytest.raises(CacheMissError) as err:
            transcribe(spec, clip_of([9, 9]))
        assert clip_content_hash(clip_of([9, 9])) in str(err.value)

    def test_file_rewritten_in_place_is_read_again(self, fresh_memo, tmp_path):
        clip = clip_of([4, 5, 6])
        path = tmp_path / "cache.jsonl"
        write_cache_file([(clip_content_hash(clip), "first")], path)
        spec = RecognizerSpec("cache", str(path))
        assert transcribe(spec, clip).text == "first"
        inode = path.stat().st_ino
        # a new size moves the stamp even where the filesystem clock is coarse
        write_cache_file([(clip_content_hash(clip), "second words")], path)
        assert path.stat().st_ino == inode
        assert transcribe(spec, clip) == Transcript("second words")

    def test_malformed_cache_row(self, fresh_memo, tmp_path):
        # a transcript that is no string used to end in a traceback from normalize_text
        clip = clip_of([1])
        for i, row in enumerate(['{"sha256": "x"}', *(json.dumps(
                {"sha256": clip_content_hash(clip), "transcript": value}) for value in (5, None))]):
            path = tmp_path / f"bad{i}.jsonl"
            path.write_text(row + "\n")
            with pytest.raises(RecognizerError) as exc:
                transcribe(RecognizerSpec("cache", str(path)), clip)
            assert str(exc.value).startswith(f"{path}:1: bad cache row (")

    def test_hash_is_content_based(self):
        assert clip_content_hash(clip_of([1, 2])) == clip_content_hash(clip_of([1, 2]))
        assert clip_content_hash(clip_of([1, 2])) != clip_content_hash(clip_of([2, 1]))
