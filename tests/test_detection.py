import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.audio import AudioClip
from noisegate.detection import (
    DetectionConfig,
    SingleClassError,
    UndefinedChangeRateError,
    change_rate,
    detect_clips,
    roc,
    transcript_change,
)
from noisegate.recognition import RecognizerSpec, clip_content_hash
from noisegate.transforms import TransformSpec, add_noise

from helpers import write_cache_file

RATE = 16000


def clip_of(values):
    return AudioClip(samples=np.array(values, dtype=np.int16), sample_rate_hz=RATE)


def cached_recognizer(tmp_path, mapping):
    path = tmp_path / "transcripts.jsonl"
    write_cache_file([(clip_content_hash(c), text) for c, text in mapping], path)
    return RecognizerSpec("cache", str(path))


def with_noise(clip, noise):
    return add_noise(clip, noise)


def brute_force_roc(scores):
    """(points, auc, youden) by rescanning every score at each distinct threshold."""
    n_pos = sum(flag for _, flag in scores)
    n_neg = len(scores) - n_pos
    points = [(t, sum(not flag and s > t for s, flag in scores) / n_neg,
               sum(flag and s > t for s, flag in scores) / n_pos)
              for t in sorted({s for s, _ in scores}, reverse=True)]
    points.append((float("-inf"), 1.0, 1.0))
    auc = 0.0
    prev_f, prev_t = 0.0, 0.0
    for _, f, t in points:
        auc += (f - prev_f) * (t + prev_t) / 2.0
        prev_f, prev_t = f, t
    best_j = max(t - f for _, f, t in points[:-1])
    youden = min(thr for thr, f, t in points[:-1] if t - f == best_j)
    return points, auc, youden


# few distinct values, so most score sets hold ties across and within classes
tied_or_free_scores = st.lists(
    st.tuples(st.one_of(st.integers(0, 4).map(lambda k: k / 4),
                        st.floats(-1e6, 1e6, allow_nan=False)),
              st.booleans()),
    min_size=2, max_size=60,
).filter(lambda s: any(flag for _, flag in s) and not all(flag for _, flag in s))


class TestTranscriptChange:
    def test_edit_ratio_over_baseline_length(self):
        assert transcript_change("same text", "same text") == 0.0
        assert transcript_change("hello world", "hello") == pytest.approx(6 / 11)
        assert transcript_change("abc", "zzzzzzzzzz") == 1.0  # capped

    def test_flip_is_binary(self):
        assert transcript_change("left", "lift", "flip") == 1.0
        assert transcript_change("left", "left", "flip") == 0.0

    @pytest.mark.parametrize("mode", ["edit", "flip"])
    def test_empty_baseline_is_an_error(self, mode):
        with pytest.raises(UndefinedChangeRateError):
            transcript_change("", "x", mode)

    @pytest.mark.parametrize("mode", ["Flip", "EDIT", "avg", ""])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="cr mode"):
            transcript_change("hello world", "hello", mode)


class TestChangeRate:
    def test_unchanged_transcript_gives_zero(self, tmp_path):
        clip = clip_of([100, 200, 300])
        noise = TransformSpec("uniform", (5,), seed=1)
        rec = cached_recognizer(tmp_path, [(clip, "same text"),
                                           (with_noise(clip, noise), "same text")])
        cr, before, after = change_rate(rec, clip, noise)
        assert cr == 0.0
        assert before == after == "same text"

    def test_hand_computed_ratio(self, tmp_path):
        clip = clip_of([5] * 50)
        noise = TransformSpec("gaussian", (9,), seed=2)
        rec = cached_recognizer(tmp_path, [(clip, "hello world"),
                                           (with_noise(clip, noise), "hello")])
        cr, _, _ = change_rate(rec, clip, noise)
        assert cr == pytest.approx(6 / 11)

    def test_caps_at_one(self, tmp_path):
        clip = clip_of([7] * 30)
        noise = TransformSpec("uniform", (3,), seed=3)
        rec = cached_recognizer(tmp_path, [(clip, "abc"),
                                           (with_noise(clip, noise), "zzzzzzzzzz")])
        cr, _, _ = change_rate(rec, clip, noise)
        assert cr == 1.0

    def test_empty_baseline_is_an_error(self, tmp_path):
        clip = clip_of([1, 2])
        noise = TransformSpec("uniform", (2,), seed=4)
        rec = cached_recognizer(tmp_path, [(clip, ""), (with_noise(clip, noise), "x")])
        with pytest.raises(UndefinedChangeRateError):
            change_rate(rec, clip, noise)

    def test_flip_mode_is_binary(self, tmp_path):
        clip = clip_of([9] * 20)
        noise = TransformSpec("uniform", (2,), seed=5)
        rec = cached_recognizer(tmp_path, [(clip, "left"),
                                           (with_noise(clip, noise), "lift")])
        cr, _, _ = change_rate(rec, clip, noise, mode="flip")
        assert cr == 1.0

    def test_unknown_mode_rejected(self, tmp_path):
        # a miscased "Flip" used to be scored as edit mode
        clip = clip_of([5] * 50)
        noise = TransformSpec("gaussian", (9,), seed=2)
        rec = cached_recognizer(tmp_path, [(clip, "hello world"),
                                           (with_noise(clip, noise), "hello")])
        with pytest.raises(ValueError, match="cr mode"):
            change_rate(rec, clip, noise, mode="Flip")


class TestDetect:
    def test_threshold_one_never_flags(self, tmp_path):
        clip = clip_of([3] * 40)
        noise = TransformSpec("uniform", (4,), seed=6)
        rec = cached_recognizer(tmp_path, [(clip, "abc"),
                                           (with_noise(clip, noise), "xyz")])
        cfg = DetectionConfig(noise=noise, threshold=1.0, recognizer=rec)
        outcome = detect_clips(cfg, [clip], [noise.seed])[0]
        assert outcome.cr == 1.0
        assert outcome.verdict == "normal"  # cr is capped at 1, never above

    def test_verdict_matches_cr_rule(self, tmp_path):
        clip = clip_of([3] * 40)
        noise = TransformSpec("uniform", (4,), seed=6)
        rec = cached_recognizer(tmp_path, [(clip, "abcd"),
                                           (with_noise(clip, noise), "abcx")])
        cfg = DetectionConfig(noise=noise, threshold=0.2, recognizer=rec)
        out = detect_clips(cfg, [clip], [noise.seed])[0]
        assert out.cr == pytest.approx(0.25)
        assert out.verdict == "adversarial"
        out2 = detect_clips(replace(cfg, threshold=0.25), [clip], [noise.seed])[0]
        assert out2.verdict == "normal"  # strict inequality at the threshold

    def test_config_validation(self, tmp_path):
        rec = RecognizerSpec.external("sh -c true {}")
        noise = TransformSpec("uniform", (1,))
        with pytest.raises(ValueError):
            DetectionConfig(noise=noise, threshold=1.5, recognizer=rec)
        with pytest.raises(ValueError):
            DetectionConfig(noise=noise, threshold=0.5, recognizer=rec, votes=2)
        with pytest.raises(ValueError):
            DetectionConfig(noise=noise, threshold=0.5, recognizer=rec, cr_mode="avg")
        with pytest.raises(ValueError, match="noise must be kind:intensity .* got 'quant:256'"):
            DetectionConfig(noise=TransformSpec("quant", (256,)), recognizer=rec)

    def test_vote_mode_uses_median(self, tmp_path):
        from noisegate.seeds import derive_seed

        clip = clip_of([11] * 60)
        base = TransformSpec("uniform", (6,), seed=77)
        mapping = [(clip, "abcd")]
        texts = ["abcd", "abxx", "abcd"]  # draws disagree; median decides
        for i, text in enumerate(texts):
            draw = TransformSpec("uniform", (6,), seed=derive_seed(77, "vote", i))
            mapping.append((with_noise(clip, draw), text))
        rec = cached_recognizer(tmp_path, mapping)
        cfg = DetectionConfig(noise=base, threshold=0.1, recognizer=rec, votes=3)
        out = detect_clips(cfg, [clip], [base.seed])[0]
        assert out.cr == 0.0
        assert out.verdict == "normal"

    def test_plain_clip_is_heard_once(self, tmp_path, monkeypatch):
        import noisegate.detection as detection

        clip = clip_of([11] * 60)
        noise = TransformSpec("uniform", (6,), seed=77)
        heard = []

        def fake_transcribe_clips(spec, clips):
            heard.extend(clips)
            return ["same" if seen is clip else "lame" for seen in clips]

        monkeypatch.setattr(detection, "transcribe_clips", fake_transcribe_clips)
        rec = RecognizerSpec.external("sh -c true {}")
        cfg = DetectionConfig(noise=noise, threshold=0.1, recognizer=rec, votes=3)
        out = detect_clips(cfg, [clip], [noise.seed])[0]
        assert [seen is clip for seen in heard] == [True, False, False, False]
        assert (out.cr, out.transcript_before, out.transcript_after) == (0.25, "same", "lame")


    def test_votes_keep_no_unit_draw(self, monkeypatch):
        # each vote draws from its own seed, so no draw is held for a later one
        import noisegate.detection as detection
        import noisegate.transforms as transforms

        seen = []

        def recording(clip, noise, units=None):
            seen.append(units)
            return add_noise(clip, noise, units)

        monkeypatch.setattr(transforms, "add_noise", recording)
        monkeypatch.setattr(detection, "transcribe_clips", lambda spec, clips: ["same"] * len(clips))
        cfg = DetectionConfig(recognizer=RecognizerSpec.external("sh -c true {}"), votes=3)
        detect_clips(cfg, [clip_of([11] * 60), clip_of([7] * 60)], [5, 6])
        assert seen == [None] * 6

    def test_fewer_seeds_than_clips_raises(self, monkeypatch):
        # one seed per clip: a shorter list is an error, not a shorter report, and it is
        # raised before any list is heard (through external:, a spawn per clip)
        import noisegate.detection as detection

        heard = []
        monkeypatch.setattr(detection, "transcribe_clips",
                            lambda spec, clips: heard.append(clips) or ["same"] * len(clips))
        cfg = DetectionConfig(recognizer=RecognizerSpec.external("sh -c true {}"))
        clips = [clip_of([11] * 60), clip_of([7] * 60), clip_of([3] * 60)]
        with pytest.raises(ValueError, match="one spec per clip"):
            detect_clips(cfg, clips, [5])
        assert heard == []
        with pytest.raises(ValueError, match="one spec per clip"):
            detection.hear_rows(heard.append, clips, [[None] * 3, [None] * 2])
        assert heard == []
        assert len(detect_clips(cfg, clips, [5, 6, 7])) == 3
        assert len(heard) == 2  # the plain row and the noisy one


class TestHearRows:
    """`hear_rows` hears `HEAR_BLOCK` clips at a time, block by block and row by row,
    and keeps a block's draws only when a noise kind and seed come back in it."""

    CLIPS = [clip_of(np.arange(60) * (i + 1)) for i in range(5)]

    @staticmethod
    def hear_all(monkeypatch, rows, block=None):
        """(heard rows, list sizes `hear` got, the `unit_draws` each noising got)."""
        import noisegate.detection as detection
        import noisegate.transforms as transforms

        sizes, units = [], []

        def recording(clip, spec, unit_draws=None):
            units.append(unit_draws)
            return add_noise(clip, spec, unit_draws)

        def hear(clips):  # a digest shows every noised byte
            sizes.append(len(clips))
            return [hashlib.sha256(clip.samples.tobytes()).hexdigest() for clip in clips]

        monkeypatch.setattr(transforms, "add_noise", recording)
        if block is not None:
            monkeypatch.setattr(detection, "HEAR_BLOCK", block)
        return detection.hear_rows(hear, TestHearRows.CLIPS, rows), sizes, units

    @staticmethod
    def noise(kind, intensity, seeds):
        return [TransformSpec(kind, (intensity,), seed=seed) for seed in seeds]

    def test_blocks_are_heard_block_major_and_share_one_mapping_each(self, monkeypatch):
        for kind in ("gaussian", "uniform"):
            # the second noisy row repeats the first one's seeds
            rows = [[None] * 5, self.noise(kind, 30, range(10, 15)),
                    self.noise(kind, 300, range(10, 15))]
            want, sizes, units = self.hear_all(monkeypatch, rows)
            assert sizes == [5, 5, 5]
            assert len({id(u) for u in units}) == 1 and len(units[0]) == 5
            heard, sizes, units = self.hear_all(monkeypatch, rows, block=2)
            assert heard == want
            assert sizes == [2, 2, 2, 2, 2, 2, 1, 1, 1]
            # 2 + 2 + 1 clips of two noisy rows: one mapping per block, holding its clips' draws
            ids = [id(u) for u in units]
            assert [ids.index(i) for i in ids] == [0] * 4 + [4] * 4 + [8] * 2
            assert [len(units[first]) for first in (0, 4, 8)] == [2, 2, 1]
            monkeypatch.undo()  # the whole block again

    @pytest.mark.parametrize("rows", [
        [[None] * 5, noise("gaussian", 30, range(10, 15)), noise("gaussian", 300, range(20, 25))],
        [[None] * 5, noise("uniform", 30, range(10, 15)), noise("uniform", 300, range(20, 25))],
        # a seed that comes back under the other kind
        [[None] * 5, noise("uniform", 30, range(10, 15)), noise("gaussian", 300, range(10, 15))],
        # a seed that comes back only in another block
        [noise("gaussian", 30, [1, 2, 3, 4, 1]), noise("uniform", 30, [1, 2, 3, 4, 1])],
    ], ids=["distinct-seeds", "uniform", "other-kind", "seed-back-in-another-block"])
    def test_no_draw_is_kept_that_is_not_used_again(self, monkeypatch, rows):
        want, _, _ = self.hear_all(monkeypatch, rows)
        heard, _, units = self.hear_all(monkeypatch, rows, block=2)
        assert heard == want
        assert units and units == [None] * len(units)


class TestZeroIntensity:
    def test_cr_is_zero_for_deterministic_recognizer(self, tmp_path, tiny_model, tiny_clips):
        import noisegate.classifier as clf

        model_path = tmp_path / "model.txt"
        clf.save(tiny_model, model_path)
        rec = RecognizerSpec.builtin(str(model_path))
        _, clip = tiny_clips[0]
        cr, before, after = change_rate(rec, clip, TransformSpec("gaussian", (0,), seed=1))
        assert cr == 0.0
        assert before == after


class TestRoc:
    def test_perfect_separation(self):
        scores = [(0.9, True)] * 5 + [(0.1, False)] * 5
        result = roc(scores)
        assert result.auc == pytest.approx(1.0)
        assert result.youden_threshold == pytest.approx(0.1)

    def test_single_shared_positive_score(self):
        scores = [(0.8, True)] * 4 + [(0.2, False), (0.3, False)]
        result = roc(scores)
        assert result.auc == pytest.approx(1.0)

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(0)
        scores = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(10_000)]
        result = roc(scores)
        assert result.auc == pytest.approx(0.5, abs=0.02)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassError):
            roc([(0.5, True), (0.7, True)])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        scores = [(float(rng.random()), bool(rng.random() < 0.4)) for _ in range(300)]
        base = roc(scores).auc
        squashed = roc([(s**3 + 2.0, flag) for s, flag in scores]).auc
        assert squashed == pytest.approx(base, abs=1e-12)

    def test_youden_tie_takes_lower_threshold(self):
        # J is maximal (=1) on a plateau of thresholds; the lower one wins
        scores = [(0.9, True), (0.8, True), (0.1, False)]
        result = roc(scores)
        assert result.youden_threshold == pytest.approx(0.1)

    @given(tied_or_free_scores)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_sweep(self, scores):
        result = roc(scores)
        assert (result.points, result.auc, result.youden_threshold) == brute_force_roc(scores)

    def test_curve_shape(self):
        scores = [(0.9, True), (0.5, True), (0.5, False), (0.1, False)]
        result = roc(scores)
        thresholds = [p[0] for p in result.points]
        assert thresholds == sorted(thresholds, reverse=True)
        assert result.points[0][1:] == (0.0, 0.0)
        assert result.points[-1][1:] == (1.0, 1.0)
