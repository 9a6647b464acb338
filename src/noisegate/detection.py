"""Devastate-then-compare detection: change rate, thresholding, ROC/AUC."""

from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from noisegate.audio import AudioClip
from noisegate.recognition import RecognizerSpec, levenshtein, transcribe_clips
from noisegate.seeds import derive_seed
from noisegate.transforms import NOISE_KINDS, TransformSpec, add_noise

CR_MODES = ("edit", "flip")


class UndefinedChangeRateError(ValueError):
    """The baseline transcript is empty, so the change rate has no scale."""


class SingleClassError(ValueError):
    """ROC needs at least one positive and one negative score."""


@dataclass(frozen=True)
class DetectionConfig:
    recognizer: RecognizerSpec
    noise: TransformSpec = TransformSpec("gaussian", (200,))
    threshold: float = 0.5
    votes: int = 1
    cr_mode: str = "edit"

    def __post_init__(self):
        if self.noise.kind not in NOISE_KINDS:
            raise ValueError(f"noise must be kind:intensity with a kind in {NOISE_KINDS}, "
                             f"got {self.noise.label!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.votes < 1 or self.votes % 2 != 1:
            raise ValueError(f"votes must be a positive odd count, got {self.votes}")
        if self.cr_mode not in CR_MODES:
            raise ValueError(f"cr_mode must be one of {CR_MODES}, got {self.cr_mode!r}")


@dataclass(frozen=True)
class DetectionOutcome:
    cr: float
    verdict: str  # "adversarial" | "normal"
    transcript_before: str
    transcript_after: str


def transcript_change(before: str, after: str, mode: str = "edit") -> float:
    """Normalized change from `before` to `after`, capped at 1.

    "edit" scores the edit distance over the length of `before`; "flip" is
    strictly 0/1 on whether the transcript changed at all.
    """
    if mode not in CR_MODES:
        raise ValueError(f"cr mode must be one of {CR_MODES}, got {mode!r}")
    if not before:
        raise UndefinedChangeRateError("baseline transcript is empty; change rate undefined")
    if mode == "flip":
        return 0.0 if after == before else 1.0
    return min(levenshtein(after, before), len(before)) / len(before)


def change_rates(recognizer: RecognizerSpec, clips, draws, mode: str = "edit"):
    """Transcript change of each clip after each noise draw (see `transcript_change`).

    `draws` holds one list per draw of one noise spec per clip. The plain clips
    are heard as one list, then each draw's noisy copies as one list. Returns
    (plain transcripts, noisy transcripts per draw, CRs per draw).
    """
    plain = [heard.text for heard in transcribe_clips(recognizer, clips)]
    noisy = [[heard.text for heard in transcribe_clips(
        recognizer, [add_noise(clip, noise) for clip, noise in zip(clips, draw)])]
        for draw in draws]
    crs = [[transcript_change(before, after, mode) for before, after in zip(plain, afters)]
           for afters in noisy]
    return plain, noisy, crs


def change_rate(recognizer: RecognizerSpec, clip: AudioClip, noise: TransformSpec,
                mode: str = "edit"):
    """`change_rates` of one clip and one draw: (cr, transcript_before, transcript_after)."""
    plain, noisy, crs = change_rates(recognizer, [clip], [[noise]], mode)
    return crs[0][0], plain[0], noisy[0][0]


def detect_clips(cfg: DetectionConfig, clips, noise_seeds) -> list:
    """A DetectionOutcome per clip: the median change rate over its votes (for an
    odd count, the majority verdict) against the threshold. Vote v of clip i
    draws `cfg.noise` seeded by `derive_seed(noise_seeds[i], "vote", v)`, or by
    `noise_seeds[i]` itself when `votes` is 1.
    """
    draws = [[replace(cfg.noise, seed=seed if cfg.votes == 1 else derive_seed(seed, "vote", v))
              for seed in noise_seeds] for v in range(cfg.votes)]
    plain, noisy, crs = change_rates(cfg.recognizer, clips, draws, cfg.cr_mode)
    scores = [float(np.median(votes)) for votes in zip(*crs)]
    return [DetectionOutcome(score, "adversarial" if score > cfg.threshold else "normal",
                             before, after)
            for score, before, after in zip(scores, plain, noisy[0])]


@dataclass(frozen=True)
class RocResult:
    points: list  # (threshold, fpr, tpr), thresholds descending, final (-inf, 1, 1)
    auc: float
    youden_threshold: float


def roc(scores) -> RocResult:
    """Threshold sweep over the distinct scores; positive means score > threshold.

    AUC by the trapezoid rule. The Youden threshold maximizes TPR - FPR over
    the observed scores, ties resolved to the lower threshold.
    """
    pairs = sorted(((float(s), bool(flag)) for s, flag in scores),
                   key=lambda pair: pair[0], reverse=True)
    n_pos = sum(flag for _, flag in pairs)
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassError(
            f"need both classes, got {n_pos} adversarial / {n_neg} normal"
        )

    # one descending pass (Fawcett 2006, Alg. 1): at each distinct score t the
    # running counts hold exactly the scores above t
    points = []
    tp = fp = 0
    for t, tied in groupby(pairs, key=lambda pair: pair[0]):
        points.append((t, fp / n_neg, tp / n_pos))
        for _, flag in tied:
            tp += flag
            fp += not flag
    points.append((float("-inf"), 1.0, 1.0))

    auc = 0.0
    prev_f, prev_t = 0.0, 0.0
    for _, f, t in points:
        auc += (f - prev_f) * (t + prev_t) / 2.0
        prev_f, prev_t = f, t

    best_j = max(t - f for thr, f, t in points[:-1])
    youden = min(thr for thr, f, t in points[:-1] if t - f == best_j)
    return RocResult(points=points, auc=auc, youden_threshold=youden)
