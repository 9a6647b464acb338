"""Devastate-then-compare detection: change rate, thresholding, ROC/AUC."""

from dataclasses import dataclass, replace
from itertools import groupby

import numpy as np

from noisegate.audio import AudioClip
from noisegate.recognition import RecognizerSpec, levenshtein, transcribe
from noisegate.seeds import derive_seed
from noisegate.transforms import NoiseSpec, add_noise

CR_MODES = ("edit", "flip")


class UndefinedChangeRateError(ValueError):
    """The baseline transcript is empty, so the change rate has no scale."""


class SingleClassError(ValueError):
    """ROC needs at least one positive and one negative score."""


@dataclass(frozen=True)
class DetectionConfig:
    recognizer: RecognizerSpec
    noise: NoiseSpec = NoiseSpec("gaussian", 200)
    threshold: float = 0.5
    votes: int = 1
    cr_mode: str = "edit"

    def __post_init__(self):
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


def change_rate(recognizer: RecognizerSpec, clip: AudioClip, noise: NoiseSpec,
                mode: str = "edit"):
    """Transcript change of one clip after one noise draw (see `transcript_change`).

    Returns (cr, transcript_before, transcript_after).
    """
    before = transcribe(recognizer, clip).text
    after = transcribe(recognizer, add_noise(clip, noise)).text
    return transcript_change(before, after, mode), before, after


def detect(cfg: DetectionConfig, clip: AudioClip) -> DetectionOutcome:
    """Compare the change rate against the threshold.

    The clip is heard plain once. With votes > 1, independent noise draws are
    scored and the median CR is used; for an odd vote count that equals the
    majority verdict.
    """
    before = transcribe(cfg.recognizer, clip).text
    afters, crs = [], []
    for i in range(cfg.votes):
        noise = (cfg.noise if cfg.votes == 1
                 else replace(cfg.noise, seed=derive_seed(cfg.noise.seed, "vote", i)))
        afters.append(transcribe(cfg.recognizer, add_noise(clip, noise)).text)
        crs.append(transcript_change(before, afters[-1], cfg.cr_mode))
    score = float(np.median(crs))
    verdict = "adversarial" if score > cfg.threshold else "normal"
    return DetectionOutcome(cr=score, verdict=verdict,
                            transcript_before=before, transcript_after=afters[0])


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
