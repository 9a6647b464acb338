"""Hearing clip lists plain and noised; change-rate detection, thresholding, ROC/AUC."""

from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby

import numpy as np

from noisegate._kernels import levenshtein
from noisegate.audio import AudioClip
from noisegate.recognition import RecognizerSpec, transcribe_clips
from noisegate.seeds import derive_seed
from noisegate.transforms import NOISE_KINDS, TransformSpec, apply_transform

CR_MODES = ("edit", "flip")
# The most clips heard as one list: a group of a report with its noisy copies and, in a grid,
# a 128 KB gaussian and a 64 KB uniform draw per clip. On `defend` (50-clip groups), 10-clip
# lists cut CPU but sped the host probe more (3.5-10.8% fewer predictions per kprobe); one
# call-wide draw mapping added 6.3-7.6 MB peak RSS.
HEAR_BLOCK = 64


def hear_rows(hear, clips, rows):
    """`hear` (clips -> a label or transcript per clip) of `clips` after each row of
    per-clip specs (None: the plain clip), one list per row: the one place a list of
    clips is noised and heard. It hears `HEAR_BLOCK` clips at a time, block by block
    and row by row; within a block, noise specs that share a kind and seed share its
    draw. A row not as long as `clips` is a ValueError before anything is heard."""
    if any(len(row) != len(clips) for row in rows):
        raise ValueError(f"each row needs one spec per clip ({len(clips)})")
    heard = [[] for _ in rows]
    for start in range(0, len(clips), HEAR_BLOCK):
        block = [row[start:start + HEAR_BLOCK] for row in rows]
        # a draw is kept only when its kind and seed come back, and for one block only
        seeds = [(s.kind, s.seed) for row in block for s in row if s and s.kind in NOISE_KINDS]
        units = {} if len(set(seeds)) < len(seeds) else None
        for out, row in zip(heard, block):
            out += hear([clip if spec is None else apply_transform(spec, clip, units)
                         for spec, clip in zip(row, clips[start:start + HEAR_BLOCK])])
    return heard


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


def change_rate(recognizer: RecognizerSpec, clip: AudioClip, noise: TransformSpec,
                mode: str = "edit"):
    """(cr, transcript_before, transcript_after) of one clip and one noise draw."""
    (before,), (after,) = hear_rows(partial(transcribe_clips, recognizer), [clip], [[None], [noise]])
    return transcript_change(before, after, mode), before, after


def detect_clips(cfg: DetectionConfig, clips, noise_seeds) -> list:
    """A DetectionOutcome per clip: the median change rate over its votes (for an
    odd count, the majority verdict) against the threshold. Vote v of clip i
    draws `cfg.noise` seeded by `derive_seed(noise_seeds[i], "vote", v)`, or by
    `noise_seeds[i]` itself when `votes` is 1.
    """
    draws = [[replace(cfg.noise, seed=seed if cfg.votes == 1 else derive_seed(seed, "vote", v))
              for seed in noise_seeds] for v in range(cfg.votes)]
    plain, *noisy = hear_rows(partial(transcribe_clips, cfg.recognizer), clips,
                              [[None] * len(clips), *draws])
    crs = [[transcript_change(before, after, cfg.cr_mode) for before, after in zip(plain, afters)]
           for afters in noisy]
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
