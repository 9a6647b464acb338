"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`. The expensive artifacts
(synthetic corpus, trained model, adversarial sets) are built once per
session and shared across criteria.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from noisegate import classifier as clf
from noisegate._kernels import levenshtein as lev_fast
from noisegate.attacks import GaConfig, PgdConfig, ga_attack, pgd_attack
from noisegate.audio import AudioClip, read_wav
from noisegate.classifier import Model, TrainConfig, predict, train
from noisegate.detection import DetectionConfig, detect_clips
from noisegate.experiments import (
    ExperimentConfig,
    attack_manifest,
    pick_targets,
    run_detection_eval,
    run_intensity_sweep,
    run_transform_comparison,
)
from noisegate.manifests import Manifest
from noisegate.recognition import RecognizerSpec
from noisegate.seeds import derive_seed
from noisegate.synthesis import synth_dataset
from noisegate.transforms import TransformSpec, add_noise, low_pass, quantize, requantize_8bit

from helpers import differences, digests, loss_and_gradient

pytestmark = pytest.mark.acceptance

MASTER_SEED = 20240808
GRID = (10, 30, 50, 70, 100, 200, 500)

# Adversarial-set generation for the devastation/dominance/detection criteria
# uses the default literature-scale search noise (mutation range 150, 8
# randomized bits at init); STRONG_GA differs from the default only in k_max.
# The potency criterion itself runs the default GaConfig, faithfully.
STRONG_GA = GaConfig(k_max=350, mutation_range=150, init_noise_bits=8)


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_corpus")
    manifest = synth_dataset(10, 100, seed=MASTER_SEED, out_dir=out)
    return manifest


@pytest.fixture(scope="session")
def trained(corpus):
    dataset = [(read_wav(corpus.resolve(row)), row.label) for row in corpus.rows]
    history = []
    start = time.monotonic()
    model = train(dataset, TrainConfig(seed=3), progress=history.append)
    elapsed = time.monotonic() - start
    return model, history, elapsed


@pytest.fixture(scope="session")
def clean_eval(corpus):
    # 10 clips per class for the evaluation side
    return Manifest(rows=corpus.rows[::10], base_dir=corpus.base_dir)


@pytest.fixture(scope="session")
def strong_adv(tmp_path_factory, corpus, trained):
    model, _, _ = trained
    out = tmp_path_factory.mktemp("strong_adv")
    rng = np.random.default_rng(MASTER_SEED + 1)
    pick = rng.choice(len(corpus.rows), 44, replace=False)
    subset = Manifest(rows=[corpus.rows[i] for i in pick], base_dir=corpus.base_dir)
    results, adv_manifest = attack_manifest(
        model, subset, "ga", out, master_seed=MASTER_SEED + 2, ga_cfg=STRONG_GA
    )
    return results, adv_manifest


def test_criterion_edit_distance_oracle():
    def oracle(a, b):
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            table[i][0] = i
        for j in range(len(b) + 1):
            table[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                                  table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
        return table[-1][-1]

    rng = np.random.default_rng(MASTER_SEED)
    alphabet = "abcdefg "

    def random_string():
        n = int(rng.integers(0, 51))
        return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), n))

    start = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        a, b = random_string(), random_string()
        if lev_fast(a, b) != oracle(a, b):
            mismatches += 1
    axiom_failures = 0
    for _ in range(1000):
        a, b, c = random_string(), random_string(), random_string()
        dab, dba = lev_fast(a, b), lev_fast(b, a)
        if dab < 0 or dab != dba or lev_fast(a, a) != 0:
            axiom_failures += 1
        if lev_fast(a, c) > dab + lev_fast(b, c):
            axiom_failures += 1
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and axiom_failures == 0 and elapsed < 5.0
    report("edit-distance-oracle", ok,
           f"(mismatches={mismatches}, axiom_failures={axiom_failures}, {elapsed:.1f}s < 5s)")


def test_criterion_gradient_check():
    rng = np.random.default_rng(MASTER_SEED + 10)
    start = time.monotonic()
    worst = 0.0
    for trial in range(20):
        dims = [int(rng.integers(6, 14)), int(rng.integers(5, 10)),
                int(rng.integers(4, 8)), int(rng.integers(3, 6))]
        labels = [f"c{i}" for i in range(dims[-1])]
        weights, biases = [], []
        for fi, fo in zip(dims[:-1], dims[1:]):
            r = math.sqrt(6.0 / (fi + fo))
            weights.append(rng.uniform(-r, r, (fo, fi)))
            biases.append(rng.normal(0.0, 0.1, fo))
        model = Model(layer_dims=dims, weights=weights, biases=biases, class_labels=labels)
        feats = rng.normal(0.0, 2.0, (dims[0] // 2, 2)) if dims[0] % 2 == 0 \
            else rng.normal(0.0, 2.0, (dims[0], 1))
        label = labels[int(rng.integers(0, len(labels)))]
        _, grads, input_grad = loss_and_gradient(model, feats, label)
        eps = 1e-4

        def loss_now():
            return loss_and_gradient(model, feats, label)[0]

        arrays = []
        for li, (gw, gb) in enumerate(grads):
            arrays.append((model.weights[li], gw))
            arrays.append((model.biases[li], gb))
        arrays.append((feats, input_grad))
        for arr, analytic in arrays:
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                keep = arr[ix]
                arr[ix] = keep + eps
                hi = loss_now()
                arr[ix] = keep - eps
                lo = loss_now()
                arr[ix] = keep
                fd = (hi - lo) / (2 * eps)
                denom = max(abs(analytic[ix]), abs(fd))
                if denom > 1e-10:
                    worst = max(worst, abs(analytic[ix] - fd) / denom)
    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 30.0
    report("gradient-check", ok, f"(worst rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 30s)")


def test_criterion_toy_training(trained):
    model, history, elapsed = trained
    val = history[-1].validation_accuracy
    ok = val is not None and val >= 0.95 and elapsed < 120.0
    report("toy-training", ok, f"(held-out ACC {val:.3f} >= 0.95, {elapsed:.0f}s < 120s)")


def test_example_predict_confidence(corpus, trained):
    """Contract example for predict(): correct label with score > 0.5 on at
    least 90% of synthetic clips."""
    model, _, _ = trained
    sample = corpus.rows[::7]
    confident = 0
    for row in sample:
        label, score = predict(model, read_wav(corpus.resolve(row)))
        confident += (label == row.label and score > 0.5)
    fraction = confident / len(sample)
    print(f"\nACCEPTANCE example-predict-confidence: "
          f"{'PASS' if fraction >= 0.90 else 'FAIL'} ({fraction:.2%} of {len(sample)})")
    assert fraction >= 0.90


def test_example_pgd_matches_or_beats_ga(corpus, trained):
    """Contract example for pgd_attack(): with a loose budget (tau = 0 dB)
    the gradient attack succeeds at least as often as the genetic attack on
    the same pairs."""
    model, _, _ = trained
    rng = np.random.default_rng(MASTER_SEED + 20)  # same pairs as the potency run
    pick = rng.choice(len(corpus.rows), 20, replace=False)
    ga_wins = pgd_wins = 0
    for k, i in enumerate(pick):
        row = corpus.rows[int(i)]
        clip = read_wav(corpus.resolve(row))
        pool = [l for l in model.class_labels if l != row.label]
        target = pool[int(rng.integers(0, len(pool)))]
        ga_wins += ga_attack(model, clip, target,
                             GaConfig(k_max=40,
                                      seed=derive_seed(MASTER_SEED, "cmp", k))).success
        pgd_wins += pgd_attack(model, clip, target,
                               PgdConfig(tau=0.0, steps=60, step_size=16)).success
    print(f"\nACCEPTANCE example-pgd-vs-ga: "
          f"{'PASS' if pgd_wins >= ga_wins else 'FAIL'} (pgd {pgd_wins}/20, ga {ga_wins}/20)")
    assert pgd_wins >= ga_wins


def test_criterion_ga_attack_potency(corpus, trained):
    model, _, _ = trained
    rng = np.random.default_rng(MASTER_SEED + 20)
    pick = rng.choice(len(corpus.rows), 20, replace=False)
    start = time.monotonic()
    wins = 0
    for k, i in enumerate(pick):
        row = corpus.rows[int(i)]
        clip = read_wav(corpus.resolve(row))
        pool = [l for l in model.class_labels if l != row.label]
        target = pool[int(rng.integers(0, len(pool)))]
        res = ga_attack(model, clip, target,
                        GaConfig(seed=derive_seed(MASTER_SEED, "potency", k)))
        wins += res.success
    elapsed = time.monotonic() - start
    rate = wins / 20
    ok = rate >= 0.80 and elapsed < 600.0
    report("ga-attack-potency", ok,
           f"(default GaConfig: {wins}/20 = {rate:.0%} targeted success, {elapsed:.0f}s)")


def test_diagnostic_ga_potency_at_literature_scale(corpus, trained):
    """Not a criterion: shows the genetic machinery is sound when the search
    noise matches the cited attack's scale (see the potency criterion)."""
    model, _, _ = trained
    rng = np.random.default_rng(MASTER_SEED + 30)
    pick = rng.choice(len(corpus.rows), 8, replace=False)
    wins = 0
    for k, i in enumerate(pick):
        row = corpus.rows[int(i)]
        clip = read_wav(corpus.resolve(row))
        pool = [l for l in model.class_labels if l != row.label]
        target = pool[int(rng.integers(0, len(pool)))]
        res = ga_attack(model, clip, target,
                        replace(STRONG_GA, k_max=500,
                                seed=derive_seed(MASTER_SEED, "diag", k)))
        wins += res.success
    print(f"\nACCEPTANCE diagnostic-ga-literature-scale: "
          f"{'PASS' if wins >= 6 else 'FAIL'} ({wins}/8 at mutation_range=150)")
    assert wins >= 6


def test_criterion_devastation_trend(tmp_path, trained, clean_eval, strong_adv):
    model, _, _ = trained
    _, adv_manifest = strong_adv
    assert len(adv_manifest) >= 20, "too few successful adversarial examples"
    cfg = ExperimentConfig(master_seed=MASTER_SEED + 3, grid=GRID, out_dir=str(tmp_path))
    sweep = run_intensity_sweep(cfg, clean_eval, adv_manifest, model=model)
    rows = {(r[0], r[1]): (r[2], r[3]) for r in sweep.rows}
    gaussian = [(i, *rows[("gaussian", i)]) for i in GRID]

    undefended = run_transform_comparison(
        ExperimentConfig(master_seed=MASTER_SEED + 3, transforms=("requant8",),
                         out_dir=str(tmp_path / "nd")),
        clean_eval, adv_manifest, model=model,
    ).rows[0]
    base_acc = undefended[2]

    asrs = [a for _, a, _ in gaussian]
    monotone = all(b <= a + 3.0 for a, b in zip(asrs, asrs[1:]))
    best_i, best_asr, best_acc = min(gaussian, key=lambda row: (row[1], -row[2]))
    ok = monotone and best_asr < 15.0 and best_acc >= base_acc - 5.0
    report(
        "devastation-trend", ok,
        f"(gaussian ASR {['%.1f' % a for a in asrs]}, monotone<=3pt {monotone}; "
        f"best intensity {best_i}: ASR {best_asr:.1f} < 15, "
        f"ACC {best_acc:.1f} vs undefended {base_acc:.1f})",
    )


def test_criterion_defense_dominance(tmp_path, trained, clean_eval, strong_adv):
    model, _, _ = trained
    _, adv_manifest = strong_adv
    cfg = ExperimentConfig(master_seed=MASTER_SEED + 4, out_dir=str(tmp_path))
    comparison = run_transform_comparison(cfg, clean_eval, adv_manifest, model=model)
    base = comparison.rows[0][1]
    below = {row[0]: row[1] for row in comparison.rows[1:]}
    ok = all(v < base for v in below.values())
    report("defense-dominance", ok,
           f"(no-defense ASR {base:.1f}; defended " +
           ", ".join(f"{k}={v:.1f}" for k, v in below.items()) + ")")


def test_criterion_detection_quality(tmp_path, trained, clean_eval, strong_adv):
    model, _, _ = trained
    _, adv_manifest = strong_adv
    model_path = tmp_path / "model.txt"
    clf.save(model, model_path)
    recognizer = RecognizerSpec.builtin(str(model_path))
    cfg = ExperimentConfig(master_seed=MASTER_SEED + 5, grid=GRID,
                           recognizer=recognizer, out_dir=str(tmp_path))
    cells = run_detection_eval(cfg, clean_eval, adv_manifest)
    defined = {k: v for k, v in cells.items() if v is not None}
    (kind, intensity), best = max(defined.items(), key=lambda kv: kv[1].auc)

    # fresh noise draws at the tuned cell, thresholded at its Youden point
    detect_cfg = DetectionConfig(noise=TransformSpec(kind, (intensity,)),
                                 threshold=best.youden_threshold, recognizer=recognizer)
    hits = {}
    for group, manifest, want in (("clean", clean_eval, "normal"),
                                  ("adv", adv_manifest, "adversarial")):
        outcomes = detect_clips(
            detect_cfg, [read_wav(manifest.resolve(row)) for row in manifest.rows],
            [derive_seed(MASTER_SEED, "verdict", group, idx) for idx in range(len(manifest))])
        hits[group] = sum(outcome.verdict == want for outcome in outcomes)
    tp, tn = hits["adv"], hits["clean"]
    tpr = tp / len(adv_manifest)
    tnr = tn / len(clean_eval)
    ok = best.auc >= 0.90 and tpr >= 0.90 and tnr >= 0.90
    report("detection-quality", ok,
           f"(best cell {kind}:{intensity} AUC {best.auc:.3f} >= 0.90; "
           f"Youden K={best.youden_threshold:.3f}: TPR {tpr:.2%}, TNR {tnr:.2%})")


def test_criterion_pgd_feasibility(trained, clean_eval):
    model, _, _ = trained
    rng = np.random.default_rng(MASTER_SEED + 40)
    violations = 0
    audited = 0
    for tau in (-30.0, -20.0, 0.0):
        for k in range(4):
            row = clean_eval.rows[int(rng.integers(0, len(clean_eval.rows)))]
            clip = read_wav(clean_eval.resolve(row))
            pool = [l for l in model.class_labels if l != row.label]
            target = pool[int(rng.integers(0, len(pool)))]
            res = pgd_attack(model, clip, target,
                             PgdConfig(tau=tau, steps=40, step_size=16))
            audited += len(res.distortion_trace)
            violations += sum(1 for d in res.distortion_trace if d > tau + 1e-9)
            if res.distortion_db > tau + 1e-9:
                violations += 1
    ok = violations == 0
    report("pgd-feasibility", ok,
           f"({audited} audited iterates across taus -30/-20/0 dB, {violations} violations)")


def _run_small_pipeline(root: Path, seed=MASTER_SEED):
    """Synth, train, GA and stock PGD attacks, command-mode sweep and builtin ROC under
    `root`, all seeded by `seed`; returns the GA and the PGD adversarial manifests."""
    corpus_dir = root / "corpus"
    manifest = synth_dataset(3, 4, seed=seed, out_dir=corpus_dir)
    dataset = [(read_wav(manifest.resolve(row)), row.label) for row in manifest.rows]
    model = train(dataset, TrainConfig(epochs=20, seed=5))
    clf.save(model, root / "model.txt")
    subset = Manifest(rows=manifest.rows[:3], base_dir=manifest.base_dir)
    _, attacked = attack_manifest(model, subset, "ga", root / "adv", master_seed=seed,
                                  ga_cfg=replace(STRONG_GA, k_max=25, population_size=12))
    _, searched = attack_manifest(model, subset, "pgd", root / "adv_pgd", master_seed=seed)
    adv = attacked
    if not adv.rows:  # keep the pipeline total even if no attack lands: the clean clips,
        # each with the target its attack was given, as the command-mode sweep needs
        targets = pick_targets(model, subset, seed)
        adv = Manifest(rows=[replace(row, target=t) for row, t in zip(subset.rows, targets)],
                       base_dir=subset.base_dir)
    sweep_cfg = ExperimentConfig(master_seed=seed, grid=(10, 50),
                                 out_dir=str(root / "out"))
    run_intensity_sweep(sweep_cfg, manifest, adv, model=model)
    detect_cfg = ExperimentConfig(
        master_seed=seed, grid=(10, 50),
        recognizer=RecognizerSpec.builtin(str(root / "model.txt")),
        out_dir=str(root / "out"),
    )
    run_detection_eval(detect_cfg, manifest, adv)
    return attacked, searched


def test_criterion_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _, searched = _run_small_pipeline(a)
    _run_small_pipeline(b)
    files = digests(a)
    compared, mismatched = len(files), differences(files, digests(b))
    # the byte compare covers a searched example: a landed PGD WAV unlike its source
    corpus = a / "corpus"
    changed = sum(read_wav(searched.resolve(row)) != read_wav(corpus / row.source)
                  for row in searched.rows)
    ok = compared > 0 and not mismatched and changed > 0
    report("determinism", ok,
           f"({compared} files byte-compared across two full runs, {changed} landed PGD "
           f"WAVs unlike their sources" + (f"; mismatches: {mismatched}" if mismatched else "")
           + ")")


def test_determinism_when_no_attack_lands(tmp_path):
    # at master seed 1 no attack of the small pipeline lands; its fallback set used to
    # reach the command-mode sweep without targets and raise
    a, b = tmp_path / "a", tmp_path / "b"
    assert not _run_small_pipeline(a, seed=1)[0].rows
    assert not _run_small_pipeline(b, seed=1)[0].rows
    files = digests(a)
    assert len(files) > 0
    assert differences(files, digests(b)) == []


def test_criterion_transform_properties():
    rng = np.random.default_rng(MASTER_SEED + 50)

    idempotent_ok = True
    length_ok = True
    for _ in range(20):
        clip = AudioClip(samples=rng.integers(-32768, 32768, 1600, dtype=np.int16),
                         sample_rate_hz=16000)
        once = requantize_8bit(clip)
        idempotent_ok &= requantize_8bit(once) == once
        q = quantize(clip, 256)
        idempotent_ok &= quantize(q, 256) == q
        for spec_text in ("uniform:70", "gaussian:70", "requant8", "lowpass:4000:31",
                          "downup:2", "median:3", "quant:512"):
            from noisegate.transforms import apply_transform, parse_transform

            length_ok &= len(apply_transform(parse_transform(spec_text, seed=1), clip)) == len(clip)

    # Kolmogorov-Smirnov distance of the gaussian sampler at one million draws
    silence = AudioClip(samples=np.zeros(1_000_000, dtype=np.int16), sample_rate_hz=16000)
    noisy = add_noise(silence, TransformSpec("gaussian", (100,), seed=MASTER_SEED))
    draws = np.sort(noisy.samples.astype(np.float64))
    values, counts = np.unique(draws, return_counts=True)
    cum = np.cumsum(counts) / draws.size
    theory = np.array([0.5 * (1.0 + math.erf(v / (100.0 * math.sqrt(2.0)))) for v in values])
    ks = float(np.max(np.maximum(np.abs(cum - theory),
                                 np.abs(np.concatenate([[0.0], cum[:-1]]) - theory))))

    t = np.arange(16000) / 16000
    tone7k = AudioClip(
        samples=np.round(10000 * np.sin(2 * np.pi * 7000 * t)).astype(np.int16),
        sample_rate_hz=16000,
    )
    filtered = low_pass(tone7k, 4000, 101)
    rms_in = float(np.sqrt(np.mean(tone7k.samples.astype(np.float64) ** 2)))
    rms_out = float(np.sqrt(np.mean(filtered.samples.astype(np.float64) ** 2)))
    attenuation = 1.0 - rms_out / rms_in

    ok = idempotent_ok and length_ok and ks < 0.01 and attenuation >= 0.95
    report("transform-properties", ok,
           f"(idempotence {idempotent_ok}, length {length_ok}, "
           f"KS {ks:.4f} < 0.01, 7 kHz attenuation {attenuation:.2%} >= 95%)")
