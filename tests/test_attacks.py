import copy
import math

import numpy as np
import pytest

from noisegate import attacks, classifier
from noisegate.attacks import (
    AttackResult,
    GaConfig,
    PgdConfig,
    _bernoulli_positions,
    _breed,
    _forward_with_backward,
    ga_attack,
    pgd_attack,
)
from noisegate.audio import (
    I16_MAX,
    I16_MIN,
    SILENT_PERTURBATION,
    AudioClip,
    SilentCarrierError,
    db_distortion,
    peak_amplitude,
    relative_peak_db,
)
from noisegate.classifier import Model, pad_or_trim, predict, predict_samples_batch
from noisegate.features import mfcc_batch

from helpers import loss_and_gradient

RATE = 16000


def wrong_label(model, label):
    return next(l for l in model.class_labels if l != label)


def deltas_of(res, clip):
    """The result's perturbation: its adversarial clip minus the original."""
    return res.adversarial.samples.astype(np.int32) - clip.samples.astype(np.int32)


class TestGaConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=1)
        with pytest.raises(ValueError):
            GaConfig(k_max=0)
        with pytest.raises(ValueError):
            GaConfig(temp=0.0)
        with pytest.raises(ValueError):
            GaConfig(mutation_probability=1.5)
        with pytest.raises(ValueError):
            GaConfig(init_noise_bits=16)
        for temp in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="temp"):
                GaConfig(temp=temp)


class TestGaAttack:
    def test_unknown_target_rejected(self, tiny_model, tiny_clips):
        _, clip = tiny_clips[0]
        with pytest.raises(ValueError, match="unknown label"):
            ga_attack(tiny_model, clip, "doesnotexist", GaConfig(k_max=1))

    def test_silent_original_rejected(self, tiny_model):
        silent = AudioClip(samples=np.zeros(RATE, dtype=np.int16), sample_rate_hz=RATE)
        with pytest.raises(SilentCarrierError, match="silent"):
            ga_attack(tiny_model, silent, tiny_model.class_labels[0], GaConfig(k_max=1))

    def test_immediate_success_when_already_target(self, tiny_model, tiny_clips):
        _, clip = tiny_clips[0]
        label, _ = predict(tiny_model, clip)
        res = ga_attack(tiny_model, clip, label, GaConfig(seed=1))
        assert res.success
        assert res.iterations_used == 0
        assert np.all(deltas_of(res, clip) == 0)
        assert res.distortion_db == SILENT_PERTURBATION
        assert res.adversarial == clip

    def test_an_original_heard_as_its_target_is_scored_once(self, tiny_model, tiny_clips,
                                                             monkeypatch):
        _, clip = tiny_clips[0]
        label, _ = predict(tiny_model, clip)
        calls, predict_batch = [], classifier.predict_samples_batch

        def spy(*args, **kwargs):
            calls.append(kwargs.get("dtype", np.float64))
            return predict_batch(*args, **kwargs)

        # every scoring, through `classifier` or through the name `attacks` imported
        monkeypatch.setattr(classifier, "predict_samples_batch", spy)
        monkeypatch.setattr(attacks, "predict_samples_batch", spy)
        res = ga_attack(tiny_model, clip, label, GaConfig(seed=1))
        assert res.success and res.iterations_used == 0
        assert calls == [np.float64]

    def test_a_denied_landing_breeds_on(self, tiny_model, tiny_clips, monkeypatch):
        _, clip = tiny_clips[0]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        target_idx = tiny_model.label_index(target)
        cfg = GaConfig(k_max=60, population_size=10, seed=3)
        landed = ga_attack(tiny_model, clip, target, cfg)
        assert landed.success and 1 <= landed.iterations_used < cfg.k_max
        denials, predict_batch = [], attacks.predict_samples_batch

        def deny_once(*args, **kwargs):
            probs = predict_batch(*args, **kwargs)
            landing = (kwargs.get("dtype", np.float64) == np.float64 and len(probs) == 1
                       and int(np.argmax(probs[0])) == target_idx)
            if landing and not denials:  # the first float64 landing reads the target as 0
                denials.append(probs.copy())
                probs[0, target_idx] = 0.0
            return probs

        monkeypatch.setattr(attacks, "predict_samples_batch", deny_once)
        res = ga_attack(tiny_model, clip, target, cfg)
        assert denials
        # the run breeds on from the generation the denied landing was claimed at
        assert res.iterations_used > landed.iterations_used
        assert res.fitness_trace[:len(landed.fitness_trace)] == landed.fitness_trace
        assert res.success or res.iterations_used == cfg.k_max
        assert res.success == (predict(tiny_model, res.adversarial)[0] == target)

    def test_deterministic_given_seed(self, tiny_model, tiny_clips):
        row, clip = tiny_clips[0]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        cfg = GaConfig(k_max=3, population_size=8, seed=99)
        a = ga_attack(tiny_model, clip, target, cfg)
        b = ga_attack(tiny_model, clip, target, cfg)
        assert a.success == b.success
        assert a.iterations_used == b.iterations_used
        assert a.adversarial == b.adversarial
        assert a.fitness_trace == b.fitness_trace

    def test_result_invariants(self, tiny_model, tiny_clips):
        row, clip = tiny_clips[1]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        res = ga_attack(tiny_model, clip, target, GaConfig(k_max=4, population_size=8, seed=3))
        assert len(res.adversarial) == len(clip)
        assert res.adversarial.sample_rate_hz == clip.sample_rate_hz
        assert res.adversarial.samples.dtype == np.int16
        assert res.success == (predict(tiny_model, res.adversarial)[0] == target)
        assert 0.0 <= res.final_target_score <= 1.0

    def test_init_perturbation_is_single_lsb(self, tiny_model, tiny_clips):
        # with one LSB randomized, mutation off, and a single generation, the
        # returned best-so-far is an initial candidate
        row, clip = tiny_clips[2]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        res = ga_attack(tiny_model, clip, target,
                        GaConfig(k_max=1, population_size=6, mutation_probability=0.0,
                                 init_noise_bits=1, seed=5))
        if not res.success:
            assert int(np.abs(deltas_of(res, clip)).max()) <= 1

    def test_widest_init_noise_keeps_the_sign_bit(self, tiny_model, tiny_clips):
        row, clip = tiny_clips[2]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        res = ga_attack(tiny_model, clip, target,
                        GaConfig(k_max=1, population_size=4, mutation_probability=0.0,
                                 init_noise_bits=15, seed=6))
        if not res.success:
            assert np.array_equal(res.adversarial.samples < 0, clip.samples < 0)

    def test_elitism_keeps_best_fitness_monotone(self, tiny_model, tiny_clips):
        # LSB-scale search keeps this run unsuccessful for all 25 generations
        row, clip = tiny_clips[3]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        res = ga_attack(tiny_model, clip, target,
                        GaConfig(k_max=25, population_size=10, seed=11,
                                 mutation_range=2, init_noise_bits=1))
        trace = res.fitness_trace
        assert trace is not None and len(trace) >= 1
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        if not res.success:
            # the carried score still belongs to the returned elite; the trace
            # is float32-feature fitness, the result is re-scored in float64
            assert res.final_target_score == pytest.approx(max(trace), abs=1e-5)

    def test_exhausted_run_breeds_only_generations_it_scores(self, tiny_model, tiny_clips,
                                                              monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return _breed(*args)

        monkeypatch.setattr(attacks, "_breed", counted)
        row, clip = tiny_clips[3]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        res = ga_attack(tiny_model, clip, target,
                        GaConfig(k_max=5, population_size=10, seed=11,
                                 mutation_range=2, init_noise_bits=1))
        assert not res.success and res.iterations_used == 5
        assert len(res.fitness_trace) == 5
        assert len(calls) == 4

    def test_exhaustion_is_not_an_error(self, tiny_model, tiny_clips):
        row, clip = tiny_clips[4]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        res = ga_attack(tiny_model, clip, target,
                        GaConfig(k_max=2, population_size=4, seed=13))
        assert isinstance(res, AttackResult)
        if not res.success:
            assert res.iterations_used == 2


class TestBreeding:
    def test_bernoulli_positions_increasing_and_in_range(self):
        rng = np.random.default_rng(0)
        for total, p in ((1, 0.5), (100, 0.3), (5000, 0.001), (1000, 0.9)):
            hits = _bernoulli_positions(rng, total, p)
            assert np.all(np.diff(hits) > 0)
            assert hits.size == 0 or (hits[0] >= 0 and hits[-1] < total)

    def test_bernoulli_positions_edges(self):
        rng = np.random.default_rng(1)
        assert _bernoulli_positions(rng, 1000, 0.0).size == 0
        assert np.array_equal(_bernoulli_positions(rng, 1000, 1.0), np.arange(1000))
        assert _bernoulli_positions(rng, 0, 0.5).size == 0

    def test_bernoulli_hit_count_is_binomial(self):
        # the stock population's child block: 49 children x 16,000 samples
        total, p = 49 * 16000, 0.005
        mean, sd = total * p, math.sqrt(total * p * (1 - p))
        rng = np.random.default_rng(2)
        counts = [_bernoulli_positions(rng, total, p).size for _ in range(20)]
        assert all(abs(c - mean) < 5 * sd for c in counts)
        assert abs(np.mean(counts) - mean) < 5 * sd / math.sqrt(len(counts))

    def test_child_samples_come_from_two_parents_at_the_same_index(self):
        size, n = 8, 3000
        rng = np.random.default_rng(3)
        # row i holds only values congruent to i mod size, so a value names its row
        pop = (rng.integers(-3000, 3000, (size, n)) * size + np.arange(size)[:, None])
        pop = pop.astype(np.int16)
        selection = np.full(size, 1.0 / size)
        children = _breed(pop, selection, size - 1, np.random.default_rng(4),
                          GaConfig(mutation_probability=0.0))
        assert children.shape == (size - 1, n) and children.dtype == np.int16
        for child in children:
            source = child.astype(np.int64) % size
            assert np.array_equal(child, pop[source, np.arange(n)])
            assert len(set(source.tolist())) <= 2

    def test_mutation_is_bounded_and_clipped(self):
        pop = np.full((4, 2000), 32760, dtype=np.int16)
        pop[2:] = -32760
        children = _breed(pop, np.full(4, 0.25), 4, np.random.default_rng(5),
                          GaConfig(mutation_probability=1.0, mutation_range=150))
        for child in children:
            base = np.where(child > 0, 32760, -32760)
            assert np.all(np.abs(child.astype(np.int32) - base) <= 150)
        assert children.max() == 32767 and children.min() == -32768


class TestPgdConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PgdConfig(steps=0)
        with pytest.raises(ValueError):
            PgdConfig(step_size=0)
        for tau in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="tau"):
                PgdConfig(tau=tau)


class TestPgdAttack:
    def test_silent_original_rejected(self, tiny_model):
        silent = AudioClip(samples=np.zeros(RATE, dtype=np.int16), sample_rate_hz=RATE)
        with pytest.raises(SilentCarrierError, match="silent"):
            pgd_attack(tiny_model, silent, tiny_model.class_labels[0], PgdConfig(steps=1))

    def test_feature_gradient_is_the_classifier_input_gradient(self, tiny_model, tiny_clips,
                                                               monkeypatch):
        _, clip = tiny_clips[3]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        samples = clip.samples.astype(np.float64)
        seen = []
        backprop = attacks.mfcc_backprop
        monkeypatch.setattr(attacks, "mfcc_backprop",
                            lambda grad, cache: seen.append(grad) or backprop(grad, cache))
        target_idx = tiny_model.label_index(target)
        probs, backward = _forward_with_backward(tiny_model, samples, RATE, np.float32)
        backward(target_idx)
        # the MLP runs in float64 on the row's float32 MFCC
        feats = mfcc_batch(clip.samples[None, :], RATE, dtype=np.float32)[0]
        want_loss, _, want_grad = loss_and_gradient(tiny_model, feats, target)
        assert -math.log(max(probs[target_idx], 1e-300)) == want_loss
        assert np.array_equal(seen[0], want_grad)

    def test_float32_gradient_has_the_float64_sign(self, tiny_model, tiny_clips):
        # the sign step reads only the sign, wherever the gradient is not negligible;
        # the float32 copy of the MLP is the one pgd_attack steps on
        search = _float32_model(tiny_model)
        for _, clip in tiny_clips:
            target_idx = tiny_model.label_index(
                wrong_label(tiny_model, predict(tiny_model, clip)[0]))
            samples = pad_or_trim(clip.samples.astype(np.float64), RATE)
            grads = []
            for model, dtype in ((tiny_model, np.float32), (search, np.float32),
                                 (tiny_model, np.float64)):
                _, backward = _forward_with_backward(model, samples, RATE, dtype)
                grads.append(backward(target_idx))
            *low, exact = grads
            assert [g.dtype for g in grads] == [np.float32, np.float32, np.float64]
            large = np.abs(exact) > 1e-3 * np.abs(exact).max()
            assert large.sum() > 0.5 * large.size
            for grad in low:
                assert np.array_equal(np.sign(grad[large]), np.sign(exact[large]))

    def test_a_float32_model_runs_the_mlp_in_float32(self, tiny_model, tiny_clips,
                                                     monkeypatch):
        model = _float32_model(tiny_model)
        _, clip = tiny_clips[3]
        target_idx = model.label_index(wrong_label(model, predict(tiny_model, clip)[0]))
        seen = []
        backprop = attacks.mfcc_backprop
        monkeypatch.setattr(attacks, "mfcc_backprop",
                            lambda grad, cache: seen.append(grad) or backprop(grad, cache))
        samples = pad_or_trim(clip.samples.astype(np.float64), RATE)
        probs, backward = _forward_with_backward(model, samples, RATE, np.float32)
        grad = backward(target_idx)
        # the same forward and backward, written out in numpy on float32 rows
        h = mfcc_batch(samples[None, :], RATE, dtype=np.float32).reshape(1, -1)
        activations = [h]
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = h @ w.T + b
            h = z if i == len(model.weights) - 1 else np.maximum(z, np.float32(0.0))
            activations.append(h)
        e = np.exp(h - h.max())
        want = e / e.sum()
        delta = want.copy()
        delta[0, target_idx] -= 1.0
        for i in range(len(model.weights) - 1, 0, -1):
            delta = (delta @ model.weights[i]) * (activations[i] > 0.0)
        delta = delta @ model.weights[0]
        assert probs.dtype == seen[0].dtype == grad.dtype == np.float32
        assert np.array_equal(probs, want[0])
        assert np.array_equal(seen[0], delta[0].reshape(seen[0].shape))

    def test_each_attack_hears_the_model_as_it_is(self, tiny_model, tiny_clips):
        model = copy.deepcopy(tiny_model)
        _, clip = tiny_clips[1]
        target = wrong_label(model, predict(model, clip)[0])
        cfg = PgdConfig(tau=-70.0, steps=6, step_size=1)
        assert pgd_attack(model, clip, target, cfg).iterations_used == cfg.steps
        # an in-place edit, as `train` makes, that makes every row the target
        model.biases[-1][model.label_index(target)] += 1e3
        res = pgd_attack(model, clip, target, cfg)
        # the float32 forward after the first step claims the landing; a copy kept
        # from the first call would not, and the run would step on to the end
        assert res.success and res.iterations_used == 1

    def test_distortion_is_db_distortion(self, tiny_model, tiny_clips):
        _, clip = tiny_clips[4]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        res = pgd_attack(tiny_model, clip, target, PgdConfig(tau=0.0, steps=80, step_size=16))
        assert res.success
        assert res.distortion_db == db_distortion(clip, res.adversarial)
        peaks = peak_amplitude(deltas_of(res, clip)), peak_amplitude(clip.samples)
        want = 20.0 * math.log10(peaks[0] / peaks[1])
        assert res.distortion_db == pytest.approx(want, abs=1e-9)

    def test_budget_holds_at_every_iterate(self, tiny_model, tiny_clips):
        row, clip = tiny_clips[5]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        cfg = PgdConfig(tau=-25.0, steps=12, step_size=32)
        res = pgd_attack(tiny_model, clip, target, cfg)
        assert res.distortion_trace is not None
        assert all(d <= cfg.tau + 1e-9 for d in res.distortion_trace)
        assert res.distortion_db <= cfg.tau + 1e-9

    def test_single_unit_step_bounded(self, tiny_model, tiny_clips):
        row, clip = tiny_clips[6]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        res = pgd_attack(tiny_model, clip, target, PgdConfig(tau=0.0, steps=1, step_size=1))
        assert int(np.abs(deltas_of(res, clip)).max()) <= 1

    def test_deterministic(self, tiny_model, tiny_clips):
        row, clip = tiny_clips[7]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        cfg = PgdConfig(tau=-20.0, steps=5, step_size=8)
        a = pgd_attack(tiny_model, clip, target, cfg)
        b = pgd_attack(tiny_model, clip, target, cfg)
        assert a.adversarial == b.adversarial
        assert a.distortion_trace == b.distortion_trace

    def test_finds_target_with_loose_budget(self, tiny_model, tiny_clips):
        # tau 0 dB gives the sign walk plenty of room on a soft model
        wins = 0
        for row, clip in tiny_clips[:4]:
            target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
            res = pgd_attack(tiny_model, clip, target,
                             PgdConfig(tau=0.0, steps=80, step_size=16))
            wins += res.success
        assert wins >= 3


class TestPgdStep:
    """One MFCC forward per step: the iterate is the emitted int16 signal."""

    # (clip index, config) on the tiny model: lands after 6 steps; rescales and runs
    # out; rescales and lands after one step; one step that does not land
    CASES = [(1, PgdConfig(tau=-60.0, steps=30, step_size=1)),
             (2, PgdConfig(tau=-70.0, steps=12, step_size=1)),
             (5, PgdConfig(tau=-60.0, steps=12, step_size=32)),
             (6, PgdConfig(tau=-40.0, steps=1, step_size=4))]

    def _run(self, model, clip, cfg, monkeypatch):
        """The result, the samples each forward saw, the emitted iterates and the
        number of float64 predict_samples_batch calls."""
        seen, iterates, predicts = [], [], []
        forward, pgd_step, predict_batch = (attacks.mfcc_with_gradient_cache,
                                            attacks._pgd_step,
                                            attacks.predict_samples_batch)
        monkeypatch.setattr(attacks, "mfcc_with_gradient_cache",
                            lambda samples, *a: seen.append(samples.copy()) or forward(samples, *a))

        def record_step(*args):
            iterate, peak_delta = pgd_step(*args)
            iterates.append(iterate.copy())
            return iterate, peak_delta

        monkeypatch.setattr(attacks, "_pgd_step", record_step)
        monkeypatch.setattr(attacks, "predict_samples_batch",
                            lambda *a, **k: predicts.append(k.get("dtype", np.float64))
                            or predict_batch(*a, **k))
        target = wrong_label(model, predict(model, clip)[0])
        res = pgd_attack(model, clip, target, cfg)
        assert set(predicts) <= {np.float64}
        return res, seen, iterates, len(predicts)

    @pytest.mark.parametrize("index, cfg", CASES)
    def test_one_forward_per_step(self, tiny_model, tiny_clips, monkeypatch, index, cfg):
        _, clip = tiny_clips[index]
        res, seen, _, predicts = self._run(tiny_model, clip, cfg, monkeypatch)
        assert 1 <= res.iterations_used <= cfg.steps
        stopped_early = res.iterations_used < cfg.steps
        # the float32 forwards after the first that hear the target claim a landing
        target_idx = tiny_model.label_index(res.target)
        claims = sum(predict_samples_batch(tiny_model, row[None, :], RATE, dtype=np.float32)[0]
                     .argmax() == target_idx for row in seen[1:])
        # one float64 predict per run (the confirmed landing, or the re-score of a
        # run that runs out or repeats), plus one per denied landing
        confirmed = stopped_early and res.success
        assert predicts == 1 + claims - confirmed
        # no iterate of these runs repeats, so a run stops early only when the
        # forward after the last step hears the target
        assert not stopped_early or res.success
        assert len(seen) == res.iterations_used + stopped_early

    @pytest.mark.parametrize("index, cfg", CASES)
    def test_a_landing_is_heard_by_predict(self, tiny_model, tiny_clips, index, cfg):
        _, clip = tiny_clips[index]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        res = pgd_attack(tiny_model, clip, target, cfg)
        assert res.success == (predict(tiny_model, res.adversarial)[0] == target)

    def test_a_denied_landing_keeps_stepping(self, tiny_model, tiny_clips, monkeypatch):
        index, cfg = self.CASES[0]
        _, clip = tiny_clips[index]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        landed = pgd_attack(tiny_model, clip, target, cfg)
        assert landed.success and landed.iterations_used < cfg.steps
        denials, predict_batch = [], attacks.predict_samples_batch

        def deny_once(*args, **kwargs):
            probs = predict_batch(*args, **kwargs)
            if not denials:  # the first confirmation reads the target's probability as 0
                denials.append(probs.copy())
                probs[0, tiny_model.label_index(target)] = 0.0
            return probs

        monkeypatch.setattr(attacks, "predict_samples_batch", deny_once)
        res = pgd_attack(tiny_model, clip, target, cfg)
        assert denials and int(np.argmax(denials[0][0])) == tiny_model.label_index(target)
        # the run steps on from the iterate the denied landing was claimed at
        assert res.iterations_used > landed.iterations_used
        assert res.distortion_trace[:landed.iterations_used] == landed.distortion_trace
        assert res.success == (predict(tiny_model, res.adversarial)[0] == target)

    def test_landed_and_exhausted_runs_are_covered(self, tiny_model, tiny_clips, monkeypatch):
        outcomes = set()
        for index, cfg in self.CASES:
            res = self._run(tiny_model, tiny_clips[index][1], cfg, monkeypatch)[0]
            outcomes.add((res.success, res.iterations_used < cfg.steps))
        assert {(True, True), (False, False)} <= outcomes

    @pytest.mark.parametrize("index, cfg", CASES)
    def test_trace_is_the_emitted_distortion(self, tiny_model, tiny_clips, monkeypatch, index,
                                             cfg):
        _, clip = tiny_clips[index]
        res, seen, iterates, _ = self._run(tiny_model, clip, cfg, monkeypatch)
        assert len(iterates) == len(res.distortion_trace) == res.iterations_used
        carrier = peak_amplitude(clip.samples)
        for iterate, entry in zip(iterates, res.distortion_trace):
            # an emitted iterate is a valid 16-bit signal, held in int32
            assert iterate.dtype == np.int32
            assert I16_MIN <= iterate.min() and iterate.max() <= I16_MAX
            deltas = iterate.astype(np.int32) - clip.samples
            assert entry == relative_peak_db(peak_amplitude(deltas), carrier)
        assert np.array_equal(iterates[-1], res.adversarial.samples)
        assert res.distortion_trace[-1] == res.distortion_db
        # each step's gradient is taken at the previous step's emitted signal
        for iterate, samples in zip([clip.samples, *iterates], seen):
            assert np.array_equal(samples, pad_or_trim(iterate.astype(np.float64), RATE))

    def test_repeated_iterate_stops_the_run(self, tiny_model, tiny_clips, monkeypatch):
        _, clip = tiny_clips[2]
        cfg = PgdConfig(tau=-90.0, steps=100)
        # a bound under one LSB rounds every step back to the original
        assert peak_amplitude(clip.samples) * 10.0 ** (cfg.tau / 20.0) < 1
        backwards = []
        backprop = attacks.mfcc_backprop
        monkeypatch.setattr(attacks, "mfcc_backprop",
                            lambda *a: backwards.append(1) or backprop(*a))
        res, seen, iterates, _ = self._run(tiny_model, clip, cfg, monkeypatch)
        assert (len(seen), len(backwards)) == (2, 1)
        assert res.iterations_used == 1 and not res.success
        assert res.distortion_trace == [SILENT_PERTURBATION] == [res.distortion_db]
        assert np.array_equal(iterates[0], clip.samples)

    def test_rescaled_trace_ends_at_the_result(self, tiny_model, tiny_clips):
        _, clip = tiny_clips[5]
        target = wrong_label(tiny_model, predict(tiny_model, clip)[0])
        cfg = PgdConfig(tau=-60.0, steps=12, step_size=32)
        res = pgd_attack(tiny_model, clip, target, cfg)
        # the 32-sample step is rescaled to the bound and rounded down under it
        bound = peak_amplitude(clip.samples) * 10.0 ** (cfg.tau / 20.0)
        assert peak_amplitude(deltas_of(res, clip)) == math.floor(bound) < 32
        assert res.distortion_trace[-1] == res.distortion_db

    def test_forward_scores_int16_rows_as_predict(self, tiny_model, tiny_clips):
        rng = np.random.default_rng(8)
        for n in (RATE, RATE - 1234, RATE + 777):
            for _, clip in tiny_clips[:4]:
                row = np.resize(clip.samples, n)
                row = np.clip(row + rng.integers(-40, 41, n), -32768, 32767).astype(np.int16)
                probs, _ = _forward_with_backward(
                    tiny_model, pad_or_trim(row.astype(np.float64), RATE), RATE, np.float32)
                want = predict_samples_batch(tiny_model, row[None], RATE, dtype=np.float32)[0]
                assert np.array_equal(probs, want)


def _float32_model(model):
    return Model(layer_dims=model.layer_dims,
                 weights=[w.astype(np.float32) for w in model.weights],
                 biases=[b.astype(np.float32) for b in model.biases],
                 class_labels=model.class_labels)


def _pgd_float_loop(model, original, target, cfg):
    """The PGD loop in float64 iterate arithmetic on float32 features and a float32
    MLP, a landing confirmed and the result scored by the float64
    `predict_samples_batch`: the oracle for `pgd_attack`'s integer steps.

    Returns (adversarial samples, distortion trace, iterations, success, target
    score, number of rescaled steps, how the run ended).
    """
    target_idx = model.label_index(target)
    x = original.samples.astype(np.float64)
    peak = peak_amplitude(original.samples)
    bound = peak * 10.0 ** (cfg.tau / 20.0)
    adv, previous, trace, iterations = original.samples, None, [], 0
    rescaled, ending = 0, "ran out"
    search = _float32_model(model)
    for step in range(cfg.steps):
        probs, backward = _forward_with_backward(search, pad_or_trim(adv.astype(np.float64), RATE),
                                                 RATE, np.float32)
        confirm = predict_samples_batch(model, adv[None, :], RATE)[0]
        if step and int(np.argmax(probs)) == int(np.argmax(confirm)) == target_idx:
            ending = "landed"
            break
        if step and np.array_equal(adv, previous):
            ending = "repeated"
            break
        grad = backward(target_idx)
        delta = adv - x
        delta[:grad.size] -= cfg.step_size * np.sign(grad[:x.size])
        delta = np.clip(x + delta, I16_MIN, I16_MAX) - x
        peak_delta = float(np.max(np.abs(delta)))
        if peak_delta > bound:
            delta *= bound / peak_delta
            rescaled += 1
        rounded = np.clip(np.round(delta), -math.floor(bound), math.floor(bound))
        previous, adv = adv, np.clip(x + rounded, I16_MIN, I16_MAX).astype(np.int16)
        trace.append(relative_peak_db(peak_amplitude(adv - x), peak))
        iterations = step + 1
    probs = predict_samples_batch(model, adv[None, :], RATE)[0]
    return (adv, trace, iterations, int(np.argmax(probs)) == target_idx,
            float(probs[target_idx]), rescaled, ending)


class TestPgdOracle:
    """pgd_attack's integer steps reproduce the float64 loop bit for bit."""

    # plus a bound under one LSB, and a step past the 16-bit span and int32
    CASES = [*TestPgdStep.CASES, (2, PgdConfig(tau=-90.0, steps=100)),
             (3, PgdConfig(tau=0.0, steps=3, step_size=2**40))]
    LENGTHS = (RATE, RATE - 1234, RATE + 777)

    def _clip_and_target(self, model, clips, index, n):
        clip = AudioClip(samples=np.resize(clips[index][1].samples, n), sample_rate_hz=RATE)
        return clip, wrong_label(model, predict(model, clip)[0])

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("index, cfg", CASES)
    def test_equals_the_float_loop(self, tiny_model, tiny_clips, index, cfg, n):
        clip, target = self._clip_and_target(tiny_model, tiny_clips, index, n)
        res = pgd_attack(tiny_model, clip, target, cfg)
        adv, trace, iterations, success, score, _, _ = _pgd_float_loop(tiny_model, clip, target,
                                                                        cfg)
        assert res.adversarial.samples.dtype == np.int16
        assert np.array_equal(res.adversarial.samples, adv)
        assert res.distortion_trace == trace
        assert (res.iterations_used, res.success) == (iterations, success)
        assert res.final_target_score == score

    def test_cases_cover_every_ending_and_both_step_kinds(self, tiny_model, tiny_clips):
        endings, rescaled_steps, plain_steps = set(), 0, 0
        for index, cfg in self.CASES:
            for n in self.LENGTHS:
                clip, target = self._clip_and_target(tiny_model, tiny_clips, index, n)
                *_, iterations, _, _, rescaled, ending = _pgd_float_loop(tiny_model, clip,
                                                                         target, cfg)
                endings.add(ending)
                rescaled_steps += rescaled
                plain_steps += iterations - rescaled
        assert endings == {"landed", "ran out", "repeated"}
        assert rescaled_steps > 0 and plain_steps > 0
