"""Targeted adversarial example generation.

Two routes against the built-in classifier: a gradient-free genetic attack
(selection over target-class probability, uniform crossover, mutations of up
to +-150 from 8-bit init noise) and a projected-gradient attack that walks the
sample gradient's sign under a peak-dB budget on the perturbation. Both search
on float32 features (PGD also on a float32 copy of the MLP, made per attack)
and report success and score in float64.
"""

import math
from dataclasses import dataclass

import numpy as np

from noisegate.audio import (
    AudioClip,
    I16_MAX,
    I16_MIN,
    db_distortion,
    peak_amplitude,
    relative_peak_db,
)
from noisegate.classifier import (
    Model,
    _backward,
    _forward_batch,
    _softmax,
    float32_copy,
    pad_or_trim,
    predict_samples_batch,
)
from noisegate.features import mfcc_backprop, mfcc_with_gradient_cache


@dataclass(frozen=True)
class GaConfig:
    """Genetic-attack settings.

    The defaults use the mutation scale of the cited genetic attack
    (Alzantot et al. 2018, arXiv:1801.00554): mutations of up to +-150 and
    8 randomized low bits at init. At LSB scale (+-2, 1 bit) the search
    cannot reach the decision boundary within k_max generations.

    `seed` fixes every draw: generation g uses its own stream,
    SeedSequence((seed, g)), so a run is a pure function of its inputs and
    the seed (see `ga_attack` for what each stream holds).
    """

    population_size: int = 50
    k_max: int = 500
    temp: float = 0.02
    mutation_probability: float = 0.005
    mutation_range: int = 150
    init_noise_bits: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        if not (math.isfinite(self.temp) and self.temp > 0):
            raise ValueError(f"temp must be positive and finite, got {self.temp}")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise ValueError("mutation_probability must be in [0, 1]")
        if self.mutation_range < 0:
            raise ValueError("mutation_range must be >= 0")
        if not 0 <= self.init_noise_bits <= 15:
            raise ValueError("init_noise_bits must be in [0, 15]")


@dataclass(frozen=True)
class PgdConfig:
    tau: float = -20.0
    steps: int = 100
    step_size: int = 16

    def __post_init__(self):
        if not math.isfinite(self.tau):
            raise ValueError(f"tau must be finite, got {self.tau}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size < 1:
            raise ValueError("step_size must be >= 1")


@dataclass
class AttackResult:
    adversarial: AudioClip
    success: bool
    iterations_used: int
    target: str
    distortion_db: float  # SILENT_PERTURBATION for an all-zero perturbation
    final_target_score: float
    distortion_trace: list | None = None  # per-iterate distortions (gradient attack)
    fitness_trace: list | None = None  # per-generation best target score (genetic attack)


def _result(model: Model, original: AudioClip, adv_samples: np.ndarray, target: str,
            iterations: int, distortion_trace=None, fitness_trace=None) -> AttackResult:
    """`adv_samples` scored by the float64 `predict_samples_batch`, whose `success` decides
    whether an attack landed; a silent original raises SilentCarrierError."""
    adversarial = AudioClip(samples=adv_samples, sample_rate_hz=original.sample_rate_hz)
    probs = predict_samples_batch(model, adv_samples[None, :], original.sample_rate_hz)[0]
    target_idx = model.label_index(target)
    return AttackResult(
        adversarial=adversarial,
        success=int(np.argmax(probs)) == target_idx,
        iterations_used=iterations,
        target=target,
        distortion_db=db_distortion(original, adversarial),
        final_target_score=float(probs[target_idx]),
        distortion_trace=distortion_trace,
        fitness_trace=fitness_trace,
    )


def _generation_rng(seed: int, generation: int) -> np.random.Generator:
    # one stream per generation: what it holds depends only on (seed, generation)
    return np.random.default_rng(np.random.SeedSequence((seed, generation)))


def _bernoulli_positions(rng: np.random.Generator, total: int, p: float) -> np.ndarray:
    """Increasing indices in [0, total) hit by independent Bernoulli(p) trials.

    The gaps between hits are geometric, so the cost follows the number of
    hits rather than `total`.
    """
    if p <= 0.0 or total == 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    expected = total * p
    # sized so one draw almost always reaches past `total`
    block = int(expected + 4.0 * math.sqrt(expected)) + 16
    hits = np.cumsum(rng.geometric(p, size=block)) - 1
    while hits[-1] < total:
        hits = np.concatenate([hits, hits[-1] + np.cumsum(rng.geometric(p, size=block))])
    return hits[: np.searchsorted(hits, total)]


def _breed(pop: np.ndarray, selection: np.ndarray, count: int,
           rng: np.random.Generator, cfg: GaConfig) -> np.ndarray:
    """`count` children of `pop`: parent pairs drawn from `selection`, uniform
    crossover, then samplewise mutation; all draws come from `rng`."""
    n = pop.shape[1]
    parents = rng.choice(len(pop), size=(count, 2), p=selection)
    children = pop[parents[:, 0]]
    other = pop[parents[:, 1]]
    # one random bit per sample, as an int 0/-1 mask: b ^ ((a ^ b) & mask) is a
    # where the bit is set and b elsewhere
    bits = np.unpackbits(rng.integers(0, 256, size=(count, (n + 7) // 8), dtype=np.uint8),
                         axis=1, count=n)
    children ^= other
    children &= -bits.view(np.int8)
    children ^= other
    flat = children.reshape(-1)
    hits = _bernoulli_positions(rng, flat.size, cfg.mutation_probability)
    deltas = rng.integers(-cfg.mutation_range, cfg.mutation_range + 1, size=hits.size)
    flat[hits] = np.clip(flat[hits] + deltas, I16_MIN, I16_MAX)
    return children


def ga_attack(model: Model, original: AudioClip, target: str, cfg: GaConfig = GaConfig()) -> AttackResult:
    """Gradient-free targeted attack on the built-in classifier.

    The population starts as copies of the original with the lowest
    `init_noise_bits` bits randomized. Each generation is scored by the
    model's target-class probability; parents are drawn from
    softmax(scores / temp), children are uniform crossovers, and every child
    is mutated samplewise with `mutation_probability`. The best candidate
    (the elite) moves unchanged into the next generation and keeps its score,
    so the fitness trace never falls. A landing the float32 scores claim stops
    the run once `_result` confirms it in float64; a denied one breeds on. After
    k_max generations `_result` scores the elite, the best candidate scored
    (exhaustion is not an error). An original already heard as the target
    returns at generation 0; a silent original raises SilentCarrierError there.

    Random draws: generation 0's stream, SeedSequence((cfg.seed, 0)), draws
    the whole initial population's low bits in one call. The stream of
    generation g >= 1, SeedSequence((cfg.seed, g)), breeds that generation's
    children in this order: all parent pairs in one draw, one packed random
    bit per child sample for the crossover, the geometric gaps between mutated
    positions over the flat block of children (each sample is hit with
    probability `mutation_probability`), then one uniform delta in
    +-`mutation_range` per hit; a zero setting draws zeros. Only the hit
    samples are clipped to 16 bits. Children are scored as soon as bred.
    """
    target_idx = model.label_index(target)
    rate = original.sample_rate_hz
    n = len(original)

    res = _result(model, original, original.samples.copy(), target, 0)
    if res.success:
        return res

    size, mask = cfg.population_size, (1 << cfg.init_noise_bits) - 1
    bits = _generation_rng(cfg.seed, 0).integers(0, mask + 1, size=(size, n), dtype=np.int16)
    pop = (original.samples & np.int16(~mask)) | bits
    # float32 fitness path: ~2x faster and deterministic; `_result` decides in float64
    probs = predict_samples_batch(model, pop, rate, dtype=np.float32)
    fitness_trace = []

    for generation in range(cfg.k_max):
        scores = probs[:, target_idx]
        best_idx = int(np.argmax(scores))
        fitness_trace.append(float(scores[best_idx]))
        if int(np.argmax(probs[best_idx])) == target_idx:
            res = _result(model, original, pop[best_idx].copy(), target, generation,
                          fitness_trace=fitness_trace)
            if res.success:
                return res
        if generation + 1 == cfg.k_max:
            break

        # float64: Generator.choice validates sum(p) == 1 at double precision
        selection = _softmax(scores.astype(np.float64) / cfg.temp)
        rng = _generation_rng(cfg.seed, generation + 1)
        pop = np.concatenate([pop[best_idx][None, :], _breed(pop, selection, size - 1, rng, cfg)])
        # the elite keeps the score it earned: re-scored in a batch of
        # another makeup it could shift by ~1e-15 and break monotonicity
        probs = np.concatenate([probs[best_idx][None, :],
                                predict_samples_batch(model, pop[1:], rate, dtype=np.float32)])

    return _result(model, original, pop[best_idx].copy(), target, cfg.k_max,
                   fitness_trace=fitness_trace)


def _forward_with_backward(model: Model, samples: np.ndarray, rate: int, dtype):
    """Class probabilities for one sample row, and a `backward(target_idx)` that
    gives the gradient of the cross-entropy toward the target w.r.t. the samples.

    `dtype` is the features'; the MLP runs in the wider of it and the model's dtype.
    On a row of int16 values and a float64 model the probabilities equal the row's
    `predict_samples_batch` scores in that dtype bit for bit.
    """
    features, cache = mfcc_with_gradient_cache(samples, rate, dtype)
    probs, activations = _forward_batch(model, features.reshape(1, -1))

    def backward(target_idx: int) -> np.ndarray:
        delta = probs.copy()
        delta[0, target_idx] -= 1.0
        _, grad_flat = _backward(model, activations, delta, param_grads=False, input_grad=True)
        return mfcc_backprop(grad_flat[0].reshape(features.shape), cache)

    return probs[0], backward


def pgd_attack(model: Model, original: AudioClip, target: str, cfg: PgdConfig = PgdConfig()) -> AttackResult:
    """Sign-gradient targeted attack under a relative peak-dB budget.

    Uses the analytic gradient through the feature pipeline (the sample
    gradient of the MFCC+MLP composition). The iterate is the int16 signal the
    attack would emit, in integer arithmetic; `_pgd_step` rescales a step onto
    the budget, tau dB under the carrier peak, so it holds at every iterate.
    The gradient is taken at that signal, on float32 features and a float32
    copy of the model made per attack (the sign step reads only the gradient's
    sign), and the forward of step k+1 is also step k's success check. A
    landing it claims stops the run only once `_result` confirms it in float64;
    a denied landing keeps stepping, as in `ga_attack`. At least one step is
    taken, and the run stops once an emitted iterate equals the one before it
    (the original counts as the first). A run that runs out or repeats is
    scored by `_result` too, so success and score are float64. The distortion
    of each emitted iterate is recorded in the result's distortion_trace. A
    silent original raises SilentCarrierError at the first trace entry, since
    it leaves the budget undefined.
    """
    target_idx = model.label_index(target)
    rate = original.sample_rate_hz
    x = original.samples.astype(np.int32)
    peak = peak_amplitude(original.samples)
    bound = peak * 10.0 ** (cfg.tau / 20.0)

    adv, previous, trace, search = x, None, [], float32_copy(model)

    for step in range(cfg.steps):
        scores, backward = _forward_with_backward(search, pad_or_trim(adv, rate), rate, np.float32)
        if step and int(np.argmax(scores)) == target_idx:
            res = _result(model, original, adv.astype(np.int16), target, len(trace),
                          distortion_trace=trace)
            if res.success:
                return res
        # a step depends only on the iterate, so a repeated one would repeat forever
        if step and np.array_equal(adv, previous):
            break
        previous = adv
        adv, peak_delta = _pgd_step(x, adv, backward(target_idx), cfg.step_size, bound)
        trace.append(relative_peak_db(peak_delta, peak))

    return _result(model, original, adv.astype(np.int16), target, len(trace),
                   distortion_trace=trace)


def _pgd_step(x: np.ndarray, adv: np.ndarray, grad: np.ndarray, step_size: int, bound: float):
    """The int32 iterate one sign step from `adv` against `grad`, clipped to 16
    bits, and its peak distance from `x`. A step whose peak passes the bound is
    rescaled onto it in float64 and rounded under it, which only shrinks it."""
    new = adv.copy()
    # the gradient covers the padded or trimmed one-second signal
    n = min(x.size, grad.size)
    sign = (grad[:n] > 0).view(np.int8) - (grad[:n] < 0).view(np.int8)
    # a longer step clips to the same 16-bit edge, and could overflow int32
    new[:n] -= np.multiply(sign, min(step_size, I16_MAX - I16_MIN), dtype=np.int32)
    np.clip(new, I16_MIN, I16_MAX, out=new)
    delta = new - x
    peak_delta = max(int(delta.max()), -int(delta.min()))
    if peak_delta <= bound:
        return new, peak_delta
    cap = math.floor(bound)
    rounded = np.clip(np.rint(delta * (bound / peak_delta)), -cap, cap).astype(np.int32)
    return x + rounded, max(int(rounded.max()), -int(rounded.min()))
