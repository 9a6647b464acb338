"""The two workloads: what each sets up, what one round runs, and how it is checked.

Every workload trains its model in set-up: a 10-class x 30-clip synthetic
corpus, then `classifier.train` at the stock `TrainConfig`. A round is a fixed
list of operations, so every round of a run repeats the same work on the same
inputs. An operation is one attack, one report row or one ROC cell; it fails
when its experiment call raises or when it fails a check below.
"""

import json
import math
import resource
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# the program is called through its module attributes, where a trace can wrap it
from noisegate import audio, classifier, experiments, recognition, synthesis
from noisegate.attacks import GaConfig, PgdConfig
from noisegate.manifests import Manifest

import reference as ref

CLASSES, PER_CLASS = 10, 30
GA_PAIRS = 3
# the stock GaConfig but for k_max (500): a round then holds at most 600 generations,
# so a seed whose pairs all run out costs ~40 s of GA, not ~95 s
ATTACK_GA = GaConfig(k_max=200)
ATTACK_PGD_PAIRS = 290  # with the GA pairs, 293 of the 300 corpus clips
# one-LSB steps under a tight budget, so each attack takes several steps;
# at the stock step of 16 PGD lands in about one step
ATTACK_PGD = PgdConfig(tau=-60.0, step_size=1, steps=100)
DEFEND_CLIPS = 50  # clean clips, and as many PGD sources for the adversarial set
TEXT_CLIPS = 4  # of the defend clips, for the text-mode experiments
# the od recognizer prints 16 bytes from sample 6000 on, inside every clip's burst
OD_OFFSET, OD_BYTES = 44 + 2 * 6000, 16
OD_COMMAND = f"od -An -tx1 -j {OD_OFFSET} -N {OD_BYTES} {{}}"
MIN_BEST_AUC = 0.9
# The host probe: one reference MFCC of a fixed clip, at the stock feature
# settings written out here, so that no change to the program changes it
PROBE_MFCC = ref.Mfcc(frame_ms=25, hop_ms=10, fft_size=512, mel_filters=40,
                      num_coeffs=13, log_floor=1e-10)
PROBE_RATE = 16000
PROBE_CLIP = np.random.default_rng(0).integers(-8000, 8001, PROBE_RATE).astype(np.int16)
PROBE_EVERY_S = 0.05  # CPU seconds of the timed call between two probes
PROB_TOLERANCE = 1e-9
DB_TOLERANCE = 1e-9  # a rescaled iterate sits at tau up to log10 rounding


@dataclass
class Fixture:
    root: Path
    seed: int
    model: classifier.Model
    model_path: Path
    sets: dict  # name -> Manifest over corpus (or adversarial) clips
    probe_host: bool = False  # time host probes during the timed calls
    # filled by verify(): the reference model and its label for each clip of a set
    ref_model: ref.ReferenceModel | None = None
    ref_labels: dict = field(default_factory=dict)


@dataclass
class Round:
    """Work counts, the CPU time of the experiment calls that did them, and the
    wall times of the host probes taken during those calls."""

    primary: int
    primary_s: float
    secondary: int
    secondary_s: float
    results: dict  # experiment outputs the checks need
    errors: dict  # experiment -> message, when its call raised
    primary_probes: list
    secondary_probes: list


def _setup(root, seed, sizes, adversarial_from=None):
    """Corpus, model, and seed-chosen clip sets; optionally a PGD adversarial set."""
    corpus = synthesis.synth_dataset(CLASSES, PER_CLASS, seed, root / "corpus")
    dataset = [(audio.read_wav(corpus.resolve(row)), row.label) for row in corpus.rows]
    model = classifier.train(dataset, classifier.TrainConfig())
    model_path = root / "model.txt"
    classifier.save(model, model_path)
    order = np.random.default_rng([seed, 1]).permutation(len(corpus.rows))
    sets, start = {}, 0
    for name, size in sizes:
        sets[name] = Manifest(rows=[corpus.rows[i] for i in order[start:start + size]],
                              base_dir=corpus.base_dir)
        start += size
    if adversarial_from is not None:
        _, sets["adv"] = experiments.attack_manifest(
            model, sets[adversarial_from], "pgd", root / "adv", master_seed=seed)
        if not sets["adv"].rows:
            raise RuntimeError("no PGD attack landed; the adversarial set is empty")
    return Fixture(root=root, seed=seed, model=model, model_path=model_path, sets=sets)


def cpu_seconds():
    """CPU seconds of this process and of the child processes it has waited for.

    Rates and set-up times use this clock, not the wall clock. On a shared
    virtual machine the hypervisor takes the CPU away for seconds at a time
    (steal time): that stretches wall time but not CPU time. The timed calls
    run in this process, on one thread.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _probe_host():
    start = time.perf_counter()
    PROBE_MFCC(PROBE_CLIP, PROBE_RATE)
    return time.perf_counter() - start


def _timed(probe, errors, name, fn, *args, **kwargs):
    """(result, CPU seconds of the call, wall seconds of each host probe in it).

    With `probe`, a profiling timer interrupts the call every
    PROBE_EVERY_S of CPU time and the handler times one host probe. The probes'
    time is taken out of the call's. The speed of the host's CPU drifts by tens
    of percent over minutes, and the probes see the same drift at the same
    moments, so a rate scaled by their mean time is steady. A probe is timed
    on the wall clock: on the virtual machine of perfbench/README.md, CPU time
    read in the handler moved in 4 ms ticks.
    """
    probes = []
    if probe:
        signal.signal(signal.SIGPROF, lambda signum, frame: probes.append(_probe_host()))
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
    start = cpu_seconds()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # the operations of a call that raises count as failed
        errors[name] = f"{type(exc).__name__}: {exc}"
        result = None
    finally:
        if probe:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
    return result, cpu_seconds() - start - sum(probes), probes


def _verify_agreement(fx, names):
    """The reference agrees with classifier.predict on the given clip sets."""
    fx.ref_model = ref.ReferenceModel(fx.model_path)
    errors = []
    for name in names:
        manifest = fx.sets[name]
        fx.ref_labels[name] = []
        for row in manifest.rows:
            samples, rate = ref.read_samples(manifest.resolve(row))
            want = fx.ref_model.probabilities(samples, rate)
            want_label = fx.ref_model.labels[int(np.argmax(want))]
            fx.ref_labels[name].append(want_label)
            label, prob = classifier.predict(fx.model, audio.read_wav(manifest.resolve(row)))
            if label != want_label or abs(prob - want.max()) > PROB_TOLERANCE:
                errors.append(f"{name} {row.path}: predict gives {label} {prob:.12f}, "
                              f"reference {want_label} {want.max():.12f}")
    return errors


def _lines(path):
    return Path(path).read_text(encoding="utf-8").splitlines() if Path(path).is_file() else []


def _same_bytes(a, b):
    a, b = Path(a), Path(b)
    return a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()


class AttackWorkload:
    """GA at the stock GaConfig (k_max 200) on a few pairs, and tight one-LSB PGD on more."""

    name = "attack"
    primary_name, primary_unit = "ga_generations", "generations"
    secondary_name, secondary_unit = "pgd_steps", "steps"

    def setup(self, root, seed):
        return _setup(root, seed, (("ga", GA_PAIRS), ("pgd", ATTACK_PGD_PAIRS)))

    def verify(self, fx):
        return _verify_agreement(fx, ("ga", "pgd"))

    def run_round(self, fx, out):
        errors = {}
        probe = fx.probe_host
        ga, ga_s, ga_probes = _timed(probe, errors, "ga", experiments.attack_manifest, fx.model,
                                     fx.sets["ga"], "ga", out / "ga", master_seed=fx.seed,
                                     ga_cfg=ATTACK_GA)
        pgd, pgd_s, pgd_probes = _timed(probe, errors, "pgd", experiments.attack_manifest,
                                        fx.model, fx.sets["pgd"], "pgd", out / "pgd",
                                        master_seed=fx.seed, pgd_cfg=ATTACK_PGD)
        generations = sum(len(r.fitness_trace or ()) for r in ga[0]) if ga else 0
        steps = sum(r.iterations_used for r in pgd[0]) if pgd else 0
        return Round(generations, ga_s, steps, pgd_s,
                     {"ga": ga[0] if ga else None, "pgd": pgd[0] if pgd else None}, errors,
                     ga_probes, pgd_probes)

    def operations(self, fx):
        return [f"{kind}[{i}]" for kind in ("ga", "pgd") for i in range(len(fx.sets[kind].rows))]

    def check(self, fx, out, rnd, first_out):
        """op -> failure messages for this round's attacks."""
        failures = {}
        for kind in ("ga", "pgd"):
            manifest = fx.sets[kind]
            results = rnd.results[kind]
            lines = _lines(out / kind / "records.jsonl")
            first_lines = _lines(first_out / kind / "records.jsonl")
            for i, row in enumerate(manifest.rows):
                op = f"{kind}[{i}]"
                if results is None:
                    failures[op] = [rnd.errors[kind]]
                    continue
                res, rec, bad = results[i], json.loads(lines[i]), []
                if kind == "ga":
                    trace = res.fitness_trace or []
                    if any(b < a for a, b in zip(trace, trace[1:])):
                        bad.append("fitness_trace falls")
                elif max(res.distortion_trace) > ATTACK_PGD.tau + DB_TOLERANCE:
                    bad.append(f"a PGD iterate reaches {max(res.distortion_trace)!r} dB, "
                               f"over tau {ATTACK_PGD.tau} dB")
                original, _ = ref.read_samples(manifest.resolve(row))
                wav = out / kind / f"wavs/adv_{i:04d}.wav"
                adversarial, rate = ref.read_samples(wav)
                if rec["success"] and fx.ref_model.label(adversarial, rate) != rec["target"]:
                    bad.append(f"landed, but the reference does not hear {rec['target']}")
                if rec["distortion_db"] is not None:
                    want = ref.peak_distortion_db(original, adversarial)
                    if abs(rec["distortion_db"] - want) > 1e-6:
                        bad.append(f"distortion_db {rec['distortion_db']} != {want:.6f}")
                if out != first_out and (
                        lines[i] != first_lines[i]
                        or not _same_bytes(wav, first_out / kind / "wavs" / wav.name)):
                    bad.append("differs from the first round")
                if bad:
                    failures[op] = bad
        return failures


def _grid_ops():
    return [f"{kind}:{i}" for kind in ("uniform", "gaussian") for i in experiments.DEFAULT_GRID]


class _ReportWorkload:
    """Sweep, transform comparison and detection ROC over clean and adversarial clips."""

    clean_set, adv_set = "clean", "adv"
    sweep_file = compare_file = ""
    falling_columns = ()
    timed = True  # whether a rate times this mode's calls

    def operations(self, fx):
        return ([f"sweep:{op}" for op in _grid_ops()]
                + [f"compare:{label}" for label in
                   (experiments.NO_DEFENSE_LABEL, *experiments.DEFAULT_COMPARISON_TRANSFORMS)]
                + [f"roc:{op}" for op in _grid_ops()])

    def run_round(self, fx, out):
        errors = {}
        cfg = experiments.ExperimentConfig(master_seed=fx.seed, recognizer=self.recognizer(fx),
                                           out_dir=str(out))
        mode = self.mode(fx)
        clean, adv = fx.sets[self.clean_set], fx.sets[self.adv_set]
        probe = fx.probe_host and self.timed
        sweep, sweep_s, sweep_probes = _timed(probe, errors, "sweep",
                                              experiments.run_intensity_sweep,
                                              cfg, clean, adv, **mode)
        compare, compare_s, compare_probes = _timed(probe, errors, "compare",
                                                    experiments.run_transform_comparison,
                                                    cfg, clean, adv, **mode)
        cells, roc_s, roc_probes = _timed(probe, errors, "roc", experiments.run_detection_eval,
                                          cfg, clean, adv)
        clips = len(clean.rows) + len(adv.rows)
        rows = (len(sweep.rows) if sweep else 0) + (self.compare_rows(compare) if compare else 0)
        return Round(clips * rows, sweep_s + compare_s,
                     clips * (len(cells) if cells else 0), roc_s,
                     {"sweep": sweep, "compare": compare, "roc": cells}, errors,
                     sweep_probes + compare_probes, roc_probes)

    def check(self, fx, out, rnd, first_out):
        failures = {}

        def fail(op, message):
            failures.setdefault(op, []).append(message)

        def same_line(op, name, index):
            if first_out != out and _lines(out / name)[index] != _lines(first_out / name)[index]:
                fail(op, "differs from the first round")

        grid = experiments.DEFAULT_GRID
        if rnd.results["sweep"] is None:
            for op in _grid_ops():
                fail(f"sweep:{op}", rnd.errors["sweep"])
        else:
            rows = {(r[0], int(r[1])): r for r in _csv(out / self.sweep_file)}
            for index, (kind, intensity) in enumerate(rows, start=1):
                op = f"sweep:{kind}:{intensity}"
                same_line(op, self.sweep_file, index)
                values = rows[(kind, intensity)]
                if not all(0.0 <= float(v) <= 100.0 for v in values[2:4]):
                    fail(op, f"value out of [0, 100]: {values}")
            for kind in ("uniform", "gaussian"):
                low, top = rows[(kind, grid[0])], rows[(kind, grid[-1])]
                for column in self.falling_columns:
                    if not float(top[column]) < float(low[column]):
                        fail(f"sweep:{kind}:{grid[-1]}",
                             f"column {column} does not fall: {low[column]} -> {top[column]}")
        if rnd.results["compare"] is None:
            for label in (experiments.NO_DEFENSE_LABEL,
                          *experiments.DEFAULT_COMPARISON_TRANSFORMS):
                fail(f"compare:{label}", rnd.errors["compare"])
        else:
            for index, row in enumerate(_csv(out / self.compare_file), start=1):
                op = f"compare:{row[0]}"
                same_line(op, self.compare_file, index)
                if row[0] == experiments.NO_DEFENSE_LABEL:
                    for message in self.check_no_defense(fx, row):
                        fail(op, message)
        if rnd.results["roc"] is None:
            for op in _grid_ops():
                fail(f"roc:{op}", rnd.errors["roc"])
        else:
            best = None
            for index, row in enumerate(_csv(out / "detection_auc.csv"), start=1):
                op = f"roc:{row[0]}:{row[1]}"
                same_line(op, "detection_auc.csv", index)
                curve = out / "roc" / f"roc_{row[0]}_{row[1]}.csv"
                if not row[2]:
                    if curve.exists():
                        fail(op, "a degenerate cell has a curve file")
                    continue
                if first_out != out and not _same_bytes(curve, first_out / "roc" / curve.name):
                    fail(op, "curve differs from the first round")
                auc, messages = _check_curve(curve, float(row[2]))
                for message in messages:
                    fail(op, message)
                if best is None or auc > best[0]:
                    best = (auc, op)
            for message in self.check_best_auc(best):
                fail(best[1] if best else f"roc:{_grid_ops()[0]}", message)
        return failures

    def check_best_auc(self, best):
        return []


def _csv(path):
    return [line.split(",") for line in _lines(path)[1:]]


def _check_curve(path, summary_auc):
    """(curve AUC, failures) for one ROC curve CSV against its summary row."""
    lines = _lines(path)
    messages = []
    if not lines or lines[0] != "threshold,fpr,tpr" or not lines[-1].startswith("auc,"):
        return 0.0, [f"{path.name}: malformed curve file"]
    points = [tuple(float(v) for v in line.split(",")) for line in lines[1:-1]]
    thresholds = [p[0] for p in points]
    if any(b >= a for a, b in zip(thresholds, thresholds[1:])):
        messages.append("thresholds do not fall")
    if any(b[1] < a[1] or b[2] < a[2] for a, b in zip(points, points[1:])):
        messages.append("curve is not monotone")
    if points[-1] != (-math.inf, 1.0, 1.0):
        messages.append(f"curve ends at {points[-1]}, not (-inf, 1, 1)")
    auc = ref.trapezoid_auc([(f, t) for _, f, t in points])
    line_auc = float(lines[-1].split(",")[1])
    if abs(auc - line_auc) > 1e-5:
        messages.append(f"trapezoid AUC {auc:.6f} != curve file {line_auc:.6f}")
    if abs(auc - summary_auc) > 0.005 + 1e-5:
        messages.append(f"trapezoid AUC {auc:.6f} != detection_auc.csv {summary_auc:.2f}")
    return auc, messages


class DefendWorkload(_ReportWorkload):
    """Command mode: the builtin recognizer over clean clips and a PGD adversarial set.

    Each round then runs the text-mode experiments through the `od` recognizer on a
    few of those clips. Their operations are checked and traced, but no rate
    times them: on a shared 2-vCPU host the spawn-bound text path swung by up to 40%
    from one minute to the next, beyond any bound a rate may have.
    """

    name = "defend"
    primary_name, primary_unit = "defended_predictions", "predictions"
    secondary_name, secondary_unit = "change_rates", "scores"
    sweep_file, compare_file = "sweep_command.csv", "compare_command.csv"
    falling_columns = (2,)  # asr_avg

    def setup(self, root, seed):
        fx = _setup(root, seed, (("clean", DEFEND_CLIPS), ("sources", DEFEND_CLIPS)),
                    adversarial_from="sources")
        for name in ("clean", "adv"):
            fx.sets[f"text_{name}"] = Manifest(rows=fx.sets[name].rows[:TEXT_CLIPS],
                                               base_dir=fx.sets[name].base_dir)
        return fx

    def operations(self, fx):
        return super().operations(fx) + [f"text:{op}" for op in TEXT.operations(fx)]

    def run_round(self, fx, out):
        rnd = super().run_round(fx, out / "command")
        rnd.results["text"] = TEXT.run_round(fx, out / "text")
        return rnd

    def check(self, fx, out, rnd, first_out):
        failures = super().check(fx, out / "command", rnd, first_out / "command")
        text = TEXT.check(fx, out / "text", rnd.results["text"], first_out / "text")
        failures.update((f"text:{op}", messages) for op, messages in text.items())
        return failures

    def recognizer(self, fx):
        return recognition.RecognizerSpec.builtin(str(fx.model_path))

    def mode(self, fx):
        return {"model": fx.model}

    def compare_rows(self, report):
        return len(report.rows)

    def verify(self, fx):
        errors = _verify_agreement(fx, ("clean", "adv"))
        clean = fx.sets["clean"]
        # the builtin recognizer hears what the reference hears; this also loads its model
        spec = self.recognizer(fx)
        for row, label in zip(clean.rows, fx.ref_labels["clean"]):
            heard = recognition.transcribe(spec, audio.read_wav(clean.resolve(row))).text
            if heard != label:
                errors.append(f"builtin recognizer hears {heard!r} in {row.path}, "
                              f"the reference {label!r}")
        return errors + TEXT.verify(fx)

    def check_no_defense(self, fx, row):
        """ASR 100, and ASR and ACC as the reference counts them."""
        adv = zip(fx.ref_labels["adv"], fx.sets["adv"].rows)
        clean = zip(fx.ref_labels["clean"], fx.sets["clean"].rows)
        asr = 100.0 * np.mean([label == row.target for label, row in adv])
        acc = 100.0 * np.mean([label == row.label for label, row in clean])
        want = (f"{asr:.2f}", f"{acc:.2f}")
        if row[1] != "100.00" or (row[1], row[2]) != want:
            return [f"no-defense ASR/ACC {row[1]}/{row[2]}, reference {want[0]}/{want[1]}"]
        return []

    def check_best_auc(self, best):
        if best is None or best[0] < MIN_BEST_AUC:
            return [f"best detection AUC {best[0] if best else None} < {MIN_BEST_AUC}"]
        return []


class TextMode(_ReportWorkload):
    """Text mode through an external recognizer: one `od` call per transcript."""

    clean_set, adv_set = "text_clean", "text_adv"
    sweep_file, compare_file = "sweep_similarity.csv", "compare_transforms.csv"
    falling_columns = (2, 3)  # sr_benign, sr_adv
    timed = False

    def recognizer(self, fx):
        return recognition.RecognizerSpec.external(OD_COMMAND)

    def mode(self, fx):
        return {"recognizer": self.recognizer(fx)}

    def compare_rows(self, report):
        return len(report.rows) - 1  # the no-defense row compares nothing

    def verify(self, fx):
        """Each clean clip's transcript is the hex of its 16-byte window."""
        errors, clean = [], fx.sets[self.clean_set]
        spec = self.recognizer(fx)
        for row in clean.rows:
            samples, _ = ref.read_samples(clean.resolve(row))
            want = ref.hex_window(samples, OD_OFFSET, OD_BYTES)
            heard = recognition.transcribe(spec, audio.read_wav(clean.resolve(row))).text
            if heard != want:
                errors.append(f"{row.path}: transcript {heard!r}, window bytes {want!r}")
        return errors

    def check_no_defense(self, fx, row):
        if row[1:3] != ["100.00", "100.00"]:
            return [f"no-defense similarity {row[1]}/{row[2]}, not 100/100"]
        return []


TEXT = TextMode()
WORKLOADS = {w.name: w for w in (AttackWorkload(), DefendWorkload())}
