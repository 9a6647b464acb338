import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from noisegate import detection, experiments, transforms
from noisegate.audio import AudioClip, read_wav, write_wav
from noisegate.classifier import TrainConfig, predict
from noisegate.detection import DetectionConfig, change_rate, roc, transcript_change
from noisegate.experiments import (
    DEFAULT_COMPARISON_TRANSFORMS,
    DEFAULT_GRID,
    ExperimentConfig,
    attack_manifest,
    pick_targets,
    run_detection_eval,
    run_intensity_sweep,
    run_transform_comparison,
)
from noisegate.attacks import GaConfig, PgdConfig
from noisegate.manifests import Manifest, ManifestRow, load_manifest, write_manifest
from noisegate.metrics import distance_ratio, similarity
from noisegate.recognition import RecognizerSpec, transcribe, transcribe_clips
from noisegate.seeds import derive_seed
from noisegate.synthesis import class_label, synth_dataset
from noisegate.transforms import TransformSpec, add_noise, apply_transform, parse_transform
from noisegate import cli
from noisegate.classifier import save as save_model

from helpers import differences, digests


class TestSynthDataset:
    def test_counts(self, tmp_path):
        manifest = synth_dataset(3, 4, seed=5, out_dir=tmp_path)
        assert len(manifest) == 12
        assert len(list((tmp_path / "wavs").glob("*.wav"))) == 12
        labels = {row.label for row in manifest.rows}
        assert labels == {"yes", "no", "up"}

    def test_byte_identical_reruns(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        synth_dataset(2, 3, seed=9, out_dir=a_dir)
        synth_dataset(2, 3, seed=9, out_dir=b_dir)
        assert differences(digests(a_dir), digests(b_dir)) == []

    def test_seed_changes_output(self, tmp_path):
        a = synth_dataset(2, 2, seed=1, out_dir=tmp_path / "a")
        b = synth_dataset(2, 2, seed=2, out_dir=tmp_path / "b")
        clip_a = read_wav(a.resolve(a.rows[0]))
        clip_b = read_wav(b.resolve(b.rows[0]))
        assert clip_a != clip_b

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            synth_dataset(1, 5, seed=0, out_dir=tmp_path)
        with pytest.raises(ValueError):
            synth_dataset(3, 0, seed=0, out_dir=tmp_path)

    def test_label_words(self):
        assert class_label(0) == "yes"
        assert class_label(9) == "go"
        assert class_label(10) == "class10"

    def test_one_second_16k_clips(self, tmp_path):
        manifest = synth_dataset(2, 1, seed=3, out_dir=tmp_path)
        clip = read_wav(manifest.resolve(manifest.rows[0]))
        assert len(clip) == 16000
        assert clip.sample_rate_hz == 16000


class TestManifests:
    def test_missing_file_fails_fast(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label\nmissing.wav,yes\n")
        with pytest.raises(FileNotFoundError, match="missing.wav"):
            load_manifest(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("file,cls\nx.wav,yes\n")
        with pytest.raises(ValueError, match="header"):
            load_manifest(path)

    def test_adversarial_roundtrip(self, tmp_path, tiny_corpus):
        rows = [
            ManifestRow(path=tiny_corpus.rows[0].path, label="yes",
                        target="no", source="orig.wav")
        ]
        manifest = Manifest(rows=rows, base_dir=tiny_corpus.base_dir)
        out = tmp_path / "adv.csv"
        write_manifest(manifest, out, adversarial=True)
        header = out.read_text().splitlines()[0]
        assert header == "path,label,target,source"

    def test_relative_paths_resolve_against_manifest_dir(self, tiny_corpus):
        resolved = tiny_corpus.resolve(tiny_corpus.rows[0])
        assert resolved.is_file()


@pytest.fixture(scope="module")
def attacked(tmp_path_factory, tiny_model, tiny_corpus):
    """A small batch of gradient attacks over the tiny corpus."""
    out_dir = tmp_path_factory.mktemp("attacks")
    subset = Manifest(rows=tiny_corpus.rows[:6], base_dir=tiny_corpus.base_dir)
    results, adv_manifest = attack_manifest(
        tiny_model, subset, "pgd", out_dir, master_seed=5,
        pgd_cfg=PgdConfig(tau=0.0, steps=60, step_size=16),
    )
    return out_dir, subset, results, adv_manifest


class TestAttackManifest:
    def test_outputs_exist(self, attacked):
        out_dir, subset, results, adv_manifest = attacked
        assert (out_dir / "records.jsonl").is_file()
        assert (out_dir / "manifest.csv").is_file()
        assert len(list((out_dir / "wavs").glob("*.wav"))) == len(subset)
        records = [json.loads(line)
                   for line in (out_dir / "records.jsonl").read_text().splitlines()]
        assert len(records) == len(subset)
        for rec in records:
            assert set(rec) == {"original", "target", "success", "iterations",
                                "distortion_db", "final_score"}

    def test_manifest_rows_only_successes(self, attacked):
        out_dir, subset, results, adv_manifest = attacked
        assert len(adv_manifest) == sum(1 for r in results if r.success)
        for row in adv_manifest.rows:
            assert row.target is not None and row.source is not None

    def test_targets_are_wrong_labels(self, tiny_model, tiny_corpus):
        targets = pick_targets(tiny_model, tiny_corpus, master_seed=3)
        assert len(targets) == len(tiny_corpus)
        for row, target in zip(tiny_corpus.rows, targets):
            assert target != row.label
            assert target in tiny_model.class_labels

    def test_unknown_target_writes_nothing(self, tmp_path, tiny_model, tiny_corpus):
        # the out dir and its wavs/ used to be made before the target was checked
        with pytest.raises(ValueError, match="unknown label 'nope'"):
            attack_manifest(tiny_model, tiny_corpus, "ga", tmp_path / "adv", target="nope")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_target_over_no_rows_exits_with_one_line(self, tmp_path, tiny_model):
        # with no row to attack the target went unchecked: an empty run exited 0
        write_manifest(Manifest(rows=[], base_dir=tmp_path), tmp_path / "none.csv",
                       adversarial=False)
        save_model(tiny_model, tmp_path / "model.txt")
        with pytest.raises(SystemExit) as exc:
            cli.main(["attack", "ga", "--model", str(tmp_path / "model.txt"), "--manifest",
                      str(tmp_path / "none.csv"), "--out-dir", str(tmp_path / "adv"),
                      "--target", "nope"])
        assert re.fullmatch(r"noisegate attack: unknown label 'nope'; known: \[.*\]",
                            str(exc.value.code))
        assert not (tmp_path / "adv").exists()

    def test_empty_manifest_writes_empty_records(self, tmp_path, tiny_model, tiny_corpus):
        # records.jsonl used to hold one blank line, which is no JSON record
        empty = Manifest(rows=[], base_dir=tiny_corpus.base_dir)
        results, adv_manifest = attack_manifest(tiny_model, empty, "pgd", tmp_path)
        assert results == [] and adv_manifest.rows == []
        assert (tmp_path / "records.jsonl").read_bytes() == b""


class TestExperimentConfig:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(grid=())
        with pytest.raises(ValueError):
            ExperimentConfig(grid=(10, 10))
        with pytest.raises(ValueError):
            ExperimentConfig(grid=(30, 10))
        # each intensity passes the noise spec's check, when the config is made
        with pytest.raises(ValueError, match=r"intensity must be in \[0, 32767\], got -10"):
            ExperimentConfig(grid=(-10, 10))
        with pytest.raises(ValueError, match=r"intensity must be in \[0, 32767\], got 40000"):
            ExperimentConfig(grid=(10, 40000))

    def test_cr_mode_validation(self):
        # a miscased mode used to run the experiments in edit mode
        for mode in ("Flip", "avg", ""):
            with pytest.raises(ValueError, match="cr_mode"):
                ExperimentConfig(cr_mode=mode)
        assert ExperimentConfig(cr_mode="flip").cr_mode == "flip"


# the 16 bytes of each clip's sample 6000 onwards as hex: any changed sample shows
OD_RECOGNIZER = RecognizerSpec.external("od -An -tx1 -j 12044 -N 16 {}")


@pytest.fixture(scope="module")
def text_sets(tiny_corpus):
    """Two clean clips and two other clips posing as adversarial ones."""
    clean = Manifest(rows=tiny_corpus.rows[:2], base_dir=tiny_corpus.base_dir)
    adv = Manifest(rows=[ManifestRow(path=r.path, label=r.label, target="no", source=r.path)
                         for r in tiny_corpus.rows[2:4]],
                   base_dir=tiny_corpus.base_dir)
    return clean, adv


def text_reference(recognizer, clean, adv, rows, stage, master_seed):
    """Report rows as sweep/compare defined them: for every transform, each
    clip transcribed before and after it."""
    out = []
    for key, spec in rows:
        if spec is None:
            out.append((*key, 100.0, 100.0, None, None))
            continue
        scores = []
        for group, manifest in (("clean", clean), ("adv", adv)):
            sims, ratios = [], []
            for idx, row in enumerate(manifest.rows):
                clip = read_wav(manifest.resolve(row))
                seeded = replace(spec, seed=derive_seed(master_seed, f"{stage}-{group}",
                                                        spec.kind, idx))
                before = transcribe(recognizer, clip).text
                after = transcribe(recognizer, apply_transform(seeded, clip)).text
                sims.append(similarity(before, after))
                ratio = distance_ratio(row.label, before, after)
                if ratio is not None:
                    ratios.append(ratio)
            scores.append((sum(sims) / len(sims),
                           sum(ratios) / len(ratios) if ratios else None))
        (sb, rb), (sa, ra) = scores
        out.append((*key, sb, sa, rb, ra))
    return out


class TestTextMode:
    def test_sweep_matches_transcribe_before_after(self, tmp_path, text_sets):
        clean, adv = text_sets
        cfg = ExperimentConfig(master_seed=9, grid=(10, 200), out_dir=str(tmp_path))
        report = run_intensity_sweep(cfg, clean, adv, recognizer=OD_RECOGNIZER)
        rows = [((kind, i), parse_transform(f"{kind}:{i}"))
                for kind in ("uniform", "gaussian") for i in cfg.grid]
        assert report.rows == text_reference(OD_RECOGNIZER, clean, adv, rows, "sweep", 9)
        assert any(row[2] < 100.0 for row in report.rows)  # the noise is heard

    def test_compare_matches_transcribe_before_after(self, tmp_path, text_sets):
        clean, adv = text_sets
        cfg = ExperimentConfig(master_seed=8, transforms=("uniform:100", "requant8", "median:3"),
                               out_dir=str(tmp_path))
        report = run_transform_comparison(cfg, clean, adv, recognizer=OD_RECOGNIZER)
        rows = [(("none",), None)] + [((text,), parse_transform(text))
                                      for text in cfg.transforms]
        assert report.rows == text_reference(OD_RECOGNIZER, clean, adv, rows, "compare", 8)

    @pytest.mark.parametrize("driver", ["sweep", "compare", "roc"])
    def test_each_plain_clip_is_heard_once_per_call(self, tmp_path, monkeypatch, text_sets,
                                                    driver):
        clean, adv = text_sets
        plain = {hashlib.sha256(read_wav(m.resolve(row)).samples.tobytes()).hexdigest()
                 for m in (clean, adv) for row in m.rows}
        heard = []

        def counting(spec, clips):
            heard.extend(hashlib.sha256(clip.samples.tobytes()).hexdigest() for clip in clips)
            return transcribe_clips(spec, clips)

        monkeypatch.setattr(experiments, "transcribe_clips", counting)
        cfg = ExperimentConfig(master_seed=7, grid=(10, 50, 200),
                               transforms=("uniform:100", "gaussian:100"),
                               recognizer=OD_RECOGNIZER, out_dir=str(tmp_path))
        if driver == "sweep":
            run_intensity_sweep(cfg, clean, adv, recognizer=OD_RECOGNIZER)
            cells = 6
        elif driver == "compare":
            run_transform_comparison(cfg, clean, adv, recognizer=OD_RECOGNIZER)
            cells = 2
        else:
            run_detection_eval(cfg, clean, adv)
            cells = 6
        assert sorted(d for d in heard if d in plain) == sorted(plain)
        assert len(heard) == len(plain) * (cells + 1)


def percent(hits):
    return sum(hits) / len(hits) * 100.0


def command_reference(model, clean, adv, rows, stage, master_seed):
    """Report rows as command-mode sweep/compare define them: each clip
    predicted on its own after the transform."""
    out = []
    for key, spec in rows:
        heard = {}
        for group, manifest in (("clean", clean), ("adv", adv)):
            heard[group] = []
            for idx, row in enumerate(manifest.rows):
                clip = read_wav(manifest.resolve(row))
                if spec is not None:
                    clip = apply_transform(replace(spec, seed=derive_seed(
                        master_seed, f"{stage}-{group}", spec.kind, idx)), clip)
                heard[group].append(predict(model, clip)[0])
        out.append((*key, percent([label == row.target for label, row
                                   in zip(heard["adv"], adv.rows)]),
                    percent([label == row.label for label, row
                             in zip(heard["clean"], clean.rows)])))
    return out


class TestCommandMode:
    """Each group of a cell is heard as one list; every report must equal
    predicting each clip on its own."""

    @pytest.fixture(scope="class")
    def sets(self, tiny_corpus):
        clean = Manifest(rows=tiny_corpus.rows[:7], base_dir=tiny_corpus.base_dir)
        adv = Manifest(rows=[ManifestRow(path=r.path, label=r.label, target="no", source=r.path)
                             for r in tiny_corpus.rows[7:16]],
                       base_dir=tiny_corpus.base_dir)
        return clean, adv

    def test_sweep_matches_predict_per_clip(self, tmp_path, tiny_model, sets):
        clean, adv = sets
        cfg = ExperimentConfig(master_seed=12, grid=(30, 500, 3000), out_dir=str(tmp_path))
        report = run_intensity_sweep(cfg, clean, adv, model=tiny_model)
        rows = [((kind, i), parse_transform(f"{kind}:{i}"))
                for kind in ("uniform", "gaussian") for i in cfg.grid]
        assert report.rows == command_reference(tiny_model, clean, adv, rows, "sweep", 12)
        assert len({row[2:] for row in report.rows}) > 1  # the noise is heard

    def test_compare_matches_predict_per_clip(self, tmp_path, tiny_model, sets):
        clean, adv = sets
        cfg = ExperimentConfig(master_seed=13, out_dir=str(tmp_path))
        report = run_transform_comparison(cfg, clean, adv, model=tiny_model)
        rows = [(("none",), None)] + [((text,), parse_transform(text))
                                      for text in cfg.transforms]
        assert report.rows == command_reference(tiny_model, clean, adv, rows, "compare", 13)

    @pytest.mark.parametrize("mode", ["edit", "flip"])
    def test_roc_through_builtin_matches_predict_per_clip(self, tmp_path, tiny_model, sets,
                                                          mode):
        clean, adv = sets
        save_model(tiny_model, tmp_path / "model.txt")
        cfg = ExperimentConfig(master_seed=14, grid=(100, 3000), out_dir=str(tmp_path),
                               recognizer=RecognizerSpec.builtin(str(tmp_path / "model.txt")),
                               cr_mode=mode)
        cells = run_detection_eval(cfg, clean, adv)
        for kind in ("uniform", "gaussian"):
            for intensity in cfg.grid:
                scored = []
                for group, manifest, flag in (("clean", clean, False), ("adv", adv, True)):
                    for idx, row in enumerate(manifest.rows):
                        clip = read_wav(manifest.resolve(row))
                        noisy = add_noise(clip, TransformSpec(kind, (intensity,), seed=derive_seed(
                            14, "detect", kind, group, idx)))
                        scored.append((transcript_change(predict(tiny_model, clip)[0],
                                                         predict(tiny_model, noisy)[0], mode),
                                       flag))
                want = None if len({s for s, _ in scored}) == 1 else roc(scored)
                assert cells[(kind, intensity)] == want
        assert any(cell is not None for cell in cells.values())


class TestIntensitySweep:
    def test_zero_intensity_matches_undefended(self, tmp_path, tiny_model, attacked, tiny_corpus):
        out_dir, subset, results, adv_manifest = attacked
        if not adv_manifest.rows:
            pytest.skip("no successful attacks in fixture")
        cfg = ExperimentConfig(master_seed=1, grid=(0, 50), out_dir=str(tmp_path))
        report = run_intensity_sweep(cfg, subset, adv_manifest, model=tiny_model)
        assert report.columns == ["noise_kind", "intensity", "asr_avg", "acc"]
        by_key = {(r[0], r[1]): r for r in report.rows}
        plain_acc = 100.0 * np.mean([
            predict(tiny_model, read_wav(subset.resolve(row)))[0] == row.label
            for row in subset.rows
        ])
        plain_asr = 100.0 * np.mean([
            predict(tiny_model, read_wav(adv_manifest.resolve(row)))[0] == row.target
            for row in adv_manifest.rows
        ])
        for kind in ("uniform", "gaussian"):
            assert by_key[(kind, 0)][2] == pytest.approx(plain_asr)
            assert by_key[(kind, 0)][3] == pytest.approx(plain_acc)
        assert (tmp_path / "sweep_command.csv").is_file()

    def test_text_mode_uses_recognizer(self, tmp_path, tiny_corpus):
        subset = Manifest(rows=tiny_corpus.rows[:2], base_dir=tiny_corpus.base_dir)
        adv = Manifest(rows=[ManifestRow(path=r.path, label=r.label, target="no",
                                         source=r.path) for r in tiny_corpus.rows[2:4]],
                       base_dir=tiny_corpus.base_dir)
        cfg = ExperimentConfig(master_seed=2, grid=(10,), out_dir=str(tmp_path))
        stub = RecognizerSpec.external("sh -c 'echo fixed words' {}")
        report = run_intensity_sweep(cfg, subset, adv, recognizer=stub)
        assert (tmp_path / "sweep_similarity.csv").is_file()
        for row in report.rows:
            assert row[2] == pytest.approx(100.0)  # stub never changes its answer
            assert row[3] == pytest.approx(100.0)

    def test_requires_exactly_one_mode(self, tmp_path, tiny_model, tiny_corpus):
        cfg = ExperimentConfig(out_dir=str(tmp_path))
        with pytest.raises(ValueError):
            run_intensity_sweep(cfg, tiny_corpus, tiny_corpus)


class TestTransformComparison:
    def test_row_count_and_no_defense_row(self, tmp_path, tiny_model, attacked):
        out_dir, subset, results, adv_manifest = attacked
        if not adv_manifest.rows:
            pytest.skip("no successful attacks in fixture")
        cfg = ExperimentConfig(master_seed=3, transforms=("uniform:100", "requant8"),
                               out_dir=str(tmp_path))
        report = run_transform_comparison(cfg, subset, adv_manifest, model=tiny_model)
        assert len(report.rows) == 3  # no-defense row plus one per transform
        assert report.rows[0][0] == "none"
        labels = [r[0] for r in report.rows[1:]]
        assert labels == ["uniform:100", "requant8"]
        assert (tmp_path / "compare_command.csv").is_file()


class TestDetectionEval:
    @pytest.mark.parametrize("mode", ["edit", "flip"])
    def test_cells_match_change_rate_per_clip(self, tmp_path, tiny_model, attacked, mode):
        out_dir, subset, results, adv_manifest = attacked
        if not adv_manifest.rows:
            pytest.skip("no successful attacks in fixture")
        model_path = tmp_path / "model.txt"
        save_model(tiny_model, model_path)
        rec = RecognizerSpec.builtin(str(model_path))
        cfg = ExperimentConfig(master_seed=6, grid=(50, 500, 2000), recognizer=rec,
                               out_dir=str(tmp_path), cr_mode=mode)
        cells = run_detection_eval(cfg, subset, adv_manifest)
        for kind in ("uniform", "gaussian"):
            for intensity in cfg.grid:
                scored = []
                for group, manifest, flag in (("clean", subset, False),
                                              ("adv", adv_manifest, True)):
                    for idx, row in enumerate(manifest.rows):
                        noise = TransformSpec(kind, (intensity,), seed=derive_seed(
                            6, "detect", kind, group, idx))
                        cr, _, _ = change_rate(rec, read_wav(manifest.resolve(row)), noise,
                                               mode=mode)
                        scored.append((cr, flag))
                want = None if len({s for s, _ in scored}) == 1 else roc(scored)
                assert cells[(kind, intensity)] == want
        assert any(cell is not None for cell in cells.values())

    def test_zero_intensity_cell_is_undefined(self, tmp_path, tiny_model, attacked, tmp_path_factory):
        out_dir, subset, results, adv_manifest = attacked
        if not adv_manifest.rows:
            pytest.skip("no successful attacks in fixture")
        model_path = tmp_path / "model.txt"
        save_model(tiny_model, model_path)
        cfg = ExperimentConfig(
            master_seed=4, grid=(0, 100),
            recognizer=RecognizerSpec.builtin(str(model_path)),
            out_dir=str(tmp_path),
        )
        cells = run_detection_eval(cfg, subset, adv_manifest)
        assert len(cells) == 4  # 2 kinds x 2 intensities
        assert cells[("uniform", 0)] is None
        assert cells[("gaussian", 0)] is None
        summary = (tmp_path / "detection_auc.csv").read_text().splitlines()
        assert summary[0] == "noise_kind,intensity,auc,youden_threshold"
        assert len(summary) == 5
        for cell, result in cells.items():
            if result is not None:
                curve = tmp_path / "roc" / f"roc_{cell[0]}_{cell[1]}.csv"
                assert curve.is_file()
                assert curve.read_text().splitlines()[-1].startswith("auc,")

    def test_degenerate_cell_removes_an_earlier_curve(self, tmp_path, text_sets):
        # at intensity 0 no transcript changes, so no cell has a curve; one left
        # in the same out dir by an earlier run must not outlive its cell
        clean, adv = text_sets
        stale = tmp_path / "roc" / "roc_uniform_0.csv"
        stale.parent.mkdir()
        stale.write_text("threshold,fpr,tpr\nauc,1.000000\n")
        cfg = ExperimentConfig(master_seed=5, grid=(0,), recognizer=OD_RECOGNIZER,
                               out_dir=str(tmp_path))
        assert run_detection_eval(cfg, clean, adv) == {("uniform", 0): None,
                                                       ("gaussian", 0): None}
        assert list((tmp_path / "roc").iterdir()) == []
        assert (tmp_path / "detection_auc.csv").read_text().splitlines()[1:] == [
            "uniform,0,,", "gaussian,0,,"]


class TestPairedDraws:
    """A clip's noise at every intensity of the grid comes from one seed per kind,
    so the cells of a sweep or a ROC differ by the intensity alone."""

    @pytest.mark.parametrize("driver", ["sweep", "roc"])
    def test_a_clip_draws_from_one_seed_per_kind(self, tmp_path, monkeypatch, text_sets,
                                                 driver):
        clean, adv = text_sets
        seeds = {}  # (kind, clip) -> {intensity: seed}

        def recording(clip, spec, units=None):
            key = (spec.kind, hashlib.sha256(clip.samples.tobytes()).hexdigest())
            seeds.setdefault(key, {})[spec.params[0]] = spec.seed
            return add_noise(clip, spec, units)

        # add_noise makes one generator per draw it takes
        rngs = Counter()
        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: rngs.update([seed]) or default_rng(seed))
        cfg = ExperimentConfig(master_seed=3, grid=(10, 70, 100, 500), recognizer=OD_RECOGNIZER,
                               out_dir=str(tmp_path))
        monkeypatch.setattr(transforms, "add_noise", recording)
        if driver == "sweep":
            run_intensity_sweep(cfg, clean, adv, recognizer=OD_RECOGNIZER)
        else:
            run_detection_eval(cfg, clean, adv)
        assert len(seeds) == 2 * (len(clean.rows) + len(adv.rows))
        for by_intensity in seeds.values():
            assert sorted(by_intensity) == list(cfg.grid)
            assert len(set(by_intensity.values())) == 1
        # each clip and kind still draws its own noise
        assert len({next(iter(s.values())) for s in seeds.values()}) == len(seeds)
        # and draws its noise of either kind once for the whole grid
        assert [rngs[next(iter(s.values()))] for s in seeds.values()] == [1] * len(seeds)

    @pytest.mark.parametrize("block", [1, 2])
    def test_a_block_bounds_the_draws_held(self, tmp_path, monkeypatch, text_sets, block):
        clean, adv = text_sets
        cfg = ExperimentConfig(master_seed=5, grid=(10, 70, 500), recognizer=OD_RECOGNIZER,
                               transforms=("gaussian:30", "gaussian:300", "uniform:30"))

        def reports(out_dir):
            run = replace(cfg, out_dir=str(out_dir))
            run_intensity_sweep(run, clean, adv, recognizer=OD_RECOGNIZER)
            run_transform_comparison(run, clean, adv, recognizer=OD_RECOGNIZER)
            run_detection_eval(run, clean, adv)
            return {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*.csv")}

        want = reports(tmp_path / "whole")
        held = []

        def recording(add_noise):
            def record(clip, spec, units=None):
                held.append(None if units is None else len(units))
                return add_noise(clip, spec, units)
            return record

        monkeypatch.setattr(transforms, "add_noise", recording(transforms.add_noise))
        monkeypatch.setattr(detection, "HEAR_BLOCK", block)
        assert reports(tmp_path / "blocks") == want
        # a gaussian unit draw and a uniform stream per clip of the block
        assert max(n for n in held if n is not None) == 2 * block


# a small CLI pipeline, every path relative to the working directory; the
# gradient attack gives a reliable adversarial set for the report commands
CLI_PIPELINE = [
    ["synth", "--classes", "2", "--per-class", "3", "--out-dir", "corpus", "--seed", "11"],
    ["train", "--manifest", "corpus/manifest.csv", "--out", "model.txt", "--epochs", "40",
     "--learning-rate", "5e-5", "--seed", "1"],
    ["attack", "ga", "--model", "model.txt", "--manifest", "corpus/manifest.csv",
     "--out-dir", "adv", "--k-max", "5", "--population-size", "6", "--seed", "2"],
    ["defend", "--transform", "gaussian:100", "--in", "corpus/wavs/yes_0000.wav",
     "--out", "defended.wav"],
    ["detect", "--manifest", "corpus/manifest.csv", "--recognizer", "builtin:model.txt",
     "--noise", "gaussian:100", "--threshold", "0.5", "--out", "detect.csv", "--seed", "3"],
    ["detect", "--manifest", "corpus/manifest.csv", "--recognizer", "builtin:model.txt",
     "--noise", "gaussian:2000", "--votes", "3", "--out", "detect_votes.csv", "--seed", "3"],
    ["attack", "pgd", "--model", "model.txt", "--manifest", "corpus/manifest.csv",
     "--out-dir", "adv_pgd", "--tau", "0", "--steps", "40", "--step-size", "16", "--seed", "8"],
    ["sweep", "--model", "model.txt", "--clean-manifest", "corpus/manifest.csv",
     "--adv-manifest", "adv_pgd/manifest.csv", "--grid", "10,50", "--out-dir", "reports",
     "--seed", "4"],
    ["compare", "--model", "model.txt", "--clean-manifest", "corpus/manifest.csv",
     "--adv-manifest", "adv_pgd/manifest.csv", "--transforms", "uniform:100,requant8",
     "--out-dir", "reports", "--seed", "5"],
    ["roc", "--recognizer", "builtin:model.txt", "--clean-manifest", "corpus/manifest.csv",
     "--adv-manifest", "adv_pgd/manifest.csv", "--grid", "10,50", "--out-dir", "reports",
     "--seed", "6"],
]


class TestCli:
    def test_end_to_end_pipeline(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in CLI_PIPELINE:
            assert cli.main(argv) == 0, argv
        assert (tmp_path / "adv" / "records.jsonl").is_file()
        assert (tmp_path / "defended.wav").is_file()
        for name in ("detect.csv", "detect_votes.csv"):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[0] == "path,cr,verdict,transcript_before,transcript_after"
            assert len(lines) == 7
        assert load_manifest(tmp_path / "adv_pgd" / "manifest.csv").rows, \
            "pgd attack produced no adversarial examples"
        for name in ("sweep_command.csv", "compare_command.csv", "detection_auc.csv"):
            assert (tmp_path / "reports" / name).is_file()

    def test_two_fresh_interpreters_write_the_same_bytes(self, tmp_path):
        """The pipeline, run in two fresh interpreters with other hash seeds and
        working directories, writes the same bytes. Each interpreter runs every
        command through `cli.main`, so state that lives across calls (such as the
        recognizer file memo) carries from one command to the next."""
        script = ("import json, sys\nfrom noisegate.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n    main(argv)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"  # two runs share the CPUs
        runs = []
        for hash_seed in ("1", "2"):
            cwd = tmp_path / f"run{hash_seed}"
            cwd.mkdir()
            runs.append((cwd, subprocess.Popen(
                [sys.executable, "-c", script, json.dumps(CLI_PIPELINE)], cwd=cwd,
                env={**env, "PYTHONHASHSEED": hash_seed},
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)))
        for _, proc in runs:
            _, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err.decode()
        (a, _), (b, _) = runs
        files = digests(a)
        assert len(files) > 20
        assert differences(files, digests(b)) == []

    def test_env_seed_override(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NOISEGATE_SEED", "4242")
        a = tmp_path / "a"
        cli.main(["synth", "--classes", "2", "--per-class", "1",
                  "--out-dir", str(a), "--seed", "1"])
        monkeypatch.setenv("NOISEGATE_SEED", "4242")
        b = tmp_path / "b"
        cli.main(["synth", "--classes", "2", "--per-class", "1",
                  "--out-dir", str(b), "--seed", "2"])
        wav = "wavs/yes_0000.wav"
        assert (a / wav).read_bytes() == (b / wav).read_bytes()

    def test_config_file_values_used(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 77, "out_dir": str(tmp_path / "c")}))
        assert cli.main(["--config", str(config), "synth",
                         "--classes", "2", "--per-class", "1"]) == 0
        direct = tmp_path / "d"
        cli.main(["synth", "--classes", "2", "--per-class", "1",
                  "--out-dir", str(direct), "--seed", "77"])
        assert ((tmp_path / "c" / "wavs" / "yes_0000.wav").read_bytes()
                == (direct / "wavs" / "yes_0000.wav").read_bytes())

    def test_config_sets_synth_counts(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classes": 2, "per_class": 3}))
        out = tmp_path / "c"
        assert cli.main(["--config", str(config), "synth", "--out-dir", str(out)]) == 0
        assert len(load_manifest(out / "manifest.csv").rows) == 6
        assert cli.main(["--config", str(config), "synth", "--out-dir", str(out),
                         "--per-class", "1"]) == 0
        assert len(load_manifest(out / "manifest.csv").rows) == 2

    def test_flag_equal_to_its_default_beats_the_config(self, tmp_path):
        # a flag that is not given is absent, not its default, so one that
        # equals the default still beats the config file
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classes": 2}))
        out = tmp_path / "c"
        assert cli.main(["--config", str(config), "synth", "--classes", "10",
                         "--per-class", "1", "--out-dir", str(out)]) == 0
        assert len(load_manifest(out / "manifest.csv").rows) == 10

    def test_help_exits_zero(self, capsys):
        for sub in [[], *([name] for name in build_parser_subcommands())]:
            with pytest.raises(SystemExit) as exc:
                cli.main([*sub, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out.startswith(" ".join(["usage: noisegate", *sub]))

    def test_spectrogram_is_no_subcommand(self, tmp_path, monkeypatch, capsys):
        # an inspection tool outside the attack -> devastate -> detect loop, so not a command
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrogram", "--in", "x.wav", "--out", "y.pgm"])
        assert exc.value.code == 2
        assert "invalid choice: 'spectrogram'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class _Captured(Exception):
    """Raised by the `load_manifest` stand-in, after a command has built its configs."""


# (target, field, config value, flag, flag value): one row per config field with a flag
FLAG_SETTINGS = [
    ("train", "learning_rate", 3e-5, ["--learning-rate", "4e-5"], 4e-5),
    ("train", "momentum", 0.5, ["--momentum", "0.7"], 0.7),
    ("train", "epochs", 7, ["--epochs", "9"], 9),
    ("train", "batch_size", 5, ["--batch-size", "6"], 6),
    ("train", "validation_fraction", 0.2, ["--validation-fraction", "0.3"], 0.3),
    ("ga", "population_size", 7, ["--population-size", "8"], 8),
    ("ga", "k_max", 7, ["--k-max", "9"], 9),
    ("ga", "temp", 0.5, ["--temp", "0.25"], 0.25),
    ("ga", "mutation_probability", 0.1, ["--mutation-probability", "0.2"], 0.2),
    ("ga", "mutation_range", 9, ["--mutation-range", "11"], 11),
    ("ga", "init_noise_bits", 3, ["--init-noise-bits", "4"], 4),
    ("detect", "threshold", 0.25, ["--threshold", "0.75"], 0.75),
    ("pgd", "tau", -5.0, ["--tau", "-7"], -7.0),
    ("pgd", "steps", 7, ["--steps", "9"], 9),
    ("pgd", "step_size", 3, ["--step-size", "4"], 4),
    ("detect", "votes", 3, ["--votes", "5"], 5),
    ("detect", "noise", "uniform:50", ["--noise", "gaussian:30"], TransformSpec("gaussian", (30,))),
    ("detect", "recognizer", "external:echo a {}", ["--recognizer", "external:echo b {}"],
     RecognizerSpec.external("echo b {}")),
    ("detect", "cr_mode", "flip", ["--cr-mode", "edit"], "edit"),
    ("sweep", "grid", [20, 40], ["--grid", "5,15"], (5, 15)),
    ("compare", "transforms", ["quant:256"], ["--transforms", "requant8"], ("requant8",)),
    ("sweep", "recognizer", "external:echo a {}", ["--recognizer", "external:echo b {}"],
     RecognizerSpec.external("echo b {}")),
    ("sweep", "out_dir", "from_config", ["--out-dir", "from_flag"], "from_flag"),
    ("roc", "cr_mode", "flip", ["--cr-mode", "edit"], "edit"),
    ("compare", "recognizer", "external:echo a {}", ["--recognizer", "external:echo b {}"],
     RecognizerSpec.external("echo b {}")),
    ("compare", "out_dir", "from_config", ["--out-dir", "from_flag"], "from_flag"),
    ("roc", "grid", [20, 40], ["--grid", "5,15"], (5, 15)),
    ("roc", "recognizer", "external:echo a {}", ["--recognizer", "external:echo b {}"],
     RecognizerSpec.external("echo b {}")),
    ("roc", "out_dir", "from_config", ["--out-dir", "from_flag"], "from_flag"),
]
TARGET_CONFIGS = {"train": TrainConfig, "ga": GaConfig, "pgd": PgdConfig,
                  "detect": DetectionConfig, "sweep": ExperimentConfig,
                  "compare": ExperimentConfig, "roc": ExperimentConfig}
TARGET_COMMANDS = {"train": ["train", "--manifest", "m.csv", "--out", "m.txt"],
                   "ga": ["attack", "ga", "--model", "m.txt", "--manifest", "m.csv",
                          "--out-dir", "adv"],
                   "pgd": ["attack", "pgd", "--model", "m.txt", "--manifest", "m.csv",
                           "--out-dir", "adv"],
                   "detect": ["detect", "--manifest", "m.csv"],
                   **{name: [name, "--clean-manifest", "m.csv", "--adv-manifest", "m.csv"]
                      for name in ("sweep", "compare", "roc")}}
# the ExperimentConfig fields each report subcommand's driver reads
REPORT_SETTINGS = {"sweep": {"grid", "recognizer", "out_dir"},
                   "compare": {"transforms", "recognizer", "out_dir"},
                   "roc": {"grid", "recognizer", "out_dir", "cr_mode"}}


class TestCliSettings:
    @pytest.fixture
    def resolved(self, tmp_path, monkeypatch):
        """run(target, config, *flags) -> the config object the CLI builds for target."""
        built = {}
        from_flags = cli._from_flags

        def record(cls, *args, **fixed):
            built[cls] = from_flags(cls, *args, **fixed)
            return built[cls]

        def stop(path):
            raise _Captured

        monkeypatch.setattr(cli, "_from_flags", record)
        monkeypatch.setattr(cli.classifier, "load", lambda path: None)
        monkeypatch.setattr(cli, "load_manifest", stop)
        config_path = tmp_path / "config.json"

        def run(target, config, *flags):
            if target == "detect":  # the one setting without a default
                config = {"recognizer": "external:echo yes {}", **config}
            config_path.write_text(json.dumps(config))
            with pytest.raises(_Captured):
                cli.main(["--config", str(config_path), *TARGET_COMMANDS[target], *flags])
            return built[TARGET_CONFIGS[target]]

        return run

    def test_table_covers_every_field_with_a_flag(self):
        subcommands = build_parser_subcommands()
        flagged = set()
        for target, cls in TARGET_CONFIGS.items():
            dests = {action.dest for action in subcommands[TARGET_COMMANDS[target][0]]._actions}
            flagged |= {(target, f.name) for f in fields(cls)
                        if f.name in dests and f.name != "seed"}
        assert flagged == {(target, field) for target, field, *_ in FLAG_SETTINGS}

    @pytest.mark.parametrize("command, classes, others", [
        ("train", (TrainConfig,), {"manifest", "out"}),
        ("attack", (GaConfig, PgdConfig), {"mode", "model", "manifest", "out_dir", "target"}),
        ("detect", (DetectionConfig,), {"manifest", "out"}),
        ("sweep", (ExperimentConfig,), {"clean_manifest", "adv_manifest", "model"}),
        ("compare", (ExperimentConfig,), {"clean_manifest", "adv_manifest", "model"}),
        ("roc", (ExperimentConfig,), {"clean_manifest", "adv_manifest"}),
    ])
    def test_setting_flags_are_the_config_fields(self, command, classes, others):
        dests = {action.dest for action in build_parser_subcommands()[command]._actions}
        assert {"help", "seed"} <= dests
        settings = REPORT_SETTINGS.get(command) or (
            {f.name for cls in classes for f in fields(cls)} - {"seed", "master_seed"})
        assert dests - {"help", "seed"} - others == settings

    def test_report_subcommand_rejects_a_setting_its_driver_never_reads(self, capsys):
        # sweep used to accept --cr-mode and --transforms and ignore them
        for argv in (["sweep", "--cr-mode", "flip"], ["sweep", "--transforms", "requant8"],
                     ["compare", "--grid", "10"], ["compare", "--cr-mode", "flip"],
                     ["roc", "--transforms", "requant8"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--clean-manifest", "c.csv", "--adv-manifest", "a.csv"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("target, field, config_value, flag, flag_value", FLAG_SETTINGS)
    def test_config_is_used_and_flag_wins(self, resolved, target, field, config_value, flag,
                                          flag_value):
        default = {f.name: f.default for f in fields(TARGET_CONFIGS[target])}[field]
        expected = cli._PARSERS.get(field, lambda value: value)(config_value)
        assert default != expected != flag_value
        if default is not MISSING:
            assert getattr(resolved(target, {}), field) == default
        from_config = getattr(resolved(target, {field: config_value}), field)
        assert from_config == expected and type(from_config) is type(flag_value)
        # the flag beats a config value that differs from it
        from_flag = getattr(resolved(target, {field: config_value}, *flag), field)
        assert from_flag == flag_value and type(from_flag) is type(flag_value)

    @pytest.mark.parametrize("argv, config, grid, transforms", [
        ([], {}, DEFAULT_GRID, DEFAULT_COMPARISON_TRANSFORMS),
        (["--grid", "10, 50", "--transforms", "requant8, median:3,"], {},
         (10, 50), ("requant8", "median:3")),
        ([], {"grid": [20, 40], "transforms": ["quant:256"]}, (20, 40), ("quant:256",)),
        (["--grid", "5"], {"grid": [20, 40]}, (5,), DEFAULT_COMPARISON_TRANSFORMS),
    ])
    def test_list_settings(self, resolved, argv, config, grid, transforms):
        # grid is a sweep flag and transforms a compare one; one config file serves both
        flags = dict(zip(argv[::2], argv[1::2]))

        def given(flag):
            return [flag, flags[flag]] if flag in flags else []

        assert resolved("sweep", config, *given("--grid")).grid == grid
        assert resolved("compare", config, *given("--transforms")).transforms == transforms

    def test_bad_env_seed_exits_naming_the_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NOISEGATE_SEED", "abc")
        with pytest.raises(SystemExit, match="^noisegate synth: NOISEGATE_SEED"):
            cli.main(["synth", "--classes", "2", "--per-class", "1",
                      "--out-dir", str(tmp_path)])

    @pytest.mark.parametrize("argv, config, message", [
        (["train", "--manifest", "{m}", "--out", "{t}/m.txt"], {"epochs": 0}, "epochs"),
        (["attack", "ga", "--model", "{t}/m.txt", "--manifest", "{m}", "--out-dir", "{t}/adv",
          "--population-size", "1"], {}, "population_size"),
        (["attack", "pgd", "--model", "{t}/m.txt", "--manifest", "{m}", "--out-dir", "{t}/adv",
          "--steps", "0"], {}, "steps"),
        (["attack", "pgd", "--model", "{t}/m.txt", "--manifest", "{m}", "--out-dir", "{t}/adv",
          "--tau", "nan"], {}, "tau"),
        (["roc", "--clean-manifest", "{m}", "--adv-manifest", "{m}",
          "--recognizer", "external:echo yes {}"], {"cr_mode": "Flip"}, "cr_mode"),
        (["detect", "--manifest", "{m}", "--recognizer", "external:echo yes {}",
          "--votes", "2", "--out", "{t}/detect.csv"], {}, "votes"),
        (["defend", "--transform", "reverb:3", "--in", "{m}", "--out", "{t}/out.wav"], {},
         "reverb"),
        (["roc", "--clean-manifest", "{m}", "--adv-manifest", "{m}",
          "--recognizer", "external:echo yes"], {}, "placeholder"),
        # a config value of the wrong JSON type
        (["train", "--manifest", "{m}", "--out", "{t}/m.txt"], {"epochs": 2.9}, "epochs"),
        (["train", "--manifest", "{m}", "--out", "{t}/m.txt"], {"epochs": True}, "epochs"),
        (["attack", "ga", "--model", "{t}/m.txt", "--manifest", "{m}", "--out-dir", "{t}/adv"],
         {"k_max": 9.99}, "k_max"),
        (["detect", "--manifest", "{m}", "--recognizer", "external:echo yes {}",
          "--out", "{t}/detect.csv"], {"votes": 3.7}, "votes"),
        (["roc", "--clean-manifest", "{m}", "--adv-manifest", "{m}", "--out-dir", "{t}/out",
          "--recognizer", "external:echo yes {}"], {"grid": [10.7, 20]}, "grid"),
        (["compare", "--clean-manifest", "{m}", "--adv-manifest", "{m}", "--out-dir", "{t}/out",
          "--recognizer", "external:echo yes {}"], {"transforms": [256]}, "transforms"),
        (["roc", "--clean-manifest", "{m}", "--adv-manifest", "{m}", "--out-dir", "{t}/out",
          "--recognizer", "external:echo yes {}"], {"grid": 10}, "grid"),
        (["detect", "--manifest", "{m}", "--recognizer", "external:echo yes {}",
          "--out", "{t}/detect.csv"], {"threshold": [1]}, "threshold"),
        (["detect", "--manifest", "{m}", "--recognizer", "external:echo yes {}",
          "--out", "{t}/detect.csv"], {"noise": 200}, "noise"),
        (["synth"], {"out_dir": 5}, "out_dir"),
        # a flag's list item that is not of the setting's type
        (["sweep", "--clean-manifest", "{m}", "--adv-manifest", "{m}", "--out-dir", "{t}/out",
          "--recognizer", "external:echo yes {}", "--grid", "1.5"], {}, "grid"),
        # a config file that holds no JSON object
        (["synth", "--out-dir", "{t}/out"], [1], "JSON object"),
        # roc with no recognizer
        (["roc", "--clean-manifest", "{m}", "--adv-manifest", "{m}", "--out-dir", "{t}/out"], {},
         "recognizer (builtin:"),
        # a non-finite training rate used to write a model no command could load
        (["train", "--manifest", "{m}", "--out", "{t}/m.txt", "--learning-rate", "nan"], {},
         "learning_rate"),
        (["train", "--manifest", "{m}", "--out", "{t}/m.txt", "--momentum", "inf"], {},
         "momentum"),
        # heavy-ball momentum of 1 or more diverges to a chance-level model
        (["train", "--manifest", "{m}", "--out", "{t}/m.txt", "--momentum", "5"], {},
         "momentum must be in [0, 1), got 5.0"),
    ], ids=["TrainConfig", "GaConfig", "PgdConfig", "PgdConfig-tau", "ExperimentConfig",
            "DetectionConfig", "TransformSpec", "RecognizerSpec", "epochs-float", "epochs-bool",
            "k_max-float", "votes-float", "grid-float-item", "transforms-int-item", "grid-int",
            "threshold-list", "noise-int", "synth-out_dir-int", "grid-flag-float-item",
            "config-not-object", "roc-no-recognizer", "learning_rate-nan", "momentum-inf",
            "momentum-5"])
    def test_bad_setting_exits_with_one_line(self, tmp_path, argv, config, message):
        synth_dataset(2, 1, seed=3, out_dir=tmp_path / "corpus")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        manifest = str(tmp_path / "corpus" / "manifest.csv")
        argv = [arg.replace("{m}", manifest).replace("{t}", str(tmp_path)) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(config_path), *argv])
        text = str(exc.value.code)
        assert text.startswith(f"noisegate {argv[0]}: ") and message in text
        assert "\n" not in text

    def test_roc_rejects_an_out_of_range_grid_before_it_writes(self, tmp_path):
        # the grid was checked only once the cells were built: after both manifests
        # were read and <out-dir>/roc/ was made
        synth_dataset(2, 1, seed=3, out_dir=tmp_path / "corpus")
        manifest = str(tmp_path / "corpus" / "manifest.csv")
        with pytest.raises(SystemExit) as exc:
            cli.main(["roc", "--clean-manifest", manifest, "--adv-manifest", manifest,
                      "--out-dir", str(tmp_path / "out"), "--recognizer", "external:echo yes {}",
                      "--grid=-10,10"])
        assert str(exc.value.code) == (
            "noisegate roc: uniform intensity must be in [0, 32767], got -10")
        assert not (tmp_path / "out").exists()

    def test_a_report_rejects_a_row_without_target_before_it_writes(self, tmp_path,
                                                                     tiny_model):
        # the target check ran only after both manifests were read and --out-dir was made
        synth_dataset(2, 1, seed=3, out_dir=tmp_path / "corpus")
        manifest = str(tmp_path / "corpus" / "manifest.csv")
        save_model(tiny_model, tmp_path / "model.txt")
        with pytest.raises(SystemExit, match="no target label") as exc:
            cli.main(["sweep", "--model", str(tmp_path / "model.txt"), "--clean-manifest",
                      manifest, "--adv-manifest", manifest, "--out-dir", str(tmp_path / "out")])
        assert str(exc.value.code).startswith("noisegate sweep: adversarial manifest row ")
        assert not (tmp_path / "out").exists()

    def test_malformed_config_file_exits_with_one_line(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"epochs": 3,}')
        with pytest.raises(SystemExit, match="^noisegate synth: Expecting property name"):
            cli.main(["--config", str(config_path), "synth", "--out-dir", str(tmp_path)])

    # fft_size and hop were the removed spectrogram subcommand's keys
    @pytest.mark.parametrize("key", ["k-max", "kmax", "config", "fft_size", "hop"])
    def test_unknown_config_key_exits_naming_it(self, tmp_path, key):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"k_max": 5, key: 5}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(config_path), "synth", "--classes", "2",
                      "--per-class", "1", "--out-dir", str(tmp_path / "out")])
        assert str(exc.value.code) == (f"noisegate synth: unknown config key {key!r}; a key is "
                                       f"a flag's long name with underscores, e.g. k_max")
        assert not (tmp_path / "out").exists()

    def test_config_keys_of_other_subcommands_are_allowed(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"k_max": 200, "grid": [10, 50], "votes": 3,
                                           "classes": 2, "per_class": 1}))
        assert cli.main(["--config", str(config_path), "synth",
                         "--out-dir", str(tmp_path / "out")]) == 0
        assert len(load_manifest(tmp_path / "out" / "manifest.csv")) == 2

    @pytest.mark.parametrize("command, files", [("sweep", ("sweep_command.csv",
                                                           "sweep_similarity.csv")),
                                                ("compare", ("compare_command.csv",
                                                             "compare_transforms.csv"))])
    def test_report_commands_name_their_file(self, tmp_path, capsys, tiny_model, text_sets,
                                             command, files):
        common = [command, *report_inputs(tmp_path, tiny_model, text_sets, command)]
        for mode, name in zip((["--model", str(tmp_path / "model.txt")],
                               ["--recognizer", "external:od -An -tx1 -N 16 {}"]), files):
            assert cli.main([*common, *mode]) == 0
            assert f"{tmp_path / 'out' / name} (" in capsys.readouterr().out
            assert (tmp_path / "out" / name).is_file()

    def test_model_key_of_the_config_is_read(self, tmp_path, capsys, tiny_model, text_sets):
        # a config file's model used to be dropped, and sweep ran in text mode
        inputs = report_inputs(tmp_path, tiny_model, text_sets)
        model = str(tmp_path / "model.txt")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": model}))
        assert cli.main(["--config", str(config), "sweep", *inputs]) == 0
        from_config = (tmp_path / "out" / "sweep_command.csv").read_bytes()
        assert cli.main(["sweep", *inputs, "--model", model]) == 0
        assert (tmp_path / "out" / "sweep_command.csv").read_bytes() == from_config
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(config), "sweep", *inputs,
                      "--recognizer", "external:od -An -tx1 -N 16 {}"])
        assert str(exc.value.code) == ("noisegate sweep: pass exactly one of model "
                                       "(command mode) or recognizer (text mode)")
        assert not (tmp_path / "out" / "sweep_similarity.csv").exists()
        # the flag beats the config file
        config.write_text(json.dumps({"model": str(tmp_path / "missing.txt")}))
        assert cli.main(["--config", str(config), "sweep", *inputs, "--model", model]) == 0
        assert (tmp_path / "out" / "sweep_command.csv").read_bytes() == from_config

    def test_manifest_key_of_the_config_is_read(self, tmp_path, capsys):
        synth_dataset(2, 1, seed=3, out_dir=tmp_path / "corpus")
        manifest = str(tmp_path / "corpus" / "manifest.csv")
        config = tmp_path / "config.json"
        train = ["train", "--epochs", "1", "--seed", "1", "--out"]
        config.write_text(json.dumps({"manifest": manifest}))
        assert cli.main(["--config", str(config), *train, str(tmp_path / "a.txt")]) == 0
        assert cli.main([*train, str(tmp_path / "b.txt"), "--manifest", manifest]) == 0
        # the flag beats the config file
        config.write_text(json.dumps({"manifest": str(tmp_path / "missing.csv")}))
        assert cli.main(["--config", str(config), *train, str(tmp_path / "c.txt"),
                         "--manifest", manifest]) == 0
        model = (tmp_path / "a.txt").read_bytes()
        assert (tmp_path / "b.txt").read_bytes() == model == (tmp_path / "c.txt").read_bytes()

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--out", "m.txt"], "--manifest"),
        (["train", "--manifest", "m.csv"], "--out"),
        (["defend", "--transform", "requant8", "--out", "o.wav"], "--in"),
        (["roc", "--adv-manifest", "a.csv"], "--clean-manifest"),
        (["attack", "pgd", "--manifest", "m.csv", "--out-dir", "adv"], "--model"),
    ])
    def test_missing_required_flag_exits_naming_it(self, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert str(exc.value.code) == f"noisegate {argv[0]}: {flag} is required"
        assert list(tmp_path.iterdir()) == []

    def test_every_flag_can_come_from_the_config(self, tmp_path, monkeypatch, capsys):
        """The CLI pipeline, run from flags and again with each command's flags
        moved into a config file, writes the same bytes and prints the same lines."""
        parser, subcommands = cli.build_parser(), build_parser_subcommands()
        printed = []
        for run in ("flags", "config"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            for step, argv in enumerate(CLI_PIPELINE):
                if run == "config":
                    args = parser.parse_args(argv)
                    keys = {a.dest for a in subcommands[argv[0]]._actions if a.option_strings}
                    config = tmp_path / f"config_{step}.json"
                    config.write_text(json.dumps({key: getattr(args, key) for key in keys
                                                  if getattr(args, key, None) is not None}))
                    argv = ["--config", str(config), argv[0],
                            *(argv[1:2] if argv[0] == "attack" else [])]
                assert cli.main(argv) == 0, argv
            printed.append(capsys.readouterr().out)
        files = digests(tmp_path / "flags")
        assert len(files) > 20
        assert differences(files, digests(tmp_path / "config")) == []
        assert printed[0] == printed[1]


def report_inputs(tmp_path, model, sets, command="sweep"):
    """The flags of `command`, sweep or compare, over the two sets, written out
    as manifests, with the model saved beside them."""
    for name, manifest in zip(("clean.csv", "adv.csv"), sets):
        rows = [ManifestRow(path=str(manifest.resolve(row)), label=row.label,
                            target=row.target, source=row.source) for row in manifest.rows]
        write_manifest(Manifest(rows=rows, base_dir=tmp_path), tmp_path / name,
                       adversarial=name == "adv.csv")
    save_model(model, tmp_path / "model.txt")
    return ["--clean-manifest", str(tmp_path / "clean.csv"),
            "--adv-manifest", str(tmp_path / "adv.csv"), "--out-dir", str(tmp_path / "out"),
            *(["--grid", "10"] if command == "sweep" else ["--transforms", "uniform:10"])]


def build_parser_subcommands():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    return subparsers.choices


class TestCliDetect:
    @pytest.fixture
    def manifest_arg(self, tmp_path):
        synth_dataset(2, 2, seed=5, out_dir=tmp_path / "corpus")
        return str(tmp_path / "corpus" / "manifest.csv")

    def test_comma_in_transcript_keeps_columns(self, tmp_path, manifest_arg):
        report = tmp_path / "detect.csv"
        assert cli.main(["detect", "--manifest", manifest_arg,
                         "--recognizer", "external:echo left,right {}",
                         "--out", str(report)]) == 0
        with open(report, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["path", "cr", "verdict", "transcript_before", "transcript_after"]
        assert len(rows) == 5
        assert all(len(row) == 5 for row in rows)
        assert all(row[3].startswith("left,right ") for row in rows[1:])

    def test_cr_is_written_at_six_decimals(self, tmp_path, manifest_arg):
        # report cells are floats at 2 decimals; the change rate keeps its own 6
        report = tmp_path / "detect.csv"
        assert cli.main(["detect", "--manifest", manifest_arg, "--recognizer",
                         "external:sh -c 'cksum < \"$0\"' {}", "--out", str(report)]) == 0
        with open(report, newline="", encoding="utf-8") as fh:
            crs = [row["cr"] for row in csv.DictReader(fh)]
        assert len(crs) == 4 and all(0.0 < float(cr) < 1.0 for cr in crs)
        assert all(cr == f"{float(cr):.6f}" for cr in crs)

    def test_config_cr_mode_is_read_and_flag_wins(self, tmp_path, manifest_arg):
        # the checksum of the WAV changes under noise but keeps its size field,
        # so the edit-mode change rate stays below the flip-mode 1.0
        recognizer = "external:sh -c 'cksum < \"$0\"' {}"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"cr_mode": "flip"}))

        def crs(*extra):
            report = tmp_path / "detect.csv"
            assert cli.main(["--config", str(config), "detect", "--manifest", manifest_arg,
                             "--recognizer", recognizer, "--out", str(report), *extra]) == 0
            with open(report, newline="", encoding="utf-8") as fh:
                return [float(row["cr"]) for row in csv.DictReader(fh)]

        assert crs() == [1.0] * 4
        edit = crs("--cr-mode", "edit")
        assert len(edit) == 4 and all(0.0 < cr < 1.0 for cr in edit)

    @pytest.mark.parametrize("recognizer, line", [
        ("cache:{t}/nope.jsonl", r"\[Errno 2\] No such file or directory: '.*/nope\.jsonl'"),
        # without the quotes KeyError puts around its message
        ("cache:{t}/other.jsonl", r"no cached transcript for content hash [0-9a-f]{64}"),
        ("external:sh -c 'echo broken >&2; exit 3' {}", r"recognizer .* exited 3: broken"),
    ], ids=["missing-cache-file", "cache-miss", "external-exit"])
    def test_recognizer_failure_exits_with_one_line(self, tmp_path, manifest_arg, recognizer,
                                                    line):
        (tmp_path / "other.jsonl").write_text('{"sha256": "00", "transcript": "yes"}\n')
        with pytest.raises(SystemExit) as exc:
            cli.main(["detect", "--manifest", manifest_arg,
                      "--recognizer", recognizer.replace("{t}", str(tmp_path)),
                      "--out", str(tmp_path / "detect.csv")])
        assert re.fullmatch("noisegate detect: " + line, str(exc.value.code))

    def test_a_rate_over_the_fft_exits_with_one_line(self, tmp_path, tiny_model):
        # the front end's own check named only the frame length and the FFT size
        write_wav(AudioClip(samples=np.ones(22050, dtype=np.int16), sample_rate_hz=22050),
                  tmp_path / "cd.wav")
        write_manifest(Manifest(rows=[ManifestRow(path="cd.wav", label="yes")],
                                base_dir=tmp_path), tmp_path / "cd.csv", adversarial=False)
        save_model(tiny_model, tmp_path / "model.txt")
        with pytest.raises(SystemExit) as exc:
            cli.main(["detect", "--manifest", str(tmp_path / "cd.csv"), "--recognizer",
                      f"builtin:{tmp_path / 'model.txt'}", "--out", str(tmp_path / "d.csv")])
        assert str(exc.value.code) == ("noisegate detect: sample rate 22050 Hz has a 25 ms frame "
                                       "over the 512-point FFT: need <= 20519 Hz")
        assert not (tmp_path / "d.csv").exists()

    def test_a_rate_under_100_hz_exits_with_one_line(self, tmp_path, tiny_model):
        # a valid clip whose 10 ms hop is 0 samples ended in a ZeroDivisionError
        write_wav(AudioClip(samples=np.ones(80, dtype=np.int16), sample_rate_hz=80),
                  tmp_path / "low.wav")
        write_manifest(Manifest(rows=[ManifestRow(path="low.wav", label="yes")],
                                base_dir=tmp_path), tmp_path / "low.csv", adversarial=False)
        save_model(tiny_model, tmp_path / "model.txt")
        with pytest.raises(SystemExit) as exc:
            cli.main(["detect", "--manifest", str(tmp_path / "low.csv"), "--recognizer",
                      f"builtin:{tmp_path / 'model.txt'}", "--out", str(tmp_path / "d.csv")])
        assert str(exc.value.code) == (
            "noisegate detect: sample rate 80 Hz has no 10 ms hop: need >= 100 Hz")

    def test_votes_are_heard_as_lists(self, tmp_path, monkeypatch, manifest_arg, tiny_model):
        # 4 clips, 3 votes: one plain list and one list per vote, each stats the
        # model once (hearing each clip and vote on its own took 16)
        model_path = str(tmp_path / "model.txt")
        save_model(tiny_model, model_path)
        stats, real_stat = [], os.stat

        def counting(path, *args, **kwargs):
            stats.append(os.fspath(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", counting)
        assert cli.main(["detect", "--manifest", manifest_arg, "--recognizer",
                         f"builtin:{model_path}", "--votes", "3",
                         "--out", str(tmp_path / "detect.csv")]) == 0
        assert stats.count(model_path) == 4

    def test_blocks_keep_every_byte(self, tmp_path, monkeypatch, manifest_arg):
        # the manifest is heard a block of clips at a time; each clip keeps the
        # seed of its place in the manifest, so the block size changes no byte
        # (the checksum transcript shows every noise draw)
        heard, transcribe = [], detection.transcribe_clips

        def counting(spec, clips):
            heard.append(len(clips))
            return transcribe(spec, clips)

        monkeypatch.setattr(detection, "transcribe_clips", counting)

        def report(name):
            assert cli.main(["detect", "--manifest", manifest_arg, "--recognizer",
                             "external:sh -c 'cksum < \"$0\"' {}", "--votes", "3",
                             "--out", str(tmp_path / name)]) == 0
            return (tmp_path / name).read_bytes()

        whole = report("whole.csv")
        monkeypatch.setattr(detection, "HEAR_BLOCK", 3)
        assert report("blocks.csv") == whole
        # the plain list and one per vote: of all 4 clips, then per block of 3 and 1
        assert heard == [4] * 4 + [3] * 4 + [1] * 4

    def test_a_bad_wav_fails_before_any_clip_is_heard(self, tmp_path, monkeypatch,
                                                       manifest_arg):
        # every WAV of the manifest is read before the first list is heard, so a
        # truncated last WAV exits with one line and the recognizer never runs
        import noisegate.recognition as recognition

        spawns, spawn = [], recognition._run_external
        monkeypatch.setattr(recognition, "_run_external",
                            lambda spec, clip: spawns.append(clip) or spawn(spec, clip))
        monkeypatch.setattr(detection, "HEAR_BLOCK", 2)
        manifest = load_manifest(manifest_arg)
        last = manifest.resolve(manifest.rows[-1])
        last.write_bytes(last.read_bytes()[:-100])
        with pytest.raises(SystemExit) as exc:
            cli.main(["detect", "--manifest", manifest_arg, "--recognizer",
                      "external:sh -c 'cksum < \"$0\"' {}", "--out", str(tmp_path / "d.csv")])
        assert re.fullmatch(r"noisegate detect: .*truncated b'data' chunk", str(exc.value.code))
        assert spawns == []
        assert not (tmp_path / "d.csv").exists()

    def test_noise_of_another_kind_exits(self, tmp_path, manifest_arg):
        with pytest.raises(SystemExit) as exc:
            cli.main(["detect", "--manifest", manifest_arg,
                      "--recognizer", "external:echo yes {}", "--noise", "requant8",
                      "--out", str(tmp_path / "detect.csv")])
        assert str(exc.value.code) == (
            "noisegate detect: noise must be kind:intensity with a kind in "
            "('uniform', 'gaussian'), got 'requant8'")
        assert not (tmp_path / "detect.csv").exists()

    def test_noise_without_intensity_exits(self, tmp_path, manifest_arg):
        with pytest.raises(SystemExit, match="intensity"):
            cli.main(["detect", "--manifest", manifest_arg,
                      "--recognizer", "external:echo yes {}", "--noise", "gaussian",
                      "--out", str(tmp_path / "detect.csv")])
