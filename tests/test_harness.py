import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from noisegate.audio import read_wav, write_wav
from noisegate.classifier import predict
from noisegate.experiments import (
    ExperimentConfig,
    attack_manifest,
    pick_targets,
    run_detection_eval,
    run_intensity_sweep,
    run_transform_comparison,
)
from noisegate.attacks import PgdConfig
from noisegate.manifests import Manifest, ManifestRow, load_manifest, write_manifest
from noisegate.recognition import RecognizerSpec
from noisegate.synthesis import class_label, synth_dataset
from noisegate import cli
from noisegate.classifier import save as save_model


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
        for rel in sorted(p.relative_to(a_dir) for p in a_dir.rglob("*") if p.is_file()):
            assert (a_dir / rel).read_bytes() == (b_dir / rel).read_bytes(), rel

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
        write_manifest(manifest, out)
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


class TestExperimentConfig:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(grid=())
        with pytest.raises(ValueError):
            ExperimentConfig(grid=(10, 10))
        with pytest.raises(ValueError):
            ExperimentConfig(grid=(30, 10))


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


class TestCli:
    def test_end_to_end_pipeline(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NOISEGATE_SEED", raising=False)
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--classes", "2", "--per-class", "3",
                         "--out-dir", str(corpus), "--seed", "11"]) == 0
        model_path = tmp_path / "model.txt"
        assert cli.main(["train", "--manifest", str(corpus / "manifest.csv"),
                         "--out", str(model_path), "--epochs", "40",
                         "--learning-rate", "5e-5", "--seed", "1"]) == 0
        attack_dir = tmp_path / "adv"
        assert cli.main(["attack", "ga", "--model", str(model_path),
                         "--manifest", str(corpus / "manifest.csv"),
                         "--out-dir", str(attack_dir), "--k-max", "5",
                         "--population-size", "6", "--seed", "2"]) == 0
        assert (attack_dir / "records.jsonl").is_file()

        wav_in = corpus / "wavs" / "yes_0000.wav"
        defended = tmp_path / "defended.wav"
        assert cli.main(["defend", "--transform", "gaussian:100",
                         "--in", str(wav_in), "--out", str(defended)]) == 0
        assert defended.is_file()

        report = tmp_path / "detect.csv"
        assert cli.main(["detect", "--manifest", str(corpus / "manifest.csv"),
                         "--recognizer", f"builtin:{model_path}",
                         "--noise", "gaussian:100", "--threshold", "0.5",
                         "--out", str(report), "--seed", "3"]) == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "path,cr,verdict,transcript_before,transcript_after"
        assert len(lines) == 7

        spec_out = tmp_path / "spec.pgm"
        assert cli.main(["spectrogram", "--in", str(wav_in), "--out", str(spec_out)]) == 0
        assert spec_out.read_bytes().startswith(b"P5\n")

        # gradient attack gives a reliable adversarial set for the report commands
        pgd_dir = tmp_path / "adv_pgd"
        assert cli.main(["attack", "pgd", "--model", str(model_path),
                         "--manifest", str(corpus / "manifest.csv"),
                         "--out-dir", str(pgd_dir), "--tau", "0", "--steps", "40",
                         "--step-size", "16", "--seed", "8"]) == 0
        adv_manifest = load_manifest(pgd_dir / "manifest.csv")
        assert adv_manifest.rows, "pgd attack produced no adversarial examples"

        out_dir = tmp_path / "reports"
        clean_arg = str(corpus / "manifest.csv")
        adv_arg = str(pgd_dir / "manifest.csv")
        assert cli.main(["sweep", "--model", str(model_path),
                         "--clean-manifest", clean_arg, "--adv-manifest", adv_arg,
                         "--grid", "10,50", "--out-dir", str(out_dir),
                         "--seed", "4"]) == 0
        assert (out_dir / "sweep_command.csv").is_file()
        assert cli.main(["compare", "--model", str(model_path),
                         "--clean-manifest", clean_arg, "--adv-manifest", adv_arg,
                         "--transforms", "uniform:100,requant8",
                         "--out-dir", str(out_dir), "--seed", "5"]) == 0
        assert (out_dir / "compare_command.csv").is_file()
        assert cli.main(["roc", "--recognizer", f"builtin:{model_path}",
                         "--clean-manifest", clean_arg, "--adv-manifest", adv_arg,
                         "--grid", "10,50", "--out-dir", str(out_dir),
                         "--seed", "6"]) == 0
        assert (out_dir / "detection_auc.csv").is_file()

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

    def test_config_file_values_used(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NOISEGATE_SEED", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 77, "out_dir": str(tmp_path / "c")}))
        assert cli.main(["--config", str(config), "synth",
                         "--classes", "2", "--per-class", "1"]) == 0
        direct = tmp_path / "d"
        cli.main(["synth", "--classes", "2", "--per-class", "1",
                  "--out-dir", str(direct), "--seed", "77"])
        assert ((tmp_path / "c" / "wavs" / "yes_0000.wav").read_bytes()
                == (direct / "wavs" / "yes_0000.wav").read_bytes())

    def test_config_sets_synth_counts(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NOISEGATE_SEED", raising=False)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"classes": 2, "per_class": 3}))
        out = tmp_path / "c"
        assert cli.main(["--config", str(config), "synth", "--out-dir", str(out)]) == 0
        assert len(load_manifest(out / "manifest.csv").rows) == 6
        assert cli.main(["--config", str(config), "synth", "--out-dir", str(out),
                         "--per-class", "1"]) == 0
        assert len(load_manifest(out / "manifest.csv").rows) == 2


class TestCliDetect:
    @pytest.fixture
    def manifest_arg(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NOISEGATE_SEED", raising=False)
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

    def test_noise_without_intensity_exits(self, tmp_path, manifest_arg):
        with pytest.raises(SystemExit, match="intensity"):
            cli.main(["detect", "--manifest", manifest_arg,
                      "--recognizer", "external:echo yes {}", "--noise", "gaussian",
                      "--out", str(tmp_path / "detect.csv")])
