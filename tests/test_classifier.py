import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noisegate.classifier as classifier
from noisegate.audio import AudioClip
from noisegate.classifier import (
    Model,
    ModelFormatError,
    ModelVersionError,
    TrainConfig,
    forward_batch,
    load,
    new_model,
    pad_or_trim,
    predict,
    predict_clips,
    predict_samples_batch,
    save,
    train,
)
from noisegate.features import mfcc_batch, mfcc_from_array
from noisegate.synthesis import synth_clip

from helpers import loss_and_gradient

RATE = 16000


def tiny_model(seed=0, labels=("a", "b", "c", "d")):
    rng = np.random.default_rng(seed)
    dims = [10, 7, 5, len(labels)]
    weights, biases = [], []
    for fi, fo in zip(dims[:-1], dims[1:]):
        r = math.sqrt(6.0 / (fi + fo))
        weights.append(rng.uniform(-r, r, (fo, fi)))
        biases.append(rng.normal(0.0, 0.05, fo))
    return Model(layer_dims=dims, weights=weights, biases=biases, class_labels=list(labels))


def small_dataset(classes=3, per_class=4, seed=0):
    pairs = []
    for c in range(classes):
        for i in range(per_class):
            rng = np.random.default_rng(np.random.SeedSequence((seed, c, i)))
            pairs.append((synth_clip(c, rng), f"cls{c}"))
    return pairs


def traced_peak(fn):
    """Peak bytes that tracemalloc sees allocated while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestForward:
    def test_probabilities_sum_to_one(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        for _ in range(20):
            probs = forward_batch(model, rng.normal(0, 5, (1, 10)))[0]
            assert abs(probs.sum() - 1.0) < 1e-9
            assert (probs >= 0).all()

    def test_zero_weights_give_uniform(self):
        model = tiny_model()
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        probs = forward_batch(model, np.ones((1, 10)))[0]
        assert np.allclose(probs, 0.25, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forward_batch(tiny_model(), np.ones((1, 9)))

    def test_rows_must_be_at_least_two_dimensional_and_of_input_width(self):
        model = tiny_model()
        for x in (np.ones(10), np.ones((3, 9)), np.ones((3, 1, 11)), np.ones((1, 10, 1))):
            with pytest.raises(ValueError, match="model expects 10 per row"):
                forward_batch(model, x)
        assert forward_batch(model, np.ones((3, 1, 10))).shape == (3, 1, 4)

    def test_batch_matches_single(self):
        model = tiny_model(4)
        x = np.random.default_rng(5).normal(0, 3, (6, 10))
        batch = forward_batch(model, x)
        singles = np.stack([forward_batch(model, row[None])[0] for row in x])
        assert np.allclose(batch, singles, rtol=1e-12, atol=1e-15)


class TestLossAndGradient:
    def test_uniform_prediction_loss_is_log_k(self):
        model = tiny_model()
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        loss, _, _ = loss_and_gradient(model, np.ones((2, 5)), "b")
        assert loss == pytest.approx(math.log(4), abs=1e-9)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown label"):
            loss_and_gradient(tiny_model(), np.ones((2, 5)), "zz")

    def test_gradients_match_finite_differences(self):
        model = tiny_model(7)
        rng = np.random.default_rng(11)
        feats = rng.normal(0, 2.0, (2, 5))
        loss, grads, input_grad = loss_and_gradient(model, feats, "c")
        eps = 1e-4

        def loss_now():
            return loss_and_gradient(model, feats, "c")[0]

        for li, (gw, gb) in enumerate(grads):
            for arr, analytic in ((model.weights[li], gw), (model.biases[li], gb)):
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
                        assert abs(analytic[ix] - fd) / denom < 1e-4

        it = np.nditer(feats, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            keep = feats[ix]
            feats[ix] = keep + eps
            hi = loss_now()
            feats[ix] = keep - eps
            lo = loss_now()
            feats[ix] = keep
            fd = (hi - lo) / (2 * eps)
            denom = max(abs(input_grad[ix]), abs(fd))
            if denom > 1e-10:
                assert abs(input_grad[ix] - fd) / denom < 1e-4

    def test_saturation_drives_loss_to_zero(self):
        model = tiny_model(13)
        feats = np.random.default_rng(1).normal(0, 2.0, (2, 5))
        for _ in range(3000):
            loss, grads, _ = loss_and_gradient(model, feats, "a")
            for (gw, gb), w, b in zip(grads, model.weights, model.biases):
                w -= 0.5 * gw
                b -= 0.5 * gb
        assert loss_and_gradient(model, feats, "a")[0] <= 1e-6


class TestTrain:
    def test_memorizes_small_dataset(self):
        pairs = small_dataset()
        model = train(pairs, TrainConfig(epochs=150, learning_rate=5e-5,
                                         validation_fraction=0.0, seed=1))
        assert all(predict(model, clip)[0] == label for clip, label in pairs)

    def test_deterministic_given_seed(self):
        pairs = small_dataset(2, 3)
        cfg = TrainConfig(epochs=5, seed=9)
        a = train(pairs, cfg)
        b = train(pairs, cfg)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        for ba, bb in zip(a.biases, b.biases):
            assert np.array_equal(ba, bb)

    def test_loss_non_increasing_on_fixed_batch(self):
        pairs = small_dataset(2, 2)
        losses = []
        train(pairs, TrainConfig(learning_rate=1e-6, momentum=0.0, epochs=12,
                                 batch_size=8, validation_fraction=0.0, seed=2),
              progress=lambda s: losses.append(s.train_loss))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("setting", [dict(learning_rate=float("nan")),
                                         dict(learning_rate=float("inf")),
                                         dict(momentum=float("nan")),
                                         dict(momentum=float("-inf")),
                                         dict(momentum=1.0), dict(momentum=5.0),
                                         dict(momentum=-0.1)])
    def test_non_finite_rate_rejected(self, setting):
        # a nan rate used to train a model of nan weights that no command could load,
        # and a momentum outside [0, 1) one of chance accuracy
        (name,) = setting
        with pytest.raises(ValueError, match=f"^{name} must be"):
            TrainConfig(**setting)

    def test_needs_two_classes(self):
        pairs = [(synth_clip(0, np.random.default_rng(0)), "only")]
        with pytest.raises(ValueError):
            train(pairs, TrainConfig(epochs=1))

    def test_reports_epoch_stats(self):
        pairs = small_dataset(2, 3)
        seen = []
        train(pairs, TrainConfig(epochs=3, seed=0), progress=seen.append)
        assert [s.epoch for s in seen] == [0, 1, 2]
        assert all(0.0 <= s.train_accuracy <= 1.0 for s in seen)

    def test_features_in_uneven_blocks_equal_the_one_clip_rows(self, monkeypatch):
        pairs = small_dataset(2, 5)
        cfg = TrainConfig(epochs=3, seed=4)
        whole = train(pairs, cfg)
        blocks = []

        def recording(rows, rate):
            blocks.append(mfcc_batch(rows, rate))
            return blocks[-1]

        monkeypatch.setattr(classifier, "TRAIN_BLOCK_ROWS", 3)
        monkeypatch.setattr(classifier, "mfcc_batch", recording)
        blocked = train(pairs, cfg)
        assert [len(block) for block in blocks] == [3, 3, 3, 1]
        one_by_one = np.stack([
            mfcc_from_array(pad_or_trim(clip.samples.astype(np.float64), RATE), RATE)
            for clip, _ in pairs])
        assert np.array_equal(np.concatenate(blocks), one_by_one)
        for got, want in zip(blocked.weights + blocked.biases, whole.weights + whole.biases):
            assert np.array_equal(got, want)


class TestPredict:
    def test_deterministic(self):
        pairs = small_dataset(2, 2)
        model = train(pairs, TrainConfig(epochs=3, seed=0))
        clip = pairs[0][0]
        assert predict(model, clip) == predict(model, clip)

    def test_tie_breaks_to_lowest_index(self):
        model = new_model(["w1", "w2", "w3"], seed=0)
        for w in model.weights:
            w[:] = 0.0
        for b in model.biases:
            b[:] = 0.0
        clip = AudioClip(samples=np.ones(RATE, dtype=np.int16), sample_rate_hz=RATE)
        label, score = predict(model, clip)
        assert label == "w1"
        assert score == pytest.approx(1 / 3)

    def test_pads_and_truncates_to_one_second(self):
        model = new_model(["w1", "w2"], seed=1)
        short = AudioClip(samples=np.ones(RATE // 2, dtype=np.int16), sample_rate_hz=RATE)
        long = AudioClip(samples=np.ones(RATE * 2, dtype=np.int16), sample_rate_hz=RATE)
        assert predict(model, short)
        assert predict(model, long)


# a full-size model with nonzero biases, so every layer's products matter
LIST_MODEL = new_model([f"w{i}" for i in range(6)], seed=11)
for _bias in LIST_MODEL.biases:
    _bias[:] = np.random.default_rng(_bias.size).normal(0.0, 0.5, _bias.size)


@st.composite
def clip_lists(draw):
    """A random list of clips with lengths around one second; a list of two or
    more holds both 16 kHz and 8 kHz clips."""
    clips = []
    for k, seed in enumerate(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1,
                                           max_size=9))):
        rng = np.random.default_rng(seed)
        rate = (16000, 8000)[k] if k < 2 else int(rng.choice([16000, 8000]))
        samples = rng.integers(-4000, 4001, int(rng.integers(rate // 4, 5 * rate // 4)))
        clips.append(AudioClip(samples=samples.astype(np.int16), sample_rate_hz=rate))
    return clips


class TestPredictClips:
    @settings(max_examples=25, deadline=None)
    @given(clips=clip_lists(), order_seed=st.integers(0, 2**32 - 1))
    def test_each_row_equals_predict_alone(self, clips, order_seed):
        """A clip's label does not depend on the list it is heard in, in any group size
        and order, and is the label `predict` gives it alone (for a given BLAS)."""
        alone = [predict(LIST_MODEL, clip)[0] for clip in clips]
        order = np.random.default_rng(order_seed).permutation(len(clips))
        heard = predict_clips(LIST_MODEL, [clips[i] for i in order])
        assert heard == [alone[i] for i in order]
        # the group of one sample rate heard on its own
        rate = clips[0].sample_rate_hz
        same_rate = [i for i in range(len(clips)) if clips[i].sample_rate_hz == rate]
        assert predict_clips(LIST_MODEL, [clips[i] for i in same_rate]) == [
            alone[i] for i in same_rate]

    def test_empty_list(self):
        assert predict_clips(LIST_MODEL, []) == []

    def test_rows_of_one_score_as_batches_of_one(self):
        """Rows shaped (n, 1, n_samples) keep their leading shape, and each row's
        probabilities equal that row scored alone, bit for bit."""
        rng = np.random.default_rng(23)
        rows = rng.integers(-4000, 4001, (7, RATE - 321)).astype(np.int16)
        for dtype in (np.float64, np.float32):
            probs = predict_samples_batch(LIST_MODEL, rows[:, None], RATE, dtype=dtype)
            assert probs.shape == (7, 1, 6)
            for row, got in zip(rows, probs):
                alone = predict_samples_batch(LIST_MODEL, row[None], RATE, dtype=dtype)
                assert np.array_equal(got, alone)

    def test_feature_width_mismatch_rejected(self):
        clip = AudioClip(samples=np.ones(RATE, dtype=np.int16), sample_rate_hz=RATE)
        with pytest.raises(ValueError, match="model expects 10"):
            predict_clips(tiny_model(), [clip])


def tied_model():
    """Three classes whose first two output rows are identical (zero weights, one bias),
    so wherever they lead they tie exactly; class "c" leads on loud clips."""
    model = new_model(["a", "b", "c"], seed=3)
    model.weights[-1][:2] = 0.0
    model.biases[-1][:] = [27.0, 27.0, 0.0]
    return model


def noise_clip(rng, amplitude):
    return AudioClip(samples=rng.integers(-amplitude, amplitude + 1, RATE).astype(np.int16),
                     sample_rate_hz=RATE)


class TestHearMargin:
    @pytest.fixture
    def mfcc_calls(self, monkeypatch):
        """(dtype, rows) of each `mfcc_batch` call the classifier makes."""
        calls = []

        def spy(rows, sample_rate_hz, dtype=np.float64):
            calls.append((np.dtype(dtype), np.array(rows)))
            return mfcc_batch(rows, sample_rate_hz, dtype=dtype)

        monkeypatch.setattr(classifier, "mfcc_batch", spy)
        return calls

    def test_exact_ties_are_the_rows_scored_in_float64(self, mfcc_calls):
        model = tied_model()
        rng = np.random.default_rng(5)
        quiet = [noise_clip(rng, amplitude) for amplitude in (10, 50, 200)]
        loud = [noise_clip(rng, amplitude) for amplitude in (10000, 30000)]
        tied = predict_samples_batch(model, np.stack([c.samples for c in quiet])[:, None], RATE)
        assert np.array_equal(tied[:, 0, 0], tied[:, 0, 1])
        assert (tied[:, 0, 0] > tied[:, 0, 2]).all()
        mfcc_calls.clear()

        clips = [loud[0], quiet[0], quiet[1], loud[1], quiet[2]]
        assert predict_clips(model, clips) == ["c", "a", "a", "c", "a"]
        assert [(dtype, len(rows)) for dtype, rows in mfcc_calls] == [
            (np.float32, 5), (np.float64, 3)]
        assert np.array_equal(mfcc_calls[1][1], np.stack([c.samples for c in quiet]))
        assert [predict(model, clip)[0] for clip in clips] == ["c", "a", "a", "c", "a"]

    def test_no_close_call_makes_no_float64_call(self, mfcc_calls):
        rng = np.random.default_rng(5)
        loud = [noise_clip(rng, amplitude) for amplitude in (3000, 10000, 30000)]
        assert predict_clips(tied_model(), loud) == ["c", "c", "c"]
        assert [(dtype, len(rows)) for dtype, rows in mfcc_calls] == [(np.float32, 3)]


class TestSerialization:
    def test_roundtrip_exact_on_100_random_clips(self, tmp_path):
        pairs = small_dataset(2, 3)
        model = train(pairs, TrainConfig(epochs=4, seed=5))
        path = tmp_path / "model.txt"
        save(model, path)
        loaded = load(path)
        assert loaded.class_labels == model.class_labels
        rng = np.random.default_rng(0)
        for _ in range(100):
            clip = AudioClip(samples=rng.integers(-30000, 30000, RATE, dtype=np.int16),
                             sample_rate_hz=RATE)
            assert predict(loaded, clip) == predict(model, clip)

    def test_label_order_preserved(self, tmp_path):
        model = new_model(["zeta", "alpha", "mid"], seed=2)
        path = tmp_path / "m.txt"
        save(model, path)
        assert load(path).class_labels == ["zeta", "alpha", "mid"]

    def test_truncated_file_rejected(self, tmp_path):
        model = new_model(["a", "b"], seed=3)
        path = tmp_path / "m.txt"
        save(model, path)
        clipped = path.read_text()[: len(path.read_text()) // 2]
        path.write_text(clipped)
        with pytest.raises(ModelFormatError):
            load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("MODELv9\ndims 1 2\nlabels a b\nfeature 25 10 512 40 13 1e-10\n")
        with pytest.raises(ModelVersionError):
            load(path)

    def test_parameter_text_matches_the_per_value_formatter(self, tmp_path):
        model = tiny_model(seed=4)
        # signed zeros, a subnormal, whole numbers and extremes among random values
        model.weights[0][0, :8] = [0.0, -0.0, 5e-324, -2.5e-310, 3.0, -17.0,
                                   1.7976931348623157e308, 1e-300]
        model.biases[1][:2] = [-0.0, 1e22]
        path = tmp_path / "m.txt"
        save(model, path)
        # the oracle: one f-string per value
        blocks = [" ".join(f"{v:.17g}" for v in block.reshape(-1))
                  for w, b in zip(model.weights, model.biases) for block in (w, b)]
        assert path.read_text(encoding="ascii").splitlines()[4:] == blocks
        loaded = load(path)
        for got, want in zip(loaded.weights + loaded.biases, model.weights + model.biases):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_whitespace_label_rejected_on_save(self, tmp_path):
        model = new_model(["ok", "not ok"], seed=0)
        with pytest.raises(ValueError):
            save(model, tmp_path / "m.txt")

    def test_failed_save_leaves_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "model.txt"
        save(tiny_model(seed=1), path)
        before = path.read_bytes()

        def failing(src, dst):
            raise OSError("no room")

        monkeypatch.setattr(os, "replace", failing)
        with pytest.raises(OSError, match="no room"):
            save(tiny_model(seed=2), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.txt"]

    def test_save_through_a_symlink_writes_its_target(self, tmp_path):
        target, link = tmp_path / "model.txt", tmp_path / "current.txt"
        save(tiny_model(seed=1), target)
        link.symlink_to(target)
        save(tiny_model(seed=2), link)
        assert link.is_symlink()
        assert np.array_equal(load(target).weights[0], tiny_model(seed=2).weights[0])


@pytest.fixture(scope="module")
def stock_model_file(tmp_path_factory):
    """A model of the stock size at 16 kHz and its saved file."""
    model = new_model([f"w{i}" for i in range(10)], seed=1)
    path = tmp_path_factory.mktemp("stock") / "model.txt"
    save(model, path)
    return model, path


class TestSerializationMemory:
    def test_load_peak_under_three_file_sizes(self, stock_model_file):
        model, path = stock_model_file
        assert model.layer_dims == [1274, 128, 64, 10]
        assert traced_peak(lambda: load(path)) < 3 * path.stat().st_size

    def test_save_peak_under_a_quarter_file_size(self, stock_model_file):
        model, path = stock_model_file
        before = path.read_bytes()
        assert traced_peak(lambda: save(model, path)) < 0.25 * len(before)
        assert path.read_bytes() == before


class TestParameterParsing:
    @pytest.fixture
    def saved(self, tmp_path):
        """A saved model, its path, and its lines (line ends kept)."""
        model = tiny_model(seed=6)
        path = tmp_path / "m.txt"
        save(model, path)
        return model, path, path.read_text(encoding="ascii").splitlines(keepends=True)

    @staticmethod
    def count(model):
        return sum(block.size for block in model.weights + model.biases)

    @pytest.mark.parametrize("token", ["1_0", "0x10", "1,2"])
    def test_token_not_read_whole_rejected(self, saved, token):
        model, path, lines = saved
        lines[5] = token + " " + lines[5].split(" ", 1)[1]  # the first layer-0 bias
        path.write_text("".join(lines), encoding="ascii")
        with pytest.raises(ModelFormatError, match="malformed"):
            load(path)

    @pytest.mark.parametrize("extra", ["0.5", " ".join(["0.5"] * 300)])
    def test_values_too_many_rejected(self, saved, extra):
        model, path, lines = saved
        lines[-1] = lines[-1].rstrip("\n") + " " + extra + "\n"
        path.write_text("".join(lines), encoding="ascii")
        found = self.count(model) + len(extra.split())
        with pytest.raises(ModelFormatError, match=f"expected {self.count(model)} parameters, "
                                                   f"found {found}"):
            load(path)

    def test_one_value_too_few_rejected(self, saved):
        model, path, lines = saved
        lines[-1] = lines[-1].rsplit(" ", 1)[0] + "\n"
        path.write_text("".join(lines), encoding="ascii")
        with pytest.raises(ModelFormatError, match=f"expected {self.count(model)} parameters, "
                                                   f"found {self.count(model) - 1}"):
            load(path)

    def test_saved_feature_line_is_the_fixed_front_end(self, saved):
        assert saved[2][3] == "feature 25 10 512 40 13 1e-10\n"

    @pytest.mark.parametrize("feature", ["feature 25 10 512 40 12 1e-10",
                                         "feature 25 10 256 40 13 1e-10"])
    def test_other_feature_line_rejected(self, saved, feature):
        model, path, lines = saved
        lines[3] = feature + "\n"  # the same dims: only the front end differs
        path.write_text("".join(lines), encoding="ascii")
        with pytest.raises(ModelFormatError, match=f"'{feature}', expected "
                                                   f"'feature 25 10 512 40 13 1e-10'"):
            load(path)

    def test_blocks_split_across_lines_with_blank_lines_between_load(self, saved):
        model, path, lines = saved
        tokens = "".join(lines[4:]).split()  # 9 to a line: every weight block is split
        wrapped = ["\t".join(tokens[i:i + 9]) + "\n\n" for i in range(0, len(tokens), 9)]
        path.write_text("".join(lines[:4] + ["\n", " \n"] + wrapped), encoding="ascii")
        loaded = load(path)
        for got, want in zip(loaded.weights + loaded.biases, model.weights + model.biases):
            assert np.array_equal(got, want)

    def test_dims_larger_than_the_file_rejected(self, saved):
        model, path, lines = saved
        lines[1] = "dims 100000000 100000000 4\n"
        path.write_text("".join(lines), encoding="ascii")
        with pytest.raises(ModelFormatError, match="do not fit"):
            load(path)
