import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisegate.audio import AudioClip
from noisegate.classifier import (
    Model,
    ModelFormatError,
    ModelVersionError,
    TrainConfig,
    forward_batch,
    load,
    loss_and_gradient,
    new_model,
    predict,
    predict_clips,
    save,
    train,
)
from noisegate.features import FeatureConfig
from noisegate.synthesis import synth_clip

RATE = 16000


def tiny_model(seed=0, labels=("a", "b", "c", "d")):
    rng = np.random.default_rng(seed)
    dims = [10, 7, 5, len(labels)]
    weights, biases = [], []
    for fi, fo in zip(dims[:-1], dims[1:]):
        r = math.sqrt(6.0 / (fi + fo))
        weights.append(rng.uniform(-r, r, (fo, fi)))
        biases.append(rng.normal(0.0, 0.05, fo))
    return Model(layer_dims=dims, weights=weights, biases=biases,
                 class_labels=list(labels), feature_config=FeatureConfig())


def small_dataset(classes=3, per_class=4, seed=0):
    pairs = []
    for c in range(classes):
        for i in range(per_class):
            rng = np.random.default_rng(np.random.SeedSequence((seed, c, i)))
            pairs.append((synth_clip(c, rng), f"cls{c}"))
    return pairs


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
        """A clip's label and probability do not depend on the list it is heard in:
        bit for bit, in any group size and order (for a given BLAS)."""
        alone = [predict(LIST_MODEL, clip) for clip in clips]
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

    def test_feature_width_mismatch_rejected(self):
        clip = AudioClip(samples=np.ones(RATE, dtype=np.int16), sample_rate_hz=RATE)
        with pytest.raises(ValueError, match="model expects 10"):
            predict_clips(tiny_model(), [clip])


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

    def test_whitespace_label_rejected_on_save(self, tmp_path):
        model = new_model(["ok", "not ok"], seed=0)
        with pytest.raises(ValueError):
            save(model, tmp_path / "m.txt")
