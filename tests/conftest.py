import numpy as np
import pytest

from noisegate.audio import read_wav
from noisegate.classifier import TrainConfig, train
from noisegate.synthesis import synth_dataset


@pytest.fixture(autouse=True)
def no_env_seed(monkeypatch):
    """Each test starts without the caller's NOISEGATE_SEED; one that needs it sets it."""
    monkeypatch.delenv("NOISEGATE_SEED", raising=False)


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """3 classes x 8 clips; enough to train a usable toy model fast."""
    out_dir = tmp_path_factory.mktemp("tiny_corpus")
    manifest = synth_dataset(3, 8, seed=101, out_dir=out_dir)
    return manifest


@pytest.fixture(scope="session")
def tiny_model(tiny_corpus):
    dataset = [(read_wav(tiny_corpus.resolve(row)), row.label) for row in tiny_corpus.rows]
    return train(dataset, TrainConfig(epochs=80, learning_rate=5e-5, seed=7,
                                      validation_fraction=0.0))


@pytest.fixture(scope="session")
def tiny_clips(tiny_corpus):
    return [(row, read_wav(tiny_corpus.resolve(row))) for row in tiny_corpus.rows]
