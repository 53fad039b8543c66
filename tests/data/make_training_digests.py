"""Write the SHA-256 digests of the training files that
tests/test_golden.py::test_training_files_byte_identical pins.

Three tiny runs train all three stages with checkpoints: emotion/cause
variants bilstm_crf/bilstm, dense/dense, and bilstm/bilstm with three
conversations per step; hidden size 12 over 20 synthetic conversations, two
epochs per stage, dropout on.  Every ``*_last.npz``, ``*_best.npz`` and
``*_state.npz`` they write is hashed (``np.savez`` stamps no wall-clock time,
so equal arrays and metadata give equal bytes).  The digests in this
directory were written by this script at the commit that introduced them;
rerun it only when training numerics or the file format change on purpose:

    PYTHONPATH=src python tests/data/make_training_digests.py [OUT_JSON]
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from mecpe import corpus, synthetic, training
from mecpe.config import EmbeddingSettings, ExperimentConfig

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "training_digests.json")

# run name -> config overrides
RUNS = {
    "bilstm_crf-bilstm": {"emotion_variant": "bilstm_crf", "cause_variant": "bilstm"},
    "dense-dense": {"emotion_variant": "dense", "cause_variant": "dense"},
    "bilstm-bilstm-cpb3": {"emotion_variant": "bilstm", "cause_variant": "bilstm",
                           "conversations_per_batch": 3},
}


def run_config(**overrides) -> ExperimentConfig:
    settings = dict(
        embeddings=EmbeddingSettings(kind="synthetic", seed=6, dims=(8, 4, 4),
                                     planted=True, noise_scale=0.1),
        hidden_size=12, emotion_layers=2, cause_layers=2,
        embedding_dropout=0.3, inter_layer_dropout=0.3, lr=0.01, batch_size=16,
        epochs_emotion=2, epochs_cause=2, epochs_pairing=2, seed=4,
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def train_all(config: ExperimentConfig, out_dir: str) -> None:
    """Train the three stages, each from its own init generator, writing the
    checkpoints into ``out_dir``."""
    data = synthetic.synthetic_conversations(20, seed=13, neutral_prob=0.4)
    train, val = corpus.split_train_val(data, 0.25, config.seed)
    provider = training.make_provider(config, data)
    rng = lambda k: np.random.default_rng((config.seed, k))
    emotion = training.train_emotion_stage(
        config, training.make_emotion_model(config, provider.feature_dim, rng(0)),
        train, val, provider, out_dir).best_model()
    cause = training.train_cause_stage(
        config, training.make_cause_model(config, provider.feature_dim, rng(1)),
        train, val, provider, out_dir).best_model()
    pairing = training.make_pairing_model(config, emotion.rep_dim, cause.rep_dim, rng(2))
    training.train_pairing_stage(config, pairing, train, val, provider, emotion, cause, out_dir)


def digests() -> dict[str, str]:
    """``run/file`` -> SHA-256 hex of every training file the runs write."""
    out = {}
    with tempfile.TemporaryDirectory() as work:
        for name, overrides in RUNS.items():
            run_dir = os.path.join(work, name)
            os.mkdir(run_dir)
            train_all(run_config(**overrides), run_dir)
            for file in sorted(os.listdir(run_dir)):
                with open(os.path.join(run_dir, file), "rb") as fh:
                    out[f"{name}/{file}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main(path=DIGESTS):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
