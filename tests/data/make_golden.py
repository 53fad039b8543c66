"""Write the golden checkpoint fixtures that tests/test_golden.py reads.

The bundles and predictions in this directory were written by this script at
the commit that introduced them; the test asserts that later code loads the
same bundles and writes byte-identical predictions.  Rerun it only when the
bundle format or the predictions change on purpose:

    PYTHONPATH=src python tests/data/make_golden.py [OUT_DIR]

Fixtures: hidden size 3 over 6-wide fused random features (dims 2+2+2; the
planted rule needs a wider text part), emotion
``dense`` and ``bilstm_crf`` bundles, one ``bilstm`` cause bundle and one
pairing bundle (every stage rep is 6 wide, so it pairs with either emotion
bundle), the embedding files and input of 4 held-out conversations, and the
``mecpe predict`` output for each emotion bundle.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

import numpy as np

from mecpe import cli, corpus, embeddings, synthetic, training
from mecpe.config import EmbeddingSettings, ExperimentConfig

HERE = os.path.dirname(os.path.abspath(__file__))
EMOTION_VARIANTS = ("dense", "bilstm_crf")


def predict_argv(out_dir, emotion_variant, output):
    """`mecpe predict` arguments over the fixtures in ``out_dir``."""
    path = lambda name: os.path.join(out_dir, name)
    return [
        "predict", "--input", path("input.json"), "--output", output,
        "--set", "embeddings.kind=files",
        "--set", f"embeddings.text_path={path('text.emb')}",
        "--set", f"embeddings.audio_path={path('audio.emb')}",
        "--set", f"embeddings.video_path={path('video.emb')}",
        "--emotion-checkpoint", path(f"emotion_{emotion_variant}.npz"),
        "--cause-checkpoint", path("cause_bilstm.npz"),
        "--pairing-checkpoint", path("pairing.npz"),
    ]


def main(out_dir=HERE):
    data = synthetic.synthetic_conversations(16, seed=21, neutral_prob=0.3)
    labelled = corpus.Dataset(conversations=data.conversations[:12])
    held_out = corpus.Dataset(conversations=data.conversations[12:], split_tag="test")
    config = ExperimentConfig(
        embeddings=EmbeddingSettings(kind="synthetic", seed=4, dims=(2, 2, 2)),
        emotion_variant="bilstm_crf", cause_variant="bilstm",
        hidden_size=3, emotion_layers=2, cause_layers=2,
        embedding_dropout=0.0, inter_layer_dropout=0.0, lr=0.05,
        epochs_emotion=6, epochs_cause=6, epochs_pairing=6, seed=8,
    )
    train, val = corpus.split_train_val(labelled, 0.25, config.seed)
    provider = training.make_provider(config, data)
    rng = lambda k: np.random.default_rng((config.seed, k))
    bundles = {}
    with tempfile.TemporaryDirectory() as work:
        for variant in EMOTION_VARIANTS:
            model = training.make_emotion_model(config, provider.feature_dim, rng(0), variant)
            trainer = training.train_emotion_stage(config, model, train, val, provider, work)
            bundles[f"emotion_{variant}.npz"] = trainer.best_model()
            shutil.copy(os.path.join(work, "emotion_best.npz"),
                        os.path.join(out_dir, f"emotion_{variant}.npz"))
        model = training.make_cause_model(config, provider.feature_dim, rng(1))
        trainer = training.train_cause_stage(config, model, train, val, provider, work)
        shutil.copy(os.path.join(work, "cause_best.npz"),
                    os.path.join(out_dir, "cause_bilstm.npz"))
        emotion_model = bundles["emotion_bilstm_crf.npz"]
        cause_model = trainer.best_model()
        model = training.make_pairing_model(
            config, emotion_model.rep_dim, cause_model.rep_dim, rng(2))
        training.train_pairing_stage(config, model, train, val, provider,
                                     emotion_model, cause_model, work)
        shutil.copy(os.path.join(work, "pairing_best.npz"),
                    os.path.join(out_dir, "pairing.npz"))

    corpus.save_dataset(held_out, os.path.join(out_dir, "input.json"))
    held_out_provider = training.make_provider(config, held_out)
    for modality in embeddings.MODALITIES:
        embeddings.save_embedding_file(os.path.join(out_dir, f"{modality}.emb"),
                                       held_out_provider.tables[modality])
    for variant in EMOTION_VARIANTS:
        output = os.path.join(out_dir, f"predictions_{variant}.json")
        if cli.main(predict_argv(out_dir, variant, output)) != 0:
            raise SystemExit(f"predict with emotion_{variant}.npz failed")


if __name__ == "__main__":
    main(*sys.argv[1:])
