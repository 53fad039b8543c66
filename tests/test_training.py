import os

import numpy as np
import pytest

from mecpe.checkpoint import CheckpointError, load_model, load_stage_model, save_model
from mecpe.config import EmbeddingSettings, ExperimentConfig
from mecpe.corpus import split_train_val
from mecpe.models import CauseModel, CauseModelConfig, build_pair_examples
from mecpe.synthetic import synthetic_conversations
from mecpe.training import (
    StageTrainer,
    TrainingError,
    make_cause_model,
    make_emotion_model,
    make_pairing_model,
    make_provider,
    pairing_tensors,
    train_cause_stage,
    train_emotion_stage,
    train_pairing_stage,
)


def desk_config(**overrides):
    defaults = dict(
        embeddings=EmbeddingSettings(kind="synthetic", seed=5, dims=(8, 4, 4),
                                     planted=True, noise_scale=0.1),
        emotion_variant="dense",
        cause_variant="dense",
        hidden_size=8,
        emotion_layers=2,
        cause_layers=2,
        embedding_dropout=0.0,
        inter_layer_dropout=0.0,
        lr=0.01,
        epochs_emotion=3,
        epochs_cause=3,
        epochs_pairing=3,
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def splits():
    data = synthetic_conversations(16, seed=9, neutral_prob=0.4)
    config = desk_config()
    train, val = split_train_val(data, 0.25, config.seed)
    provider = make_provider(config, data)
    return config, train, val, provider


class TestStageTraining:
    def test_emotion_loss_decreases(self, splits):
        config, train, val, provider = splits
        model = make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))
        trainer = train_emotion_stage(config, model, train, val, provider)
        losses = [h["train_loss"] for h in trainer.history]
        assert losses[-1] < losses[0]
        assert trainer.best_metric > 0.0

    def test_full_pipeline_trains(self, splits, tmp_path):
        config, train, val, provider = splits
        rng = np.random.default_rng(1)
        em = train_emotion_stage(
            config, make_emotion_model(config, provider.feature_dim, rng),
            train, val, provider).best_model()
        cm = train_cause_stage(
            config, make_cause_model(config, provider.feature_dim, rng),
            train, val, provider).best_model()
        trainer = train_pairing_stage(
            config, make_pairing_model(config, em.rep_dim, cm.rep_dim, rng),
            train, val, provider, em, cm)
        assert trainer.best_metric > 0.5

    def test_non_finite_loss_aborts_with_context(self, splits):
        config, train, val, provider = splits
        model = CauseModel(
            CauseModelConfig(variant="dense", input_dim=4, embedding_dropout=0.0),
            rng=np.random.default_rng(0),
        )
        trainer = StageTrainer(
            "cause", model, config, epochs=1, steps_per_epoch=1,
            batches_fn=lambda rng: [0],
            loss_fn=lambda batch, rng: (float("nan"),
                                        {k: np.zeros_like(v) for k, v in model.params.items()}),
            eval_fn=lambda: 0.0,
        )
        with pytest.raises(TrainingError, match="non-finite loss at stage cause, epoch 0"):
            trainer.run()

    def test_pairing_tensors_teacher_forced(self, splits):
        config, train, val, provider = splits
        rng = np.random.default_rng(2)
        em = make_emotion_model(config, provider.feature_dim, rng, variant="bilstm")
        cm = make_cause_model(config, provider.feature_dim, rng, variant="bilstm")
        E, C, d, y = pairing_tensors(config, train, provider, em, cm, sample_seed=0)
        assert E.shape[0] == C.shape[0] == d.shape[0] == y.shape[0]
        assert set(np.unique(y)) <= {0, 1}
        n_pos = int(y.sum())
        assert n_pos > 0
        assert (y == 0).sum() <= config.negative_ratio * n_pos
        # row by row, as the per-example loop built them
        k = 0
        for conv in train.conversations:
            features = provider.conversation_features(conv)
            e_reps, c_reps = em.representations(features), cm.representations(features)
            for ex in build_pair_examples(conv, config.negative_ratio, 0):
                np.testing.assert_array_equal(E[k], e_reps[ex.emotion_utterance_id - 1])
                np.testing.assert_array_equal(C[k], c_reps[ex.cause_utterance_id - 1])
                assert d[k] == ex.cause_utterance_id - ex.emotion_utterance_id
                assert y[k] == ex.label
                k += 1
        assert k == y.size


class TestResume:
    def test_split_run_equals_straight_run(self, tmp_path, splits):
        config, train, val, provider = splits
        config_seq = desk_config(emotion_variant="bilstm", epochs_emotion=4,
                                 embedding_dropout=0.3, inter_layer_dropout=0.3)

        def fresh():
            return make_emotion_model(config_seq, provider.feature_dim,
                                      np.random.default_rng(1))

        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir(), dir_b.mkdir()
        straight = train_emotion_stage(config_seq, fresh(), train, val, provider,
                                       out_dir=str(dir_a))
        train_emotion_stage(config_seq, fresh(), train, val, provider,
                            out_dir=str(dir_b), stop_epoch=2)
        resumed = train_emotion_stage(config_seq, fresh(), train, val, provider,
                                      out_dir=str(dir_b), resume=True)
        assert [h["train_loss"] for h in straight.history] == \
               [h["train_loss"] for h in resumed.history]
        _, model_a, _ = load_model(dir_a / "emotion_last.npz")
        _, model_b, _ = load_model(dir_b / "emotion_last.npz")
        for key in model_a.params:
            np.testing.assert_array_equal(model_a.params[key], model_b.params[key])

    def test_resume_without_state_errors(self, tmp_path, splits):
        config, train, val, provider = splits
        model = make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))
        with pytest.raises(TrainingError, match="resume"):
            train_emotion_stage(config, model, train, val, provider,
                                out_dir=str(tmp_path), resume=True)

    def test_resume_epoch_mismatch_errors(self, tmp_path, splits):
        config, train, val, provider = splits
        model = make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))
        train_emotion_stage(config, model, train, val, provider,
                            out_dir=str(tmp_path), stop_epoch=1)
        with pytest.raises(TrainingError, match="schedule mismatch"):
            train_emotion_stage(config, model, train, val, provider,
                                out_dir=str(tmp_path), resume=True, epochs=9)


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path, splits):
        config, train, val, provider = splits
        model = make_emotion_model(config, provider.feature_dim,
                                   np.random.default_rng(3), variant="bilstm_crf")
        path = tmp_path / "bundle.npz"
        save_model(path, "emotion", model, extra={"note": 1})
        stage, again, extra = load_model(path)
        assert stage == "emotion"
        assert extra == {"note": 1}
        assert again.config == model.config
        assert set(again.params) == set(model.params)
        for key in model.params:
            np.testing.assert_array_equal(again.params[key], model.params[key])

    def test_stage_mismatch(self, tmp_path, splits):
        config, train, val, provider = splits
        model = make_cause_model(config, provider.feature_dim, np.random.default_rng(0))
        path = tmp_path / "cause.npz"
        save_model(path, "cause", model)
        with pytest.raises(CheckpointError, match="expected 'emotion'"):
            load_stage_model(path, "emotion")


class TestProviders:
    def test_files_kind_requires_paths(self):
        config = desk_config(embeddings=EmbeddingSettings(kind="files"))
        with pytest.raises(TrainingError, match="path"):
            make_provider(config, synthetic_conversations(2, seed=0))

    def test_unknown_kind(self):
        config = desk_config(embeddings=EmbeddingSettings(kind="magic"))
        with pytest.raises(TrainingError, match="magic"):
            make_provider(config, synthetic_conversations(2, seed=0))
