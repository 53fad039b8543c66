import json
import os
import shutil

import numpy as np
import pytest

from mecpe import nn, training
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

    def test_resume_refuses_last_and_state_of_different_epochs(self, tmp_path, splits):
        config, train, val, provider = splits
        fresh = lambda: make_emotion_model(config, provider.feature_dim,
                                           np.random.default_rng(0))
        train_emotion_stage(config, fresh(), train, val, provider,
                            out_dir=str(tmp_path), stop_epoch=1)
        shutil.copy(tmp_path / "emotion_last.npz", tmp_path / "epoch1_last.npz")
        train_emotion_stage(config, fresh(), train, val, provider,
                            out_dir=str(tmp_path), resume=True, stop_epoch=2)
        shutil.copy(tmp_path / "epoch1_last.npz", tmp_path / "emotion_last.npz")
        with pytest.raises(TrainingError, match="resume refused") as exc:
            train_emotion_stage(config, fresh(), train, val, provider,
                                out_dir=str(tmp_path), resume=True)
        assert "epoch 1, step" in str(exc.value) and "epoch 2, step" in str(exc.value)

    def test_resume_epoch_mismatch_errors(self, tmp_path, splits):
        config, train, val, provider = splits
        model = make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))
        train_emotion_stage(config, model, train, val, provider,
                            out_dir=str(tmp_path), stop_epoch=1)
        with pytest.raises(TrainingError, match="schedule mismatch"):
            train_emotion_stage(config, model, train, val, provider,
                                out_dir=str(tmp_path), resume=True, epochs=9)


def scripted_trainer(out_dir, metrics):
    """A dense cause model trainer whose validation metric follows ``metrics``."""
    model = CauseModel(CauseModelConfig(variant="dense", input_dim=4),
                       rng=np.random.default_rng(0))
    scripted = iter(metrics)
    return StageTrainer(
        "cause", model, desk_config(), epochs=len(metrics), steps_per_epoch=1,
        batches_fn=lambda rng: [0],
        loss_fn=lambda batch, rng: (1.0, {k: np.ones_like(v) for k, v in model.params.items()}),
        eval_fn=lambda: next(scripted), out_dir=str(out_dir),
    )


class TestSaves:
    def test_best_written_once_per_improvement(self, tmp_path, monkeypatch):
        written = []
        original = training.save_model

        def counting(path, *args, **kwargs):
            written.append(os.path.basename(path))
            return original(path, *args, **kwargs)

        monkeypatch.setattr(training, "save_model", counting)
        trainer = scripted_trainer(tmp_path, [0.5, 0.4, 0.6, 0.6, 0.7, 0.1])
        trainer.run()
        assert written.count("cause_last.npz") == 6
        assert written.count("cause_best.npz") == 3  # epochs 1, 3 and 5
        best, extra = load_stage_model(tmp_path / "cause_best.npz", "cause")
        assert extra == {"val_metric": 0.7}
        for key, value in trainer.best_params.items():
            np.testing.assert_array_equal(best.params[key], value)

    @pytest.mark.parametrize("failing", ["cause_last.npz", "cause_best.npz",
                                         "cause_state.npz"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, failing):
        trainer = scripted_trainer(tmp_path, [0.5, 0.6])
        trainer.run(stop_epoch=1)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        assert sorted(before) == ["cause_best.npz", "cause_last.npz", "cause_state.npz"]
        original = np.savez

        def savez(fh, *args, **kwargs):
            if os.path.basename(fh.name).startswith(failing):
                fh.write(b"partial")
                raise OSError("disk full")
            return original(fh, *args, **kwargs)

        monkeypatch.setattr(np, "savez", savez)
        with pytest.raises(OSError, match="disk full"):
            trainer.run()
        assert sorted(os.listdir(tmp_path)) == sorted(before)  # no temp file left
        assert (tmp_path / failing).read_bytes() == before[failing]


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

    def test_load_draws_no_init(self, tmp_path, splits, monkeypatch):
        config, train, val, provider = splits
        model = make_emotion_model(config, provider.feature_dim,
                                   np.random.default_rng(3), variant="bilstm_crf")
        save_model(tmp_path / "bundle.npz", "emotion", model)

        def no_init(*args, **kwargs):
            raise AssertionError("load_model drew a fresh init")

        monkeypatch.setattr(nn, "birnn_init", no_init)
        monkeypatch.setattr(nn, "dense_init", no_init)
        load_model(tmp_path / "bundle.npz")

    @pytest.mark.parametrize("edit,message", [
        (lambda a: a.pop("param:head_W"), "parameter 'head_W' missing"),
        (lambda a: a.update({"param:extra": np.zeros(2)}), "unexpected parameter 'extra'"),
        (lambda a: a.update({"param:head_b": np.zeros(3)}),
         r"parameter 'head_b' has shape \(3,\), the config needs \(7,\)"),
    ], ids=["missing", "unexpected", "shape"])
    def test_load_checks_params_against_config(self, tmp_path, splits, edit, message):
        config, train, val, provider = splits
        model = make_emotion_model(config, provider.feature_dim, np.random.default_rng(3))
        path = tmp_path / "bundle.npz"
        save_model(path, "emotion", model)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        edit(arrays)
        np.savez(path, **arrays)
        with pytest.raises(CheckpointError, match=message) as exc:
            load_model(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("meta", [["x"], {"stage": "cause", "config": [1]},
                                      {"stage": "cause"}])
    def test_load_rejects_meta_without_config(self, tmp_path, meta):
        path = tmp_path / "bundle.npz"
        np.savez(path, __meta__=json.dumps(meta))
        with pytest.raises(CheckpointError, match="meta block has no config object"):
            load_model(path)

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
