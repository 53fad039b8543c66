import dataclasses
import hashlib
import io
import itertools
import json
import os
import queue
import shutil
import struct
import threading
import time
import tracemalloc
import types
import warnings
import weakref
import zipfile
import zlib

import numpy as np
import pytest
from numpy.lib import format as npy_format

from mecpe import checkpoint, models, nn, training
from mecpe.checkpoint import (CheckpointError, load_model, load_stage_model, read_npz, save_model,
                              savez_atomic)
from mecpe.config import EmbeddingSettings, ExperimentConfig
from mecpe.corpus import (
    Dataset,
    derive_cause_labels,
    emotion_class_weights,
    emotion_label_vector,
    split_train_val,
)
from mecpe.metrics import stage_metrics
from mecpe.models import CauseModel, CauseModelConfig, build_pair_examples, packed_features
from mecpe.synthetic import synthetic_conversations

from conftest import pairing_tensors_oracle
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
            "cause", model, config, epochs=1, n_items=1, batch_size=1,
            loss_fn=lambda batch, rng, grads: float("nan"),
            eval_fn=lambda: 0.0,
        )
        with pytest.raises(TrainingError, match="non-finite loss at stage cause, epoch 0"):
            trainer.run()

    def test_grouped_steps_average_conversations_in_order(self, monkeypatch):
        # 7 conversations in batches of 3: steps of 3, 3 and 1 conversations
        # from one permutation, each the mean of their gradients
        data = synthetic_conversations(10, seed=9, neutral_prob=0.4)
        train = Dataset(conversations=data.conversations[:7])
        val = Dataset(conversations=data.conversations[7:])
        config = desk_config(emotion_variant="bilstm", conversations_per_batch=3,
                             epochs_emotion=1)
        provider = make_provider(config, data)
        model = make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))
        items = training.conversation_tensors(train, provider, emotion_label_vector)
        seen, steps = [], []
        original = model.loss_and_grads

        def loss_and_grads(features, *args, **kwargs):
            seen.append(next(i for i, (f, _) in enumerate(items) if np.array_equal(f, features)))
            return original(features, *args, **kwargs)

        monkeypatch.setattr(model, "loss_and_grads", loss_and_grads)
        monkeypatch.setattr(nn.AdamW, "step", lambda self, lr: steps.append(
            (len(seen), {k: v.copy() for k, v in self.grads.items()})))
        train_emotion_stage(config, model, train, val, provider)
        order = np.random.default_rng(config.seed).permutation(7)
        assert seen == order.tolist()
        assert [calls for calls, _ in steps] == [3, 6, 7]
        weights = emotion_class_weights(train, config.class_weight_floor)
        for k, (_, grads) in enumerate(steps):
            each = [{name: g.copy() for name, g in original(*items[i], weights)[1].items()}
                    for i in order[3 * k: 3 * k + 3]]
            assert grads.keys() == each[0].keys()
            for name in grads:
                np.testing.assert_array_equal(grads[name],
                                              sum(g[name] for g in each) / len(each))

    def test_grouped_steps_equal_the_per_conversation_sum(self, tmp_path):
        # bilstm_crf, 7 conversations in steps of 3, 3 and 1 with the real
        # optimizer: every step's gradients are written into the optimizer's
        # buffer and a spare one; an optimizer fed the per-conversation
        # gradients, copied and summed in order, ends bit for bit equal (the
        # finished trainer freed its moments: they are read from state.npz)
        data = synthetic_conversations(10, seed=9, neutral_prob=0.4)
        train = Dataset(conversations=data.conversations[:7])
        val = Dataset(conversations=data.conversations[7:])
        config = desk_config(emotion_variant="bilstm_crf", conversations_per_batch=3,
                             epochs_emotion=2)
        provider = make_provider(config, data)
        make = lambda: make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))
        trainer = train_emotion_stage(config, make(), train, val, provider,
                                      out_dir=str(tmp_path))
        model = make()
        oracle = nn.AdamW(model.params, (config.beta1, config.beta2), config.adam_eps,
                          config.weight_decay)
        items = training.conversation_tensors(train, provider, emotion_label_vector)
        rng = np.random.default_rng(config.seed)
        step = 0
        for _ in range(2):
            order = rng.permutation(7)
            for start in range(0, 7, 3):
                each = [{k: g.copy() for k, g in model.loss_and_grads(
                    *items[i], None, rng=rng)[1].items()}
                    for i in order[start: start + 3]]
                grads = each[0]
                for later in each[1:]:
                    for k in grads:
                        grads[k] += later[k]
                if len(each) > 1:
                    for k in grads:
                        grads[k] /= len(each)
                nn.copy_into(oracle.grads, grads)
                oracle.step(nn.lr_at(trainer.schedule, step))
                step += 1
        assert step == trainer.step == 6
        with np.load(tmp_path / "emotion_state.npz") as state:
            for k in model.params:
                np.testing.assert_array_equal(trainer.model.params[k], model.params[k], err_msg=k)
                np.testing.assert_array_equal(state[f"m/{k}"], oracle.m[k], err_msg=k)

    @pytest.mark.parametrize("stop_epoch", [None, 1])
    def test_finished_stage_holds_no_moments_or_gradients(self, splits, stop_epoch):
        # of the arrays nn allocated during the stage (the blocks of 1 KiB and
        # more), the parameter buffer and the best copy are all that is still
        # alive once it returns, completed or paused: the optimizer with its
        # moments, gradients and step scratch, and the grouped step's spare,
        # are freed
        config, train, val, provider = splits
        config = desk_config(emotion_variant="bilstm", conversations_per_batch=2)
        model = make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))
        tracemalloc.start()
        try:
            trainer = train_emotion_stage(config, model, train, val, provider,
                                          stop_epoch=stop_epoch)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = [trace.size for trace in snapshot.filter_traces(
            [tracemalloc.Filter(True, nn.__file__)]).traces if trace.size >= 1024]
        assert trainer.epoch == (stop_epoch or trainer.epochs)
        assert held == [model.params["head_W"].base.nbytes] * 2
        assert (trainer.optimizer, trainer.loss_fn, trainer.eval_fn) == (None, None, None)

    @pytest.mark.parametrize("stop_epoch", [None, 1])
    def test_finished_pairing_stage_frees_its_tensors(self, splits, stop_epoch, monkeypatch):
        # E and C, the frozen stages' outputs, live only as long as the
        # trainer's loss and validation functions, which a trainer drops when
        # its run returns, completed or paused
        config, train, val, provider = splits
        rng = np.random.default_rng(2)
        seq = dataclasses.replace(config, emotion_variant="bilstm", cause_variant="bilstm")
        em = make_emotion_model(seq, provider.feature_dim, rng)
        cm = make_cause_model(seq, provider.feature_dim, rng)
        pm = make_pairing_model(config, em.rep_dim, cm.rep_dim, rng)
        tensors = []
        original = training.pairing_tensors

        def spy(*args):
            E, C, rows = original(*args)
            tensors.extend(weakref.ref(t) for t in (E, C))
            return E, C, rows

        monkeypatch.setattr(training, "pairing_tensors", spy)
        trainer = train_pairing_stage(config, pm, train, val, provider, em, cm,
                                      stop_epoch=stop_epoch)
        assert len(tensors) == 2
        assert trainer.epoch == (stop_epoch or trainer.epochs)
        assert [ref() for ref in tensors] == [None, None]
        assert (trainer.optimizer, trainer.loss_fn, trainer.eval_fn) == (None, None, None)

    @pytest.mark.parametrize("stage, overrides", [
        ("emotion", {"batch_size": 0}), ("pairing", {"batch_size": 0}),
        ("emotion", {"emotion_variant": "bilstm", "conversations_per_batch": 0})],
        ids=["dense_emotion", "pairing", "bilstm_emotion"])
    def test_batch_size_below_one_is_refused(self, splits, stage, overrides):
        _, train, val, provider = splits
        config = desk_config(**overrides)
        rng = np.random.default_rng(0)
        em = make_emotion_model(config, provider.feature_dim, rng)
        with pytest.raises(TrainingError, match=f"{stage} batch size must be >= 1, got 0"):
            if stage == "emotion":
                train_emotion_stage(config, em, train, val, provider)
            else:
                cm = make_cause_model(config, provider.feature_dim, rng)
                pm = make_pairing_model(config, em.rep_dim, cm.rep_dim, rng)
                train_pairing_stage(config, pm, train, val, provider, em, cm)

    def test_pairing_tensors_teacher_forced(self, splits):
        config, train, val, provider = splits
        rng = np.random.default_rng(2)
        seq = dataclasses.replace(config, emotion_variant="bilstm", cause_variant="bilstm")
        em = make_emotion_model(seq, provider.feature_dim, rng)
        cm = make_cause_model(seq, provider.feature_dim, rng)
        E, C, rows = pairing_tensors(config, [(train, 0), (val, 1)], provider, em, cm)
        assert len(rows) == 2
        for split_rows, (ds, seed) in zip(rows, ((train, 0), (val, 1))):
            assert split_rows.dtype == np.int64 and split_rows.shape[1] == 3
            e, c, y = split_rows.T
            assert set(np.unique(y)) <= {0, 1}
            n_pos = int(y.sum())
            assert n_pos > 0
            assert (y == 0).sum() <= config.negative_ratio * n_pos
        # E and C are the rows of one packed stage forward over the
        # conversations of both splits that yield examples, once per utterance;
        # the pair rows point into them as the per-example loop built them
        convs = [conv for ds, seed in ((train, 0), (val, 1)) for conv in ds.conversations
                 if build_pair_examples(conv, config.negative_ratio, seed).size]
        features, layout = packed_features(convs, provider)
        e_reps = em.forward(features, layout=layout)[1]["head_in"]
        c_reps = cm.forward(features, layout=layout)[1]["head_in"]
        np.testing.assert_array_equal(E, e_reps)
        np.testing.assert_array_equal(C, c_reps)
        slices = iter(layout.slices())
        for split_rows, (ds, seed) in zip(rows, ((train, 0), (val, 1))):
            k = 0
            for conv in ds.conversations:
                examples = build_pair_examples(conv, config.negative_ratio, seed)
                if not examples.size:
                    continue
                conv_rows = next(slices)
                for e, c, label in examples:
                    np.testing.assert_array_equal(E[split_rows[k, 0]],
                                                  e_reps[conv_rows][e - 1])
                    np.testing.assert_array_equal(C[split_rows[k, 1]],
                                                  c_reps[conv_rows][c - 1])
                    assert split_rows[k, 1] - split_rows[k, 0] == c - e
                    assert split_rows[k, 2] == label
                    k += 1
            assert k == len(split_rows)
            # against the tensors of each split's own pass, bit for bit: a
            # conversation's rows do not depend on which others share its pass
            ref_E, ref_C, ref_d, ref_y = pairing_tensors_oracle(config, ds, provider,
                                                                em, cm, seed)
            e, c, y = split_rows.T
            np.testing.assert_array_equal(c - e, ref_d)
            np.testing.assert_array_equal(y, ref_y)
            np.testing.assert_array_equal(E[e], ref_E)
            np.testing.assert_array_equal(C[c], ref_C)

    @pytest.mark.parametrize("empty", ["train", "val"])
    def test_split_without_examples_refused_before_any_forward(self, splits, empty,
                                                               monkeypatch):
        config, train, val, provider = splits
        rng = np.random.default_rng(2)
        seq = dataclasses.replace(config, emotion_variant="bilstm", cause_variant="bilstm")
        em = make_emotion_model(seq, provider.feature_dim, rng)
        cm = make_cause_model(seq, provider.feature_dim, rng)
        pm = make_pairing_model(config, em.rep_dim, cm.rep_dim, rng)
        no_pairs = Dataset(conversations=tuple(
            dataclasses.replace(conv, gold_pairs=()) for conv in val.conversations))
        train, val = (no_pairs, val) if empty == "train" else (train, no_pairs)
        monkeypatch.setattr(nn, "birnn_forward", None)  # must not be reached
        with pytest.raises(TrainingError, match=r"no pair examples could be built"):
            train_pairing_stage(config, pm, train, val, provider, em, cm)

    def test_pairing_stage_matches_per_split_oracle(self, splits, tmp_path):
        # the bundles and state of the one-pass stage equal, array for array,
        # those of the loop over per-split tensors the stage used to run
        _, train, val, provider = splits
        config = desk_config(embedding_dropout=0.3, batch_size=8)
        rng = np.random.default_rng(2)
        seq = dataclasses.replace(config, emotion_variant="bilstm_crf", cause_variant="bilstm")
        em = make_emotion_model(seq, provider.feature_dim, rng)
        cm = make_cause_model(seq, provider.feature_dim, rng)
        fresh = lambda: make_pairing_model(config, em.rep_dim, cm.rep_dim,
                                           np.random.default_rng(5))
        (tmp_path / "new").mkdir(), (tmp_path / "old").mkdir()
        train_pairing_stage(config, fresh(), train, val, provider, em, cm,
                            out_dir=str(tmp_path / "new"))
        model = fresh()
        E, C, d, y = pairing_tensors_oracle(config, train, provider, em, cm, config.seed)
        val_E, val_C, val_d, val_y = pairing_tensors_oracle(config, val, provider, em, cm,
                                                            config.seed + 1)

        def evaluate():
            probs = model.probabilities(val_E, val_C, val_d)
            return stage_metrics((probs > model.config.threshold).astype(np.int64),
                                 val_y, 2).weighted_f1

        StageTrainer("pairing", model, config, config.epochs_pairing, y.size,
                     config.batch_size,
                     lambda idx, rng, grads: model.loss_and_grads(
                         E[idx], C[idx], d[idx], y[idx], rng=rng, grads=grads)[0],
                     evaluate, out_dir=str(tmp_path / "old")).run()
        for name in ("pairing_last.npz", "pairing_best.npz", "pairing_state.npz"):
            with np.load(tmp_path / "new" / name) as new, np.load(tmp_path / "old" / name) as old:
                assert new.files == old.files
                for key in new.files:
                    np.testing.assert_array_equal(new[key], old[key])
                    assert new[key].dtype == old[key].dtype

    def test_packed_stage_forward_matches_per_conversation(self, splits):
        # the packed pass pairing_tensors and validation read: each
        # conversation's rows bit for bit those of its own forward-only pass,
        # and within rounding those of the training path
        config, train, val, provider = splits
        rng = np.random.default_rng(2)
        seq = dataclasses.replace(config, emotion_variant="bilstm_crf", cause_variant="bilstm")
        em = make_emotion_model(seq, provider.feature_dim, rng)
        cm = make_cause_model(seq, provider.feature_dim, rng)
        dense = make_cause_model(config, provider.feature_dim, rng)
        features, layout = packed_features(train.conversations, provider)
        assert len(set(layout.lengths.tolist())) > 1
        for model in (em, cm, dense):
            scores, cache = model.forward(features, layout=layout)
            assert cache["rnn_caches"] is None
            for conv, rows in zip(train.conversations, layout.slices()):
                own = provider.conversation_features(conv)
                alone, alone_cache = model.forward(own, layout=nn.pack_sequences([len(own)]))
                np.testing.assert_array_equal(scores[rows], alone)
                np.testing.assert_array_equal(cache["head_in"][rows], alone_cache["head_in"])
                ref_scores, ref_cache = model.forward(own)
                np.testing.assert_allclose(scores[rows], ref_scores, rtol=0, atol=1e-12)
                np.testing.assert_allclose(cache["head_in"][rows], ref_cache["head_in"],
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("variant", ["dense", "bilstm"])
    def test_packed_pass_ignores_training(self, splits, variant):
        # a forward-only pass applies no dropout and draws nothing, whatever
        # ``rng`` it is given
        config, train, val, provider = splits
        seq = dataclasses.replace(config, emotion_variant=variant, embedding_dropout=0.5,
                                  inter_layer_dropout=0.5)
        em = make_emotion_model(seq, provider.feature_dim, np.random.default_rng(0))
        features, layout = packed_features(train.conversations, provider)
        scores, cache = em.forward(features, layout=layout)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        dropped, dropped_cache = em.forward(features, rng, layout)
        np.testing.assert_array_equal(dropped, scores)
        np.testing.assert_array_equal(dropped_cache["head_in"], cache["head_in"])
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("cap", [1, 7, 30])
    def test_row_capped_groups_equal_one_pass(self, splits, cap, monkeypatch):
        # with a small row cap, predict, the pairing stage's inputs and
        # validation each run in several groups, a conversation longer than
        # the cap alone; predictions, gathered pair inputs and F1 keep every
        # bit, and no forward-only pass holds more than a group's rows
        config, train, val, provider = splits
        rng = np.random.default_rng(6)
        seq = dataclasses.replace(config, emotion_variant="bilstm_crf", cause_variant="bilstm")
        em = make_emotion_model(seq, provider.feature_dim, rng)
        cm = make_cause_model(seq, provider.feature_dim, rng)
        pm = make_pairing_model(config, em.rep_dim, cm.rep_dim, rng)
        pm.params["head_b"][0] += 1.0  # some pairs emitted
        data = Dataset(conversations=train.conversations + val.conversations, split_tag="test")
        assert data.n_utterances() <= models.ROW_CAP
        passes = []
        original = models.StageModel.forward

        def spy(model, features, rng=None, layout=None):
            passes.append(layout)
            return original(model, features, rng, layout)

        monkeypatch.setattr(models.StageModel, "forward", spy)

        def run():
            passes.clear()
            predicted = models.predict_dataset(em, cm, pm, data, provider)
            predict_passes = list(passes)
            E, C, rows = pairing_tensors(config, [(train, 0), (val, 1)], provider, em, cm)
            groups = list(models.packed_groups(val.conversations, provider))
            order = [k for indices, _, _ in groups for k in indices]
            assert sorted(order) == list(range(len(val.conversations)))
            f1 = [evaluate(model, groups,
                           np.concatenate([label_fn(val.conversations[k]) for k in order]))
                  for model, label_fn, evaluate in (
                      (em, emotion_label_vector, training.evaluate_emotion),
                      (cm, derive_cause_labels, training.evaluate_cause))]
            return predicted, predict_passes, [training._pair_batch(E, C, r) for r in rows], f1

        whole = run()
        assert len(whole[1]) == 2 and len(passes) == 6
        monkeypatch.setattr(models, "ROW_CAP", cap)
        capped = run()
        assert len(capped[1]) > 2
        for layout in passes:
            assert layout.n_rows <= cap or layout.lengths.size == 1
        assert capped[0].conversations == whole[0].conversations
        assert any(conv.gold_pairs for conv in capped[0].conversations)
        for capped_split, whole_split in zip(capped[2], whole[2]):
            for got, expected in zip(capped_split, whole_split):
                np.testing.assert_array_equal(got, expected)
        assert capped[3] == whole[3]

    @pytest.mark.parametrize("stage", ["emotion", "cause"])
    def test_validation_is_one_packed_pass(self, stage, splits, monkeypatch):
        config, train, val, provider = splits
        rng = np.random.default_rng(4)
        if stage == "emotion":
            model = make_emotion_model(dataclasses.replace(config, emotion_variant="bilstm_crf"),
                                       provider.feature_dim, rng)
            label_fn, evaluate, n_classes = (emotion_label_vector, training.evaluate_emotion,
                                             model.config.n_classes)
        else:
            model = make_cause_model(dataclasses.replace(config, cause_variant="bilstm"),
                                     provider.feature_dim, rng)
            label_fn, evaluate, n_classes = derive_cause_labels, training.evaluate_cause, 2
        predicted, gold = [], []
        for conv in val.conversations:
            predicted.extend(model.decode(model.forward(provider.conversation_features(conv))[0]))
            gold.extend(label_fn(conv))
        expected = stage_metrics(predicted, gold, n_classes).weighted_f1
        calls = []
        original = nn.birnn_forward
        monkeypatch.setattr(nn, "birnn_forward",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        groups = list(models.packed_groups(val.conversations, provider))
        assert evaluate(model, groups, np.array(gold)) == expected
        assert len(calls) == 1


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
        for name in ("emotion_last.npz", "emotion_best.npz", "emotion_state.npz"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
        # resume wrote into the parameter buffer: nothing was rebound
        assert len({id(view.base) for view in resumed.model.params.values()}) == 1

    def test_resume_takes_one_epochs_files_and_refuses_any_mix(self, tmp_path):
        # save writes its three files at once, so a crash can leave any mix of
        # epoch 1's and epoch 2's (which improves): all of one epoch resume to
        # the straight run's bytes, any mix is refused before anything moves
        metrics = [0.5, 0.6, 0.1]
        names = ("cause_last.npz", "cause_best.npz", "cause_state.npz")

        def files(directory):
            return {name: (directory / name).read_bytes() for name in names}

        run, straight = tmp_path / "run", tmp_path / "straight"
        run.mkdir(), straight.mkdir()
        scripted_trainer(straight, metrics).run()
        scripted_trainer(run, metrics).run(stop_epoch=1)
        epochs = {1: files(run)}
        trainer = scripted_trainer(run, metrics)
        trainer.resume()
        trainer.run(stop_epoch=2)
        epochs[2] = files(run)
        for mix in itertools.product((1, 2), repeat=3):
            directory = tmp_path / "mix{}{}{}".format(*mix)
            directory.mkdir()
            saved = {name: epochs[epoch][name] for name, epoch in zip(names, mix)}
            for name, data in saved.items():
                (directory / name).write_bytes(data)
            trainer = scripted_trainer(directory, metrics)
            if len(set(mix)) == 1:
                trainer.resume()
                trainer.run()
                assert files(directory) == files(straight), mix
                continue
            initial = {k: v.copy() for k, v in trainer.model.params.items()}
            with pytest.raises(TrainingError, match="^resume refused") as exc:
                trainer.resume()
            named = {epoch for name, epoch in zip(names, mix)
                     if str(directory / name) in str(exc.value)}
            assert named == {1, 2}, (mix, str(exc.value))  # a file of each epoch
            assert (trainer.epoch, trainer.step, trainer.optimizer.t) == (0, 0, 0)
            assert_same_params(trainer.model.params, initial)
            assert files(directory) == saved

    def test_refused_resume_leaves_parameters_and_moments_unchanged(self, tmp_path, splits):
        config, train, val, provider = splits
        fresh = lambda: make_emotion_model(config, provider.feature_dim,
                                           np.random.default_rng(0))
        train_emotion_stage(config, fresh(), train, val, provider,
                            out_dir=str(tmp_path), stop_epoch=1)
        state = tmp_path / "emotion_state.npz"
        with np.load(state) as data:
            arrays = {k: data[k] for k in data.files if k != "v/head_b"}
        np.savez(state, **arrays)  # the last moment read is missing
        trainer = StageTrainer("emotion", fresh(), config, config.epochs_emotion,
                               train.n_utterances(), config.batch_size, None, None,
                               out_dir=str(tmp_path))
        opt = trainer.optimizer
        before = [{k: v.copy() for k, v in d.items()} for d in (opt.params, opt.m, opt.v)]
        with pytest.raises(CheckpointError) as exc:
            trainer.resume()
        assert str(exc.value) == f"{state}: lacks 'v/head_b'"
        for now, then in zip((opt.params, opt.m, opt.v), before):
            for k in then:
                np.testing.assert_array_equal(now[k], then[k], err_msg=k)
        assert (trainer.step, trainer.epoch, opt.t, trainer.history) == (0, 0, 0, [])
        assert opt._g is None  # nor were gradients allocated

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
            train_emotion_stage(dataclasses.replace(config, epochs_emotion=9), model, train,
                                val, provider, out_dir=str(tmp_path), resume=True)

    @pytest.mark.parametrize("changed, field", [
        ({"lr": 0.02}, "lr"), ({"seed": 4}, "seed"), ({"weight_decay": 0.0}, "weight_decay"),
        ({"hidden_size": 6}, "model.hidden_size")])
    def test_resume_refuses_last_and_state_of_another_config(self, tmp_path, splits,
                                                              changed, field):
        config, train, val, provider = splits

        def fresh(config):
            return make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))

        train_emotion_stage(config, fresh(config), train, val, provider,
                            out_dir=str(tmp_path), stop_epoch=1)
        other = desk_config(**changed)
        with pytest.raises(TrainingError, match="another config") as exc:
            train_emotion_stage(other, fresh(other), train, val, provider,
                                out_dir=str(tmp_path), resume=True)
        assert f"['{field}']" in str(exc.value)
        assert "emotion_last.npz" in str(exc.value) and "emotion_state.npz" in str(exc.value)

    @pytest.mark.parametrize("best", ["foreign", "missing"])
    def test_resume_refuses_best_of_another_run(self, tmp_path, best):
        (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
        scripted_trainer(tmp_path / "a", [0.5, 0.6, 0.1]).run(stop_epoch=2)
        scripted_trainer(tmp_path / "b", [0.7, 0.4, 0.1]).run(stop_epoch=2)
        if best == "foreign":
            shutil.copy(tmp_path / "a" / "cause_best.npz", tmp_path / "b" / "cause_best.npz")
        else:
            os.remove(tmp_path / "b" / "cause_best.npz")
        with pytest.raises(TrainingError, match="resume refused") as exc:
            scripted_trainer(tmp_path / "b", [0.7, 0.4, 0.1]).resume()
        assert "cause_best.npz" in str(exc.value) and "cause_state.npz" in str(exc.value)
        assert "'epoch': 1" in str(exc.value)
        scripted_trainer(tmp_path / "a", [0.5, 0.6, 0.1]).resume()  # its own files pass

    def test_resume_refuses_last_of_another_model_config(self, tmp_path, splits):
        # the runs differ only in a field that no shape or stamp shows
        _, train, val, provider = splits
        configs = {name: desk_config(emotion_variant="bilstm", embedding_dropout=rate)
                   for name, rate in (("a", 0.0), ("b", 0.3))}

        def train_a_run(name, **kwargs):
            config = configs[name]
            model = make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))
            return train_emotion_stage(config, model, train, val, provider,
                                       out_dir=str(tmp_path / name), **kwargs)

        for name in configs:
            (tmp_path / name).mkdir()
            train_a_run(name, stop_epoch=1)
        shutil.copy(tmp_path / "b" / "emotion_last.npz", tmp_path / "a" / "emotion_last.npz")
        with pytest.raises(TrainingError) as exc:
            train_a_run("a", resume=True)
        assert str(exc.value) == (f"resume refused: {tmp_path / 'a' / 'emotion_last.npz'} holds"
                                  f" a model of another config (differs in ['embedding_dropout'])")

    @pytest.mark.parametrize("read", ["resume", "best_params"])
    def test_best_of_another_model_config_with_an_equal_stamp_is_refused(self, tmp_path, read):
        def trainer(name, threshold):
            model = CauseModel(CauseModelConfig(variant="dense", input_dim=4, threshold=threshold),
                               rng=np.random.default_rng(0))
            return scripted_trainer(tmp_path / name, [0.5, 0.6, 0.1], model)

        (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
        trainer("a", 0.5).run(stop_epoch=2)
        paused = trainer("b", 0.6)
        paused.run(stop_epoch=2)
        shutil.copy(tmp_path / "a" / "cause_best.npz", tmp_path / "b" / "cause_best.npz")
        with pytest.raises(TrainingError, match=r"holds a model of another config"
                                                r" \(differs in \['threshold'\]\)$") as exc:
            if read == "resume":
                trainer("b", 0.6).resume()
            else:
                paused.best_params
        assert "cause_best.npz" in str(exc.value)


def scripted_trainer(out_dir, metrics, model=None):
    """A trainer whose validation metric in epoch k is ``metrics[k]``, also
    after a resume, and whose every gradient is 1, of ``model`` or else of a
    dense cause model."""
    if model is None:
        model = CauseModel(CauseModelConfig(variant="dense", input_dim=4),
                           rng=np.random.default_rng(0))

    def unit_gradients(batch, rng, grads):
        for g in grads.values():
            g[...] = 1.0
        return 1.0

    trainer = StageTrainer(
        "cause", model, desk_config(), epochs=len(metrics), n_items=1, batch_size=1,
        loss_fn=unit_gradients, eval_fn=lambda: metrics[trainer.epoch],
        out_dir=None if out_dir is None else str(out_dir),
    )
    return trainer


def run_keeping_copies(trainer):
    """Runs ``trainer``; returns a copy of its parameters at each epoch's
    record, an oracle independent of ``best.npz``."""
    at_epoch = {}

    def copy_params(record):
        at_epoch[record["epoch"]] = {k: v.copy() for k, v in trainer.model.params.items()}

    trainer.run(log_fn=copy_params)
    return at_epoch


def assert_same_params(params, expected):
    assert params.keys() == expected.keys()
    for key, value in expected.items():
        np.testing.assert_array_equal(params[key], value, err_msg=key)


class TestSaves:
    def test_best_written_once_per_improvement(self, tmp_path, monkeypatch):
        written = []
        original = training.save_model

        def counting(path, *args, **kwargs):
            written.append(os.path.basename(path))
            return original(path, *args, **kwargs)

        monkeypatch.setattr(training, "save_model", counting)
        trainer = scripted_trainer(tmp_path, [0.5, 0.4, 0.6, 0.6, 0.7, 0.1])
        at_epoch = run_keeping_copies(trainer)
        assert written.count("cause_last.npz") == 6
        assert written.count("cause_best.npz") == 3  # epochs 1, 3 and 5
        best, extra = load_stage_model(tmp_path / "cause_best.npz", "cause")
        assert extra == {"val_metric": 0.7, "epoch": 5, "step": 5}
        for params in (best.params, trainer.best_params, trainer.best_model().params):
            assert_same_params(params, at_epoch[5])

    def test_best_kept_in_memory_without_out_dir(self):
        trainer = scripted_trainer(None, [0.5, 0.4, 0.6, 0.6, 0.7, 0.1])
        at_epoch = run_keeping_copies(trainer)
        assert not all(np.array_equal(v, at_epoch[5][k])
                       for k, v in trainer.model.params.items())  # epoch 6 moved on
        for params in (trainer.best_params, trainer.best_model().params):
            assert_same_params(params, at_epoch[5])

    @pytest.mark.parametrize("out_dir", [True, False], ids=["out_dir", "in_memory"])
    def test_no_best_copy_while_no_epoch_improves(self, tmp_path, out_dir):
        # a NaN metric never improves on the start: there is no best epoch,
        # with a file or without one, and the best model is the final one
        trainer = scripted_trainer(tmp_path if out_dir else None, [float("nan")] * 3)
        at_epoch = run_keeping_copies(trainer)
        assert trainer.best_params is None
        assert not (tmp_path / "cause_best.npz").exists()
        assert_same_params(trainer.best_model().params, at_epoch[3])

    def test_best_copy_lives_only_in_best_npz(self, tmp_path, monkeypatch):
        # a 0.94M-parameter BiLSTM that improves only in epoch 1: epochs 2
        # and 3 hold the parameters, gradients, m and v, and no best copy;
        # best.npz is read back once, when best_params is first asked for
        model = CauseModel(CauseModelConfig(variant="bilstm", input_dim=16, hidden_size=128,
                                            n_layers=3), rng=np.random.default_rng(0))
        reads = []
        original = training.load_model

        def counting(path):
            reads.append(os.path.basename(path))
            return original(path)

        monkeypatch.setattr(training, "load_model", counting)
        digests = {}

        def digest(params):
            h = hashlib.sha256()
            for value in params.values():
                h.update(memoryview(value))  # no copy of the parameters
            return h.hexdigest()

        tracemalloc.start()
        try:
            trainer = scripted_trainer(tmp_path, [0.5, 0.4, 0.3], model=model)
            unit_gradients = trainer.loss_fn

            def loss_fn(batch, rng, grads):
                if trainer.epoch == 1:  # the one step of epoch 2
                    tracemalloc.reset_peak()
                return unit_gradients(batch, rng, grads)

            trainer.loss_fn = loss_fn
            trainer.run(log_fn=lambda r: digests.setdefault(r["epoch"], digest(model.params)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = model.params["head_W"].base.nbytes
        assert 0.9e6 < buffer / 8 < 1.1e6
        assert 4 * buffer < peak < 4.5 * buffer
        assert reads == []
        assert digest(trainer.best_params) == digests[1] != digests[3]
        assert digest(trainer.best_model().params) == digests[1]
        assert reads == ["cause_best.npz"]

    @staticmethod
    def _fail_member_writes(monkeypatch, fail):
        """Makes each write of an npz member into the temp file ``tmp`` for
        which ``fail(tmp)`` returns an action write b"partial", call the
        action and raise OSError("disk full writing <tmp>")."""
        original = zipfile.ZipFile.open

        def open_member(archive, name, mode="r", **kwargs):
            member = original(archive, name, mode, **kwargs)
            tmp = os.path.basename(archive.fp.name)
            action = fail(tmp) if mode == "w" else None
            if action is not None:
                def write(data):
                    type(member).write(member, b"partial")
                    action()
                    raise OSError(f"disk full writing {tmp}")

                member.write = write
            return member

        monkeypatch.setattr(zipfile.ZipFile, "open", open_member)

    @staticmethod
    def _files(directory):
        return {name: (directory / name).read_bytes() for name in os.listdir(directory)}

    def _trainer_at_epoch_1(self, tmp_path):
        scripted_trainer(tmp_path, [0.5, 0.6]).run(stop_epoch=1)
        trainer = scripted_trainer(tmp_path, [0.5, 0.6])
        trainer.resume()
        before = self._files(tmp_path)
        assert sorted(before) == ["cause_best.npz", "cause_last.npz", "cause_state.npz"]
        return trainer, before

    @pytest.mark.parametrize("failing", ["cause_last.npz", "cause_best.npz",
                                         "cause_state.npz"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, failing):
        trainer, before = self._trainer_at_epoch_1(tmp_path)
        self._fail_member_writes(monkeypatch, lambda tmp: (lambda: None) if tmp.startswith(
            failing) else None)
        with pytest.raises(OSError, match="disk full"):
            trainer.run()
        assert sorted(os.listdir(tmp_path)) == sorted(before)  # no temp file left
        assert (tmp_path / failing).read_bytes() == before[failing]

    def test_failed_writes_on_both_threads(self, tmp_path, monkeypatch, two_threads):
        # the helper's state.npz write fails while the caller's last.npz
        # write does: save waits for both, raises one error, keeps both files
        trainer, before = self._trainer_at_epoch_1(tmp_path)
        state_started, ended = threading.Event(), []

        def state_fails():
            state_started.set()
            time.sleep(0.2)  # still writing when last.npz fails
            ended.append("cause_state.npz")

        actions = {"cause_last.npz": lambda: state_started.wait(10),
                   "cause_state.npz": state_fails}
        self._fail_member_writes(monkeypatch, lambda tmp: next(
            (action for name, action in actions.items() if tmp.startswith(name)), None))
        # the fixture's helper, with the byte rule lowered, so that both
        # writes run on any machine
        with pytest.raises(OSError, match="^disk full writing cause_last.npz") as exc:
            trainer.run()
        assert ended == ["cause_state.npz"]  # ended before save returned
        assert self._files(tmp_path) == before  # both kept, no temp file left
        assert state_started.is_set()
        assert exc.value.__context__ is None  # one error, not one raised over the other

    @pytest.mark.parametrize("end", ["paused", "failed"])
    def test_a_trainer_runs_once(self, tmp_path, end):
        # a run that ends by a pause or by an error drops the optimizer: a
        # second run or a resume on the same trainer is refused and writes
        # nothing
        trainer = scripted_trainer(tmp_path, [0.5, 0.6])
        if end == "paused":
            trainer.run(stop_epoch=1)
        else:
            unit_gradients = trainer.loss_fn
            trainer.loss_fn = lambda *args: unit_gradients(*args) if trainer.epoch == 0 else np.nan
            with pytest.raises(TrainingError, match="^non-finite loss at stage cause, epoch 1"):
                trainer.run()
        assert (trainer.optimizer, trainer.loss_fn, trainer.eval_fn) == (None, None, None)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        for again in (trainer.run, trainer.resume):
            with pytest.raises(TrainingError, match="^cause trainer has already run; resume"):
                again()
        assert trainer.epoch == 1 and len(trainer.history) == 1
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before


class TestCheckpoints:
    def test_round_trip_bit_exact(self, tmp_path, splits):
        config, train, val, provider = splits
        model = make_emotion_model(dataclasses.replace(config, emotion_variant="bilstm_crf"),
                                   provider.feature_dim, np.random.default_rng(3))
        path = tmp_path / "bundle.npz"
        save_model(path, "emotion", model, extra={"note": 1})
        stage, again, extra = load_model(path)
        assert stage == "emotion"
        assert extra == {"note": 1}
        assert again.config == model.config
        assert set(again.params) == set(model.params)
        for key in model.params:
            np.testing.assert_array_equal(again.params[key], model.params[key])

    def test_writer_gives_np_savez_bytes(self, tmp_path, splits):
        config, train, val, provider = splits
        model = make_emotion_model(dataclasses.replace(config, emotion_variant="bilstm_crf"),
                                   provider.feature_dim, np.random.default_rng(3))
        optimizer = nn.AdamW(model.params)
        rng = np.random.default_rng(4)
        for moments in (optimizer.m, optimizer.v):
            for value in moments.values():
                value[...] = rng.standard_normal(value.shape)
        cases = {
            "params": {f"param:{k}": v for k, v in model.params.items()},
            "state": optimizer.state_arrays(),
            "meta only": {},
            "empty rows": {"rows": np.zeros((0, 3))},
            "0-d float": {"x": np.float64(0.25)},
        }
        for case, arrays in cases.items():
            arrays = {"__meta__": json.dumps({"case": case}), **arrays}
            savez_atomic(tmp_path / "written.npz", **arrays)
            np.savez(tmp_path / "numpy.npz", **arrays)
            assert (tmp_path / "written.npz").read_bytes() == \
                (tmp_path / "numpy.npz").read_bytes(), case
            meta, again = read_npz(tmp_path / "written.npz", "test file")
            assert meta == {"case": case}
            assert again.keys() == arrays.keys() - {"__meta__"}, case
            for key, value in again.items():
                expected = np.asarray(arrays[key])
                assert (value.shape, value.dtype) == (expected.shape, expected.dtype), case
                np.testing.assert_array_equal(value, expected, err_msg=case)

    @pytest.mark.parametrize("value", [
        np.asfortranarray(np.arange(20.0).reshape(5, 4)),
        np.arange(20.0).reshape(5, 4)[::2, 1:],
        np.array([1, "x"], dtype=object),
    ], ids=["fortran", "strided", "object"])
    def test_writer_refuses_what_the_reader_cannot_read(self, tmp_path, value):
        path = tmp_path / "state.npz"
        savez_atomic(path, __meta__="{}", x=np.ones(3))
        before = path.read_bytes()
        with pytest.raises(CheckpointError) as exc:
            savez_atomic(path, __meta__="{}", y=np.ones(2), x=value)
        assert str(exc.value) == (f"{path}: cannot write 'x', which is not a C-contiguous"
                                  f" array of plain data")
        assert os.listdir(tmp_path) == ["state.npz"] and path.read_bytes() == before

    def test_loaded_arrays_are_own_writable_c_contiguous(self, tmp_path, splits):
        config, train, val, provider = splits
        model = make_emotion_model(dataclasses.replace(config, emotion_variant="bilstm_crf"),
                                   provider.feature_dim, np.random.default_rng(3))
        save_model(tmp_path / "bundle.npz", "emotion", model)
        params = list(load_model(tmp_path / "bundle.npz")[1].params.items())
        for key, value in params:
            assert value.flags.writeable and value.flags.c_contiguous
            assert value.dtype == model.params[key].dtype
            np.testing.assert_array_equal(value, model.params[key])
        for (_, a), (_, b) in itertools.combinations(params, 2):
            assert not np.shares_memory(a, b)

    def test_resume_refuses_a_fortran_ordered_last_bundle(self, tmp_path, splits):
        config, train, val, provider = splits
        fresh = lambda: make_emotion_model(config, provider.feature_dim,
                                           np.random.default_rng(0))
        train_emotion_stage(config, fresh(), train, val, provider,
                            out_dir=str(tmp_path), stop_epoch=1)
        last = tmp_path / "emotion_last.npz"
        with np.load(last) as data:
            arrays = {k: np.asfortranarray(data[k]) for k in data.files}
        square = next(k for k, a in arrays.items() if not a.flags.c_contiguous)
        np.savez(last, **arrays)
        before = {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)}
        with pytest.raises(CheckpointError) as exc:
            train_emotion_stage(config, fresh(), train, val, provider,
                                out_dir=str(tmp_path), resume=True)
        assert str(exc.value).startswith(f"{last}: cannot read a model bundle")
        assert f"member {square + '.npy'!r} is in Fortran order" in str(exc.value)
        assert {name: (tmp_path / name).read_bytes() for name in os.listdir(tmp_path)} == before

    def test_load_draws_no_init(self, tmp_path, splits, monkeypatch):
        config, train, val, provider = splits
        model = make_emotion_model(dataclasses.replace(config, emotion_variant="bilstm_crf"),
                                   provider.feature_dim, np.random.default_rng(3))
        save_model(tmp_path / "bundle.npz", "emotion", model)

        def no_init(*args, **kwargs):
            raise AssertionError("load_model drew a fresh init")

        monkeypatch.setattr(nn, "birnn_init", no_init)
        monkeypatch.setattr(nn, "dense_init", no_init)
        load_model(tmp_path / "bundle.npz")

    @pytest.mark.parametrize("edit,message", [
        (lambda a: a.pop("param:head_W"), "lacks 'head_W'"),
        (lambda a: a.update({"param:extra": np.zeros(2)}), "holds an unexpected 'extra'"),
        (lambda a: a.update({"param:head_b": np.zeros(3)}),
         r"'head_b' has shape \(3,\), expected \(7,\)"),
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

    @pytest.mark.parametrize("decode", ["viterbi", "marginal"])
    def test_load_drops_viterbi_decode_and_refuses_others(self, tmp_path, splits, decode):
        # emotion bundles written while the decoder was configurable name it
        config, train, val, provider = splits
        model = make_emotion_model(dataclasses.replace(config, emotion_variant="bilstm_crf"),
                                   provider.feature_dim, np.random.default_rng(3))
        path = tmp_path / "bundle.npz"
        save_model(path, "emotion", model)
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["__meta__"][()]))
        meta["config"]["crf_decode"] = decode
        np.savez(path, **{**arrays, "__meta__": json.dumps(meta)})
        if decode == "viterbi":
            assert load_model(path)[1].config == model.config
            return
        with pytest.raises(CheckpointError, match="crf_decode 'marginal' is not supported") as exc:
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


def _with_directory_size(raw: bytes, member: str, size: int) -> bytes:
    """``raw``, an npz file, with the size its central directory gives
    ``member`` set to ``size``."""
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        at = archive.start_dir
    raw = bytearray(raw)
    while raw[at:at + 4] == b"PK\x01\x02":
        name_size, extra_size, comment_size = struct.unpack_from("<HHH", raw, at + 28)
        if raw[at + 46:at + 46 + name_size].decode() == member:
            struct.pack_into("<I", raw, at + 24, size)
            return bytes(raw)
        at += 46 + name_size + extra_size + comment_size
    raise KeyError(member)


def _with_data_byte_flipped(raw: bytes, member: str) -> bytes:
    """``raw``, an npz file, with the last stored byte of ``member`` flipped."""
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        info = archive.getinfo(member)
    name_size, extra_size = struct.unpack_from("<HH", raw, info.header_offset + 26)
    at = info.header_offset + 30 + name_size + extra_size + info.compress_size - 1
    return raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:]


class _FailingReader(io.BufferedReader):
    """A file whose ``readinto`` calls after the first ``reads`` raise ``error``."""

    def __init__(self, path, error, reads):
        super().__init__(io.FileIO(path))
        self.error, self.reads = error, reads

    def readinto(self, buffer):
        self.reads -= 1
        if self.reads < 0:
            raise self.error
        return super().readinto(buffer)


def _with_npy_2_0_member(path, x: np.ndarray) -> None:
    """An npz file as ``np.savez`` writes it, but with member ``x`` in npy
    format 2.0."""
    with zipfile.ZipFile(path, "w") as archive:
        for name, value, version in (("__meta__.npy", np.array("{}"), (1, 0)),
                                     ("x.npy", x, (2, 0))):
            with archive.open(name, "w", force_zip64=True) as member:
                npy_format.write_array(member, value, version=version)


class _Interrupt(BaseException):
    pass


def _helper_is_idle() -> bool:
    return nn._helper().submit(lambda: True).result(timeout=30)


PATHS = pytest.mark.parametrize("paired", [False, True], ids=["serial", "paired"])


class TestReader:
    """``read_npz`` against ``np.load``, on the serial path and, with the byte
    rule lowered by the ``two_threads`` fixture, the paired one."""

    @staticmethod
    def _cases(tmp_path, splits):
        config, train, val, provider = splits
        model = make_emotion_model(dataclasses.replace(config, emotion_variant="bilstm_crf"),
                                   provider.feature_dim, np.random.default_rng(3))
        optimizer = nn.AdamW(model.params)
        rng = np.random.default_rng(4)
        for moments in (optimizer.m, optimizer.v):
            for value in moments.values():
                value[...] = rng.standard_normal(value.shape)
        square = rng.standard_normal((5, 4))
        meta = json.dumps({"case": 1})
        writers = {
            "bundle": lambda path: save_model(path, "emotion", model, extra={"note": 1}),
            "state": lambda path: savez_atomic(path, __meta__=meta, **optimizer.state_arrays()),
            "meta only": lambda path: savez_atomic(path, __meta__=meta),
            "odd shapes": lambda path: savez_atomic(path, __meta__=meta, x=np.float64(0.25),
                                                    rows=np.zeros((0, 3)), n=np.arange(5)),
            "strided": lambda path: np.savez(path, __meta__=meta, x=square[::2, 1:]),
            "unicode meta": lambda path: savez_atomic(
                path, __meta__=json.dumps({"note": "ünïcødé ✓ 😀"}, ensure_ascii=False),
                x=square),
        }
        for case, write in writers.items():
            path = tmp_path / f"{case}.npz"
            write(path)
            yield case, path

    @PATHS
    def test_same_arrays_as_np_load(self, tmp_path, splits, two_threads, paired):
        two_threads.force(paired)
        for case, path in self._cases(tmp_path, splits):
            pairs = two_threads.pairs
            meta, arrays = read_npz(path, "test file")
            assert two_threads.pairs - pairs == paired, case
            with np.load(path) as data:
                expected = {k: data[k] for k in data.files}
            assert meta == json.loads(str(expected.pop("__meta__")[()])), case
            assert arrays.keys() == expected.keys(), case
            for key, value in arrays.items():
                assert type(value) is np.ndarray, case
                assert (value.shape, value.dtype) == (expected[key].shape, expected[key].dtype)
                np.testing.assert_array_equal(value, expected[key], err_msg=case)
                assert value.flags.c_contiguous and value.flags.writeable, (case, key)
                # every member is a view of the file's one buffer
                if value.dtype == np.float64:
                    assert value.ctypes.data % nn.ALIGN_BYTES == 0, (case, key)

    @PATHS
    @pytest.mark.parametrize("write, reason", [
        (lambda path, x: np.savez_compressed(path, x=x, __meta__="{}"),
         "is compressed (method 8), not stored"),
        (_with_npy_2_0_member,
         "has npy format version (2, 0), not 1.0"),
        (lambda path, x: np.savez(path, __meta__="{}", x=np.asfortranarray(x)),
         "is in Fortran order"),
        (lambda path, x: np.savez(path, __meta__="{}", x=np.array([1, "x"], dtype=object)),
         "holds Python objects"),
    ], ids=["deflated", "npy 2.0", "fortran", "object"])
    def test_members_savez_atomic_does_not_write_are_refused(self, tmp_path, two_threads,
                                                              paired, write, reason):
        two_threads.force(paired)
        path = tmp_path / "other.npz"
        write(path, np.arange(20.0).reshape(5, 4))
        with pytest.raises(CheckpointError) as exc:
            read_npz(path, "test file")
        assert str(exc.value) == f"{path}: cannot read a test file (member 'x.npy' {reason})"

    def test_caller_computes_the_crcs_while_the_helper_is_busy(self, tmp_path, splits,
                                                                two_threads, monkeypatch):
        # _pair's fallback: the helper has not started the CRC loop when the
        # reads end, so the caller runs it
        threads = []
        crc32 = zlib.crc32
        monkeypatch.setattr(zlib, "crc32", lambda *args: threads.append(
            threading.current_thread()) or crc32(*args))
        path = dict(self._cases(tmp_path, splits))["state"]
        pairs = two_threads.pairs  # the model's init has paired
        pool = nn._helper()
        release = threading.Event()
        busy = pool.submit(release.wait, 60)
        try:
            meta, arrays = read_npz(path, "test file")
        finally:
            release.set()
        assert busy.result(timeout=60)
        assert len(threads) == len(arrays) + 1  # and the meta block
        assert set(threads) == {threading.current_thread()} and two_threads.pairs - pairs == 1
        with np.load(path) as data:
            for key, value in arrays.items():
                np.testing.assert_array_equal(value, data[key])

    @PATHS
    @pytest.mark.parametrize("faults, message", [
        (("crc", "span"), "bad CRC-32 for member 'b.npy'"),
        (("span", "crc"), "member 'b.npy' is cut short"),
        (("crc", "crc"), "bad CRC-32 for member 'b.npy'"),
    ])
    def test_the_first_faulty_member_is_named(self, tmp_path, two_threads, paired, faults,
                                              message):
        two_threads.force(paired)
        buffer = io.BytesIO()
        np.savez(buffer, __meta__="{}", a=np.arange(40.0), b=np.arange(50.0),
                 c=np.arange(60.0), d=np.arange(70.0))
        raw = buffer.getvalue()
        for member, fault in zip(("b.npy", "c.npy"), faults):
            raw = (_with_data_byte_flipped(raw, member) if fault == "crc"
                   else _with_directory_size(raw, member, len(raw)))
        path = tmp_path / "faults.npz"
        path.write_bytes(raw)
        with pytest.raises(CheckpointError) as exc:
            read_npz(path, "test file")
        assert str(exc.value) == f"{path}: cannot read a test file ({message})"

    @PATHS
    @pytest.mark.parametrize("error", [OSError("disk gone"), _Interrupt()],
                             ids=["error", "interrupt"])
    def test_a_failed_read_leaves_no_helper_waiting(self, tmp_path, two_threads, monkeypatch,
                                                    paired, error):
        two_threads.force(paired)
        path = tmp_path / "state.npz"
        savez_atomic(path, __meta__="{}", **{k: np.full(1000, 1.0) for k in "abcd"})
        monkeypatch.setattr(checkpoint, "open", lambda path, mode: _FailingReader(path, error, 2),
                            raising=False)
        raised = []

        def read():  # fails reading member b
            try:
                read_npz(path, "test file")
            except (CheckpointError, _Interrupt) as exc:
                raised.append(exc)

        queues = []  # the reader's hand-off queues, to free a stuck helper
        monkeypatch.setattr(checkpoint, "queue", types.SimpleNamespace(
            SimpleQueue=lambda: queues.append(queue.SimpleQueue()) or queues[-1]))
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=30)
        if reader.is_alive():
            for ready in queues:
                ready.put(None)
            pytest.fail("the read waits for a CRC loop that never ends")
        if isinstance(error, OSError):
            assert [str(exc) for exc in raised] == [f"{path}: cannot read a test file (disk gone)"]
        else:
            assert raised == [error]
        assert two_threads.pairs == paired
        assert _helper_is_idle()

    def test_directory_beyond_the_file_is_refused_before_allocating(self, tmp_path):
        buffer = io.BytesIO()
        np.savez(buffer, __meta__="{}", a=np.ones(10), b=np.ones(10))
        path = tmp_path / "claims.npz"
        path.write_bytes(_with_directory_size(buffer.getvalue(), "b.npy", 2 ** 32 - 2))
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="member 'b.npy' is cut short"):
                read_npz(path, "test file")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("names", [("x.npy", "x.npy"), ("x", "x.npy"), ("x.npy", "x")])
    def test_two_members_of_one_name_are_refused(self, tmp_path, names):
        path = tmp_path / "twice.npz"
        with warnings.catch_warnings(), zipfile.ZipFile(path, "w") as archive:
            warnings.simplefilter("ignore")  # zipfile warns of a duplicate name
            for name, value in zip(("__meta__.npy", *names), (np.array("{}"), np.zeros(2),
                                                              np.ones(2))):
                with archive.open(name, "w") as member:
                    npy_format.write_array(member, value)
        with pytest.raises(CheckpointError) as exc:
            read_npz(path, "test file")
        assert str(exc.value) == (f"{path}: not a test file (two members named 'x':"
                                  f" {names[0]!r} and {names[1]!r})")


class TestProviders:
    def test_files_kind_requires_paths(self):
        config = desk_config(embeddings=EmbeddingSettings(kind="files"))
        with pytest.raises(TrainingError, match="path"):
            make_provider(config, synthetic_conversations(2, seed=0))

    def test_unknown_kind(self):
        config = desk_config(embeddings=EmbeddingSettings(kind="magic"))
        with pytest.raises(TrainingError, match="magic"):
            make_provider(config, synthetic_conversations(2, seed=0))
