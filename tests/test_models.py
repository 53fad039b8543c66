import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecpe import nn
from mecpe.corpus import Dataset, Emotion, EmotionCausePair, with_predictions
from mecpe.models import (
    CauseModel,
    CauseModelConfig,
    EmotionModel,
    EmotionModelConfig,
    ModelError,
    PairingModel,
    PairingModelConfig,
    _pair_keys,
    build_pair_examples,
    check_rep_compatibility,
    distance_row,
    packed_features,
    predict_dataset,
    predict_pairs,
)
from mecpe.synthetic import synthetic_conversations

from conftest import build_pair_examples_oracle, candidate_pair_space_oracle, make_conversation

JOY, ANGER, NEUTRAL = Emotion.JOY, Emotion.ANGER, Emotion.NEUTRAL


def emotion_model(variant, input_dim=6, hidden=4, layers=2, seed=0, **kw):
    return EmotionModel(
        EmotionModelConfig(variant=variant, input_dim=input_dim, hidden_size=hidden,
                           n_layers=layers, embedding_dropout=0.0,
                           inter_layer_dropout=0.0, **kw),
        rng=np.random.default_rng(seed),
    )


def cause_model(variant, input_dim=6, hidden=4, layers=2, seed=0):
    return CauseModel(
        CauseModelConfig(variant=variant, input_dim=input_dim, hidden_size=hidden,
                         n_layers=layers, embedding_dropout=0.0,
                         inter_layer_dropout=0.0),
        rng=np.random.default_rng(seed),
    )


def predict(model, features):
    """One conversation's labels: the stage model's forward, then its decoder."""
    return model.decode(model.forward(features)[0])


def predict_one(em, cm, pairing, features):
    """``predict_pairs`` on one conversation's decoded stage-model outputs."""
    e_scores, e_cache = em.forward(features)
    c_logits, c_cache = cm.forward(features)
    return predict_pairs(pairing, em.decode(e_scores), cm.decode(c_logits),
                         e_cache["head_in"], c_cache["head_in"])


class StubProvider:
    """Hands out fixed feature rows per conversation id, as a provider does."""

    def __init__(self, features):
        self.features = features

    def conversation_features(self, conv):
        return self.features[conv.conversation_id]


class TestEmotionModel:
    def test_dense_permutation_equivariance(self, rng):
        model = emotion_model("dense")
        x = rng.normal(size=(5, 6))
        perm = rng.permutation(5)
        scores, _ = model.forward(x)
        permuted, _ = model.forward(x[perm])
        np.testing.assert_allclose(permuted, scores[perm], rtol=1e-12)

    def test_bilstm_context_sensitivity(self, rng):
        model = emotion_model("bilstm")
        x = rng.normal(size=(6, 6))
        base, _ = model.forward(x)
        bumped = x.copy()
        bumped[0] += 1.0
        out, _ = model.forward(bumped)
        assert not np.allclose(out[-1], base[-1])

    @pytest.mark.parametrize("variant", ["dense", "bilstm", "bilstm_crf"])
    def test_single_utterance_conversation(self, variant, rng):
        model = emotion_model(variant)
        scores, _ = model.forward(rng.normal(size=(1, 6)))
        assert scores.shape == (1, 7)
        assert len(predict(model, rng.normal(size=(1, 6)))) == 1

    def test_feature_width_mismatch(self, rng):
        model = emotion_model("dense")
        with pytest.raises(ModelError, match="width"):
            model.forward(rng.normal(size=(3, 9)))

    @pytest.mark.parametrize("variant", ["dense", "bilstm"])
    def test_feature_rows_must_match_layout(self, variant, rng):
        model = emotion_model(variant)
        for bad in (rng.normal(size=6), rng.normal(size=(4, 6))):
            with pytest.raises(ModelError, match="feature matrix"):
                model.forward(bad, layout=nn.pack_sequences([2, 3]))

    def test_dense_unit_weights_is_mean_ce(self, rng):
        model = emotion_model("dense")
        x = rng.normal(size=(4, 6))
        labels = rng.integers(0, 7, size=4)
        loss, _ = model.loss_and_grads(x, labels, np.ones(7))
        logits, _ = model.forward(x)
        expected = float(np.mean([-nn.log_softmax(l)[t] for l, t in zip(logits, labels)]))
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_crf_all_zero_params_uniform_nll(self):
        model = emotion_model("bilstm_crf")
        for k in model.params:
            model.params[k][...] = 0.0
        x = np.zeros((3, 6))
        loss, _ = model.loss_and_grads(x, [1, 4, 2], np.ones(7))
        assert loss == pytest.approx(3 * math.log(7.0), rel=1e-12)

    def test_crf_forbidden_repeats_in_decoding(self, rng):
        model = emotion_model("bilstm_crf")
        model.params["crf.transitions"][...] = -1e9 * np.eye(7)
        labels = predict(model, rng.normal(size=(8, 6)))
        assert all(a != b for a, b in zip(labels, labels[1:]))

    def test_predict_deterministic(self, rng):
        x = rng.normal(size=(5, 6))
        for variant in ("dense", "bilstm", "bilstm_crf"):
            model = emotion_model(variant)
            assert predict(model, x).tolist() == predict(model, x).tolist()

    def test_loss_decreases_under_training(self, rng):
        # 50 optimizer steps on planted synthetic conversations
        data = synthetic_conversations(5, seed=1, neutral_prob=0.4)
        from mecpe.embeddings import PlantedRule, synthetic_provider
        provider = synthetic_provider(0, (8, 2, 2), data, PlantedRule(0.1))
        from mecpe.corpus import emotion_class_weights, emotion_label_vector
        weights = emotion_class_weights(data)
        items = [(provider.conversation_features(c), emotion_label_vector(c))
                 for c in data.conversations]
        model = emotion_model("dense", input_dim=provider.feature_dim)
        opt = nn.AdamW(model.params)
        first = last = None
        for step in range(50):
            feats, labels = items[step % len(items)]
            loss, _ = model.loss_and_grads(feats, labels, weights, grads=opt.grads)
            opt.step(0.01)
            first = loss if first is None else first
            last = loss
        assert last < first

    @pytest.mark.parametrize("variant", ["dense", "bilstm", "bilstm_crf"])
    def test_gradcheck_all_variants(self, variant, rng):
        model = emotion_model(variant, input_dim=4, hidden=3, layers=2)
        x = rng.normal(size=(3, 4))
        labels = rng.integers(0, 7, size=3)
        weights = rng.uniform(0.5, 2.0, size=7)
        fn = lambda p: model.loss_and_grads(x, labels, weights)
        assert nn.gradcheck(fn, model.params, epsilon=1e-4) < 1e-4

    def test_gradcheck_with_gradients_written_into_one_buffer(self, rng):
        # as in training: the parameters and gradients are views of the
        # optimizer's buffers, and every call writes into the same views
        model = emotion_model("bilstm_crf", input_dim=4, hidden=3, layers=2)
        opt = nn.AdamW(model.params)
        x = rng.normal(size=(3, 4))
        labels = rng.integers(0, 7, size=3)
        fn = lambda p: model.loss_and_grads(x, labels, None, grads=opt.grads)
        assert nn.gradcheck(fn, model.params, epsilon=1e-4) < 1e-4


@pytest.mark.parametrize("variant", ["emotion dense", "emotion bilstm_crf", "cause bilstm",
                                     "pairing"])
def test_loss_and_grads_write_into_given_arrays(variant, rng):
    stage, _, kind = variant.partition(" ")
    x = rng.normal(size=(4, 6))
    if stage == "pairing":
        model = PairingModel(PairingModelConfig(emotion_rep_dim=3, cause_rep_dim=3,
                                                distance_dim=2, rep_dropout=0.0),
                             rng=np.random.default_rng(0))
        args = (x[:, :3], x[:, 3:], np.array([0, 1, -2, 20]), np.array([1, 0, 0, 1]))
    elif stage == "cause":
        model, args = cause_model(kind), (x, np.array([1, 0, 0, 1]))
    else:
        model, args = emotion_model(kind), (x, np.array([1, 0, 3, 6]), np.ones(7))
    loss, fresh = model.loss_and_grads(*args)
    given = {k: np.full_like(v, np.nan) for k, v in model.params.items()}
    loss_given, written = model.loss_and_grads(*args, grads=given)
    assert loss_given == loss and written is given
    assert all(written[k] is given[k] for k in given)
    assert list(fresh) == list(model.params)
    for k in model.params:
        np.testing.assert_array_equal(written[k], fresh[k], err_msg=k)


class TestCauseModel:
    def test_threshold_is_strict(self):
        model = cause_model("dense")
        model.params["head_W"][...] = 0.0
        model.params["head_b"][...] = 0.0
        x = np.random.default_rng(0).normal(size=(4, 6))
        logits = model.forward(x)[0]
        assert np.all(nn.sigmoid(logits) == 0.5)
        assert model.decode(logits).tolist() == [0, 0, 0, 0]

    def test_dense_permutation_equivariance(self, rng):
        model = cause_model("dense")
        x = rng.normal(size=(5, 6))
        perm = rng.permutation(5)
        base, _ = model.forward(x)
        permuted, _ = model.forward(x[perm])
        np.testing.assert_allclose(permuted, base[perm], rtol=1e-12)

    @pytest.mark.parametrize("variant", ["dense", "bilstm"])
    def test_gradcheck(self, variant, rng):
        model = cause_model(variant, input_dim=4, hidden=3)
        x = rng.normal(size=(3, 4))
        labels = rng.integers(0, 2, size=3)
        fn = lambda p: model.loss_and_grads(x, labels)
        assert nn.gradcheck(fn, model.params, epsilon=1e-4) < 1e-4


def pairing_model(emotion_rep_dim, cause_rep_dim, distance_dim=3, max_distance=2):
    return PairingModel(
        PairingModelConfig(emotion_rep_dim=emotion_rep_dim, cause_rep_dim=cause_rep_dim,
                           distance_dim=distance_dim, max_distance=max_distance,
                           rep_dropout=0.0),
        rng=np.random.default_rng(0),
    )


STAGE_MODELS = [("emotion", v) for v in ("dense", "bilstm", "bilstm_crf")] + \
               [("cause", v) for v in ("dense", "bilstm")]


class TestStageModel:
    @pytest.mark.parametrize("stage,variant", STAGE_MODELS)
    def test_param_shapes_match_init(self, stage, variant):
        make = emotion_model if stage == "emotion" else cause_model
        model = make(variant, input_dim=5, hidden=3, layers=3)
        shapes = model.param_shapes()
        assert list(shapes) == list(model.params)
        assert shapes == {k: v.shape for k, v in model.params.items()}

    def test_pairing_param_shapes_match_init(self):
        model = pairing_model(4, 6, distance_dim=5, max_distance=3)
        assert model.param_shapes() == {k: v.shape for k, v in model.params.items()}

    @pytest.mark.parametrize("stage,variant", STAGE_MODELS)
    def test_representations_are_head_input(self, stage, variant, rng):
        make = emotion_model if stage == "emotion" else cause_model
        model = make(variant)
        x = rng.normal(size=(4, 6))
        scores, cache = model.forward(x)
        reps = cache["head_in"]
        assert reps.shape == (4, model.rep_dim)
        head = reps @ model.params["head_W"] + model.params["head_b"]
        np.testing.assert_array_equal(scores, head if stage == "emotion" else head[:, 0])


class TestPairRepresentation:
    def test_distance_zero_center_row(self):
        model = pairing_model(2, 2)
        table = np.arange(15, dtype=np.float64).reshape(5, 3)
        model.params["dist_table"] = table
        x, rows = model._inputs(np.zeros((1, 2)), np.zeros((1, 2)), [0])
        assert rows.tolist() == [2]
        np.testing.assert_array_equal(x[0, 4:], table[2])

    def test_clipping_shares_boundary_rows(self):
        model = pairing_model(1, 1)
        x, rows = model._inputs(np.zeros((4, 1)), np.zeros((4, 1)), [9, 2, -9, -2])
        assert rows.tolist() == [4, 4, 0, 0]
        np.testing.assert_array_equal(x[0], x[1])
        np.testing.assert_array_equal(x[2], x[3])
        assert not np.array_equal(x[0], x[2])
        assert distance_row(-9, 2) == 0 and distance_row(9, 2) == 4

    def test_vectorized_distance_row_matches_scalar(self):
        distances = np.arange(-20, 21)
        for max_distance in (0, 1, 3, 12):
            rows = distance_row(distances, max_distance)
            expected = [int(np.clip(d, -max_distance, max_distance)) + max_distance
                        for d in distances]
            assert rows.tolist() == expected

    def test_output_width(self):
        model = pairing_model(4, 2)
        e, c = np.ones((3, 4)), np.full((3, 2), 2.0)
        x, _ = model._inputs(e, c, [1, 0, -1])
        assert x.shape == (3, 4 + 2 + 3)
        np.testing.assert_array_equal(x[:, :4], e)
        np.testing.assert_array_equal(x[:, 4:6], c)

    def test_zero_head_gives_half_probability(self):
        model = PairingModel(
            PairingModelConfig(emotion_rep_dim=2, cause_rep_dim=2, distance_dim=3,
                               max_distance=2, rep_dropout=0.0),
            rng=np.random.default_rng(0),
        )
        model.params["head_W"][...] = 0.0
        model.params["head_b"][...] = 0.0
        probs = model.probabilities(np.ones((4, 2)), np.ones((4, 2)), [0, 1, -1, 5])
        np.testing.assert_array_equal(probs, np.full(4, 0.5))

    def test_balanced_loss_at_uninformative_head(self):
        model = PairingModel(
            PairingModelConfig(emotion_rep_dim=2, cause_rep_dim=2, distance_dim=3,
                               max_distance=2, rep_dropout=0.0),
            rng=np.random.default_rng(0),
        )
        model.params["head_W"][...] = 0.0
        model.params["head_b"][...] = 0.0
        loss, _ = model.loss_and_grads(
            np.ones((4, 2)), np.ones((4, 2)), [0, 0, 1, 1], [1, 0, 1, 0])
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_rep_width_mismatch(self):
        model = PairingModel(
            PairingModelConfig(emotion_rep_dim=3, cause_rep_dim=3, distance_dim=2,
                               max_distance=2),
            rng=np.random.default_rng(0),
        )
        with pytest.raises(ModelError, match="rep widths"):
            model.probabilities(np.ones((1, 2)), np.ones((1, 3)), [0])


def id_pairs(rows) -> list[tuple[int, int]]:
    """The (emotion id, cause id) of each row, in row order."""
    return [(int(e), int(c)) for e, c in np.asarray(rows)[:, :2]]


class TestNegativeSampling:
    def test_exact_ratio(self):
        conv = make_conversation(1, [NEUTRAL, JOY, NEUTRAL, JOY] + [NEUTRAL] * 6,
                                 [(2, JOY, 2), (4, JOY, 4)])
        assert len(candidate_pair_space_oracle(conv)) == 18
        rows = build_pair_examples(conv, ratio=5, seed=0)
        assert rows.dtype == np.int64 and rows.shape == (12, 3)
        assert rows[:, 2].tolist() == [1, 1] + [0] * 10
        assert id_pairs(rows[:2]) == [(2, 2), (4, 4)]

    def test_exhaustion(self):
        conv = make_conversation(1, [JOY, NEUTRAL, NEUTRAL, NEUTRAL], [(1, JOY, 1)])
        rows = build_pair_examples(conv, ratio=5, seed=0)
        assert id_pairs(rows[rows[:, 2] == 0]) == [(1, 2), (1, 3), (1, 4)]

    def test_seed_reproducible(self):
        conv = make_conversation(3, [NEUTRAL, JOY] + [NEUTRAL] * 27, [(2, JOY, 2)])
        a = build_pair_examples(conv, ratio=5, seed=7)
        b = build_pair_examples(conv, ratio=5, seed=7)
        assert np.array_equal(a, b)
        assert (a[:, 2] == 0).sum() == 5

    def test_never_returns_gold(self):
        # every utterance is a gold cause, so every cause column of the space
        # has a gold pair in it
        conv = make_conversation(4, [JOY] * 6, [(e, JOY, e) for e in range(1, 7)])
        rows = build_pair_examples(conv, ratio=50, seed=3)
        negatives = id_pairs(rows[rows[:, 2] == 0])
        assert len(negatives) == 30
        assert not set(negatives) & {(e, e) for e in range(1, 7)}

    @pytest.mark.parametrize("offsets", [(0,), (-1, 0, 1), (-2, 0), (0, 0)])
    def test_rows_match_list_oracle(self, offsets):
        # (0, 0) gives every gold pair twice; synthetic_conversations refuses a
        # repeated offset, so the pairs of (0,) are doubled in place
        distinct = tuple(dict.fromkeys(offsets))
        data = synthetic_conversations(30, seed=len(offsets), neutral_prob=0.4,
                                       cause_offsets=distinct)
        if distinct != offsets:
            data = Dataset(conversations=tuple(
                dataclasses.replace(conv, gold_pairs=tuple(
                    pair for pair in conv.gold_pairs for _ in offsets))
                for conv in data.conversations))
        hand_built = [
            make_conversation(31, [NEUTRAL] * 5),
            # a pair whose emotion and cause utterances have no gold emotion
            make_conversation(32, [None, JOY, None, NEUTRAL],
                              [(1, JOY, 2), (2, JOY, 3), (2, JOY, 3)]),
        ]
        for conv in data.conversations + tuple(hand_built):
            space = np.array(candidate_pair_space_oracle(conv), dtype=np.int64)
            base, _, keys = _pair_keys(conv)
            assert np.array_equal(np.column_stack(np.divmod(keys, base)), space.reshape(-1, 2))
            for ratio in (1, 5, 50):
                want = np.array(build_pair_examples_oracle(conv, ratio, seed=11),
                                dtype=np.int64).reshape(-1, 3)
                rows = build_pair_examples(conv, ratio, seed=11)
                assert rows.dtype == np.int64
                assert np.array_equal(rows, want), (conv.conversation_id, ratio)

    def test_ratio_and_gold_required(self):
        conv = make_conversation(1, [JOY, NEUTRAL], [(1, JOY, 1)])
        with pytest.raises(ModelError, match="negative ratio must be >= 1"):
            build_pair_examples(conv, ratio=0, seed=0)
        with pytest.raises(ModelError, match="gold pairs required"):
            build_pair_examples(dataclasses.replace(conv, gold_pairs=None), ratio=5, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_examples_from_random_conversations(self, seed):
        data = synthetic_conversations(3, seed=seed, neutral_prob=0.4)
        for conv in data.conversations:
            rows = build_pair_examples(conv, ratio=5, seed=seed)
            gold = {(p.emotion_utterance_id, p.cause_utterance_id)
                    for p in conv.gold_pairs}
            positives = id_pairs(rows[rows[:, 2] == 1])
            negatives = id_pairs(rows[rows[:, 2] == 0])
            assert set(positives) == gold
            assert not (set(negatives) & gold)
            assert len(set(negatives)) == len(negatives)  # no duplicates
            space = len(candidate_pair_space_oracle(conv))
            assert len(negatives) == min(5 * len(gold), space)


def rigged_pairing(rep_dim, accept_distance=0):
    """Pairing head that fires only on one clipped distance."""
    config = PairingModelConfig(emotion_rep_dim=rep_dim, cause_rep_dim=rep_dim,
                                distance_dim=1, max_distance=3, rep_dropout=0.0)
    model = PairingModel(config, rng=np.random.default_rng(0))
    table = np.full((config.n_distance_rows, 1), -5.0)
    table[distance_row(accept_distance, config.max_distance)] = 5.0
    model.params["dist_table"] = table
    W = np.zeros((config.input_dim, 1))
    W[-1, 0] = 1.0
    model.params["head_W"] = W
    model.params["head_b"] = np.zeros(1)
    return model


class TestPredictPairs:
    def _rigged_stages(self, rep_dim=6):
        """Stage models with zeroed heads; tests then bias them as needed."""
        em = emotion_model("dense", input_dim=rep_dim)
        em.params["head_W"][...] = 0.0
        em.params["head_b"][...] = 0.0
        cm = cause_model("dense", input_dim=rep_dim)
        cm.params["head_W"][...] = 0.0
        cm.params["head_b"][...] = 0.0
        return em, cm

    def test_no_non_neutral_no_pairs(self, rng):
        em, cm = self._rigged_stages()
        em.params["head_b"][int(NEUTRAL)] = 10.0   # always predict neutral
        cm.params["head_b"][0] = 10.0               # every utterance a candidate
        pairing = rigged_pairing(6)
        emotions, pairs = predict_one(em, cm, pairing, rng.normal(size=(4, 6)))
        assert pairs == []
        assert all(e is NEUTRAL for e in emotions)

    def test_no_candidate_causes_no_pairs(self, rng):
        em, cm = self._rigged_stages()
        em.params["head_b"][int(JOY)] = 10.0
        cm.params["head_b"][0] = -10.0
        pairing = rigged_pairing(6)
        _, pairs = predict_one(em, cm, pairing, rng.normal(size=(4, 6)))
        assert pairs == []

    def test_threshold_selects_pairs(self, rng):
        # all utterances joy+candidate; pairing accepts only distance 0
        em, cm = self._rigged_stages()
        em.params["head_b"][int(JOY)] = 10.0
        cm.params["head_b"][0] = 10.0
        pairing = rigged_pairing(6, accept_distance=0)
        features = rng.normal(size=(3, 6))
        emotions, pairs = predict_one(em, cm, pairing, features)
        assert all(e is JOY for e in emotions)
        assert pairs == [EmotionCausePair(i, JOY, i) for i in (1, 2, 3)]

    def test_emitted_pairs_satisfy_invariants(self, rng):
        data = synthetic_conversations(4, seed=5, neutral_prob=0.4)
        from mecpe.embeddings import synthetic_provider
        provider = synthetic_provider(1, (4, 1, 1), data)
        em = emotion_model("dense", input_dim=6, seed=2)
        cm = cause_model("dense", input_dim=6, seed=3)
        pairing = PairingModel(
            PairingModelConfig(emotion_rep_dim=6, cause_rep_dim=6, distance_dim=4,
                               max_distance=3, rep_dropout=0.0),
            rng=np.random.default_rng(4),
        )
        for conv in data.conversations:
            features = provider.conversation_features(conv)
            emotions, pairs = predict_one(em, cm, pairing, features)
            cause_flags = predict(cm, features)
            for pair in pairs:
                assert pair.emotion is not NEUTRAL
                assert 1 <= pair.emotion_utterance_id <= len(conv.utterances)
                assert 1 <= pair.cause_utterance_id <= len(conv.utterances)
                assert emotions[pair.emotion_utterance_id - 1] is pair.emotion
                assert cause_flags[pair.cause_utterance_id - 1] == 1
            assert len(pairs) == len(set(pairs))

    def test_incompatible_rep_widths_error(self, rng):
        em = emotion_model("dense", input_dim=6)
        cm = cause_model("dense", input_dim=6)
        pairing = rigged_pairing(4)
        with pytest.raises(ModelError, match="rep widths"):
            check_rep_compatibility(em, cm, pairing)
        with pytest.raises(ModelError, match="rep widths"):
            predict_dataset(em, cm, pairing, Dataset(conversations=()), StubProvider({}))

    def test_pairing_gradcheck(self, rng):
        model = PairingModel(
            PairingModelConfig(emotion_rep_dim=3, cause_rep_dim=3, distance_dim=2,
                               max_distance=2, rep_dropout=0.0),
            rng=np.random.default_rng(1),
        )
        E = rng.normal(size=(5, 3))
        C = rng.normal(size=(5, 3))
        d = rng.integers(-4, 5, size=5)
        y = rng.integers(0, 2, size=5)
        fn = lambda p: model.loss_and_grads(E, C, d, y)
        assert nn.gradcheck(fn, model.params, epsilon=1e-5) < 1e-6


def _oracle_representations(model, features):
    """The removed second pass: the BiLSTM run again for the representations."""
    cfg = model.config
    x = np.asarray(features, dtype=np.float64)
    if not cfg.uses_rnn:
        return x
    rnn_params = {k[4:]: v for k, v in model.params.items() if k.startswith("rnn.")}
    return nn.birnn_forward(rnn_params, x)[0]


def _oracle_predict_pairs(emotion_model, cause_model, pairing_model, features):
    """The original per-conversation, two-pass composition, kept as the reference."""
    emotions = [Emotion(k) for k in predict(emotion_model, features)]
    cause_flags = predict(cause_model, features)
    emotion_ids = [i + 1 for i, e in enumerate(emotions) if e is not NEUTRAL]
    cause_ids = [i + 1 for i, flag in enumerate(cause_flags) if flag]
    if not emotion_ids or not cause_ids:
        return emotions, []
    e_reps = _oracle_representations(emotion_model, features)
    c_reps = _oracle_representations(cause_model, features)
    combos = list(itertools.product(emotion_ids, cause_ids))
    probs = pairing_model.probabilities(
        np.stack([e_reps[e - 1] for e, _ in combos]),
        np.stack([c_reps[c - 1] for _, c in combos]),
        [c - e for e, c in combos],
    )
    pairs = [
        EmotionCausePair(e, emotions[e - 1], c)
        for (e, c), p in zip(combos, probs)
        if p > pairing_model.config.threshold
    ]
    unique = sorted(
        set(pairs),
        key=lambda p: (p.emotion_utterance_id, p.cause_utterance_id, int(p.emotion)),
    )
    return emotions, unique


def _random_pipeline(emotion_variant, cause_variant, seed):
    em = emotion_model(emotion_variant, hidden=5, seed=seed)
    cm = cause_model(cause_variant, hidden=5, seed=seed + 1)
    pairing = PairingModel(
        PairingModelConfig(emotion_rep_dim=em.rep_dim, cause_rep_dim=cm.rep_dim,
                           distance_dim=3, max_distance=2, rep_dropout=0.0),
        rng=np.random.default_rng(seed + 2),
    )
    return em, cm, pairing


PIPELINE_VARIANTS = [("dense", "dense"), ("bilstm", "bilstm"),
                     ("bilstm_crf", "bilstm"), ("bilstm_crf", "dense")]


def _random_dataset(rng, lengths, first_id=1):
    """Conversations of these lengths and a provider of random features for them."""
    convs = [make_conversation(first_id + k, [NEUTRAL] * T) for k, T in enumerate(lengths)]
    features = {conv.conversation_id: rng.normal(size=(len(conv.utterances), 6))
                for conv in convs}
    return Dataset(conversations=tuple(convs), split_tag="test"), StubProvider(features)


class TestOnePassPredictPairs:
    @pytest.mark.parametrize("emotion_variant,cause_variant", PIPELINE_VARIANTS)
    def test_matches_two_pass_oracle(self, emotion_variant, cause_variant):
        # predict_dataset runs each stage model once per group, here the
        # whole dataset;
        # every conversation must decode as the per-conversation oracle does
        rng = np.random.default_rng(11)
        seen = {"no_emotion": 0, "no_cause": 0, "pairs": 0}
        for seed in range(6):
            em, cm, pairing = _random_pipeline(emotion_variant, cause_variant, seed)
            # biases that make stage 1 all neutral / stage 2 reject everything
            # on some conversations, so the empty paths are compared too
            em.params["head_b"][int(NEUTRAL)] += rng.choice([0.0, 0.0, 50.0])
            cm.params["head_b"][0] += rng.choice([0.0, 0.0, -50.0])
            pairing.params["head_b"][0] += rng.normal()
            dataset, provider = _random_dataset(rng, [1, 2, 5, 9, 1, 9, 3])
            got = predict_dataset(em, cm, pairing, dataset, provider)
            assert got.split_tag == dataset.split_tag
            expected = []
            for conv in dataset.conversations:
                features = provider.conversation_features(conv)
                emotions, pairs = _oracle_predict_pairs(em, cm, pairing, features)
                expected.append(with_predictions(conv, emotions, pairs))
                seen["no_emotion"] += all(e is NEUTRAL for e in emotions)
                seen["no_cause"] += not predict(cm, features).any()
                seen["pairs"] += bool(pairs)
            assert got.conversations == tuple(expected)
        assert all(seen.values()), seen

    @settings(max_examples=12, deadline=None)
    @given(variants=st.sampled_from(PIPELINE_VARIANTS), seed=st.integers(0, 3),
           data=st.data())
    def test_subset_predicts_as_the_full_run(self, variants, seed, data):
        # a conversation's stage outputs, to the bit, and its predictions do
        # not depend on the other conversations of the file it is predicted in
        em, cm, pairing = _random_pipeline(*variants, seed)
        pairing.params["head_b"][0] += 1.0  # some pairs emitted
        lengths = [1, 2, 5, 9, 1, 9, 3, 12, 1, 7]
        dataset, provider = _random_dataset(np.random.default_rng(seed), lengths)
        picked = data.draw(st.lists(st.integers(0, len(lengths) - 1), min_size=1,
                                    max_size=len(lengths), unique=True), label="subset")
        subset = Dataset(conversations=tuple(dataset.conversations[k] for k in picked),
                         split_tag="test")
        full = predict_dataset(em, cm, pairing, dataset, provider)
        got = predict_dataset(em, cm, pairing, subset, provider)
        assert got.conversations == tuple(full.conversations[k] for k in picked)
        features, layout = packed_features(dataset.conversations, provider)
        sub_features, sub_layout = packed_features(subset.conversations, provider)
        rows = layout.slices()
        for model in (em, cm):
            scores, cache = model.forward(features, layout=layout)
            sub_scores, sub_cache = model.forward(sub_features, layout=sub_layout)
            for k, sub_rows in zip(picked, sub_layout.slices()):
                np.testing.assert_array_equal(sub_scores[sub_rows], scores[rows[k]])
                np.testing.assert_array_equal(sub_cache["head_in"][sub_rows],
                                              cache["head_in"][rows[k]])

    @pytest.mark.parametrize("emotion_variant,cause_variant", PIPELINE_VARIANTS)
    def test_empty_dataset(self, emotion_variant, cause_variant, monkeypatch):
        em, cm, pairing = _random_pipeline(emotion_variant, cause_variant, 0)
        monkeypatch.setattr(nn, "birnn_forward", None)  # must not be reached
        empty = Dataset(conversations=(), split_tag="test")
        got = predict_dataset(em, cm, pairing, empty, StubProvider({}))
        assert got.conversations == () and got.split_tag == "test"

    @pytest.mark.parametrize("emotion_variant,cause_variant", PIPELINE_VARIANTS)
    def test_one_birnn_pass_per_recurrent_model(self, emotion_variant,
                                                 cause_variant, monkeypatch):
        em, cm, pairing = _random_pipeline(emotion_variant, cause_variant, 0)
        # every utterance joy and a candidate, every pair emitted
        em.params["head_b"][int(JOY)] = 50.0
        cm.params["head_b"][0] = 50.0
        pairing.params["head_b"][0] = 50.0
        calls = []
        original = nn.birnn_forward

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(nn, "birnn_forward", counting)
        recurrent = (emotion_variant != "dense") + (cause_variant != "dense")
        rng = np.random.default_rng(3)
        for n_datasets, lengths in enumerate(([4], [4, 1], [3, 4, 2]), start=1):
            dataset, provider = _random_dataset(rng, lengths)
            predicted = predict_dataset(em, cm, pairing, dataset, provider)
            assert all(conv.gold_pairs for conv in predicted.conversations)
            assert len(calls) == recurrent * n_datasets
