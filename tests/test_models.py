import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecpe import nn
from mecpe.corpus import Emotion, EmotionCausePair
from mecpe.models import (
    CauseModel,
    CauseModelConfig,
    EmotionModel,
    EmotionModelConfig,
    ModelError,
    PairingModel,
    PairingModelConfig,
    build_pair_examples,
    candidate_pair_space,
    check_rep_compatibility,
    distance_row,
    predict_pairs,
    sample_negative_pairs,
)
from mecpe.synthetic import synthetic_conversations

from conftest import make_conversation

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
        assert len(model.predict(rng.normal(size=(1, 6)))) == 1

    def test_feature_width_mismatch(self, rng):
        model = emotion_model("dense")
        with pytest.raises(ModelError, match="width"):
            model.forward(rng.normal(size=(3, 9)))

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
        labels = model.predict(rng.normal(size=(8, 6)))
        assert all(a != b for a, b in zip(labels, labels[1:]))

    def test_predict_deterministic(self, rng):
        x = rng.normal(size=(5, 6))
        for variant in ("dense", "bilstm", "bilstm_crf"):
            model = emotion_model(variant)
            assert model.predict(x) == model.predict(x)

    def test_marginal_decode_flag(self, rng):
        model = emotion_model("bilstm_crf", crf_decode="marginal")
        labels = model.predict(rng.normal(size=(4, 6)))
        assert len(labels) == 4

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
        opt = nn.AdamW(model.params, nn.AdamWConfig(lr=0.01))
        first = last = None
        for step in range(50):
            feats, labels = items[step % len(items)]
            loss, grads = model.loss_and_grads(feats, labels, weights)
            opt.step(model.params, grads)
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


class TestCauseModel:
    def test_threshold_is_strict(self):
        model = cause_model("dense")
        model.params["head_W"][...] = 0.0
        model.params["head_b"][...] = 0.0
        x = np.random.default_rng(0).normal(size=(4, 6))
        assert np.all(model.probabilities(x) == 0.5)
        assert model.predict(x).tolist() == [0, 0, 0, 0]

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
        reps = model.representations(x)
        assert reps.shape == (4, model.rep_dim)
        scores, _ = model.forward(x)
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


class TestNegativeSampling:
    def test_exact_ratio(self):
        gold = [EmotionCausePair(2, JOY, 2), EmotionCausePair(4, JOY, 4)]
        space = [(e, c) for e in (2, 4) for c in range(1, 11) if (e, c) not in {(2, 2), (4, 4)}]
        negatives = sample_negative_pairs(gold, space, ratio=5, seed=0)
        assert len(negatives) == 10

    def test_exhaustion(self):
        gold = [EmotionCausePair(1, JOY, 1)]
        space = [(1, 2), (1, 3), (1, 4)]
        assert len(sample_negative_pairs(gold, space, ratio=5, seed=0)) == 3

    def test_seed_reproducible(self):
        gold = [EmotionCausePair(2, JOY, 2)]
        space = [(2, c) for c in range(1, 30) if c != 2]
        a = sample_negative_pairs(gold, space, ratio=5, seed=7)
        b = sample_negative_pairs(gold, space, ratio=5, seed=7)
        assert a == b

    def test_never_returns_gold(self):
        gold = [EmotionCausePair(2, JOY, 2)]
        space = [(2, c) for c in range(1, 10)]  # deliberately includes the gold key
        negatives = sample_negative_pairs(gold, space, ratio=50, seed=3)
        assert (2, 2) not in negatives

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_examples_from_random_conversations(self, seed):
        data = synthetic_conversations(3, seed=seed, neutral_prob=0.4)
        for conv in data.conversations:
            examples = build_pair_examples(conv, ratio=5, seed=seed)
            gold = {(p.emotion_utterance_id, p.cause_utterance_id)
                    for p in conv.gold_pairs}
            positives = [e for e in examples if e.label == 1]
            negatives = [e for e in examples if e.label == 0]
            assert {(e.emotion_utterance_id, e.cause_utterance_id)
                    for e in positives} == gold
            neg_keys = {(e.emotion_utterance_id, e.cause_utterance_id)
                        for e in negatives}
            assert not (neg_keys & gold)
            assert len(neg_keys) == len(negatives)  # no duplicates
            space = len(candidate_pair_space(conv))
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
        emotions, pairs = predict_pairs(em, cm, pairing, rng.normal(size=(4, 6)))
        assert pairs == []
        assert all(e is NEUTRAL for e in emotions)

    def test_no_candidate_causes_no_pairs(self, rng):
        em, cm = self._rigged_stages()
        em.params["head_b"][int(JOY)] = 10.0
        cm.params["head_b"][0] = -10.0
        pairing = rigged_pairing(6)
        _, pairs = predict_pairs(em, cm, pairing, rng.normal(size=(4, 6)))
        assert pairs == []

    def test_threshold_selects_pairs(self, rng):
        # all utterances joy+candidate; pairing accepts only distance 0
        em, cm = self._rigged_stages()
        em.params["head_b"][int(JOY)] = 10.0
        cm.params["head_b"][0] = 10.0
        pairing = rigged_pairing(6, accept_distance=0)
        features = rng.normal(size=(3, 6))
        emotions, pairs = predict_pairs(em, cm, pairing, features)
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
            emotions, pairs = predict_pairs(em, cm, pairing, features)
            cause_flags = cm.predict(features)
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
            predict_pairs(em, cm, pairing, rng.normal(size=(2, 6)))

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
    return nn.birnn_forward(cfg.stack(), rnn_params, x)[0]


def _oracle_predict_pairs(emotion_model, cause_model, pairing_model, features):
    """The original two-pass composition, kept as the reference."""
    emotions = [Emotion(k) for k in emotion_model.predict(features)]
    cause_flags = cause_model.predict(features)
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


class TestOnePassPredictPairs:
    @pytest.mark.parametrize("emotion_variant,cause_variant", PIPELINE_VARIANTS)
    def test_matches_two_pass_oracle(self, emotion_variant, cause_variant):
        rng = np.random.default_rng(11)
        seen = {"no_emotion": 0, "no_cause": 0, "pairs": 0}
        for seed in range(6):
            em, cm, pairing = _random_pipeline(emotion_variant, cause_variant, seed)
            # biases that make stage 1 all neutral / stage 2 reject everything
            # on some conversations, so the empty paths are compared too
            em.params["head_b"][int(NEUTRAL)] += rng.choice([0.0, 0.0, 50.0])
            cm.params["head_b"][0] += rng.choice([0.0, 0.0, -50.0])
            pairing.params["head_b"][0] += rng.normal()
            for T in (1, 2, 5, 9):
                features = rng.normal(size=(T, 6))
                got = predict_pairs(em, cm, pairing, features)
                assert got == _oracle_predict_pairs(em, cm, pairing, features)
                emotions, pairs = got
                seen["no_emotion"] += all(e is NEUTRAL for e in emotions)
                seen["no_cause"] += not cm.predict(features).any()
                seen["pairs"] += bool(pairs)
        assert all(seen.values()), seen

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
        for n_conversations in range(1, 4):
            features = rng.normal(size=(4, 6))
            predict_pairs(em, cm, pairing, features)
            assert len(calls) == recurrent * n_conversations
