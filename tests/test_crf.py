import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mecpe import nn
from mecpe.crf import (
    crf_init,
    crf_loss_and_gradients,
    forward_backward,
    log_partition,
    sequence_score,
    viterbi_decode,
)

from conftest import viterbi_decode_oracle


def crf_params(transitions, start_scores, end_scores) -> dict:
    """The parameter dict ``crf`` takes, of these arrays."""
    return {"transitions": transitions, "start_scores": start_scores, "end_scores": end_scores}


# -- independent oracles: explicit enumeration over all K^T labelings --------

def brute_score(emissions, params, labels):
    total = params["start_scores"][labels[0]] + params["end_scores"][labels[-1]]
    for t, y in enumerate(labels):
        total += emissions[t][y]
    for a, b in zip(labels, labels[1:]):
        total += params["transitions"][a][b]
    return float(total)


def brute_log_partition(emissions, params):
    T, K = np.asarray(emissions).shape
    scores = [brute_score(emissions, params, labels)
              for labels in itertools.product(range(K), repeat=T)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_viterbi(emissions, params):
    T, K = np.asarray(emissions).shape
    best, best_score = None, -np.inf
    for labels in itertools.product(range(K), repeat=T):
        s = brute_score(emissions, params, labels)
        # mirror the decoder's backtrack rule: minimize labels from the end
        if s > best_score or (s == best_score and tuple(reversed(labels)) < tuple(reversed(best))):
            best, best_score = labels, s
    return list(best), best_score


def random_instance(rng, T=None, K=None):
    T = T if T is not None else int(rng.integers(1, 5))
    K = K if K is not None else int(rng.integers(2, 4))
    return rng.normal(size=(T, K)), crf_params(
        transitions=rng.normal(size=(K, K)),
        start_scores=rng.normal(size=K),
        end_scores=rng.normal(size=K),
    )


class TestSequenceScore:
    def test_single_step(self):
        params = crf_params(np.array([[9.0]]), np.array([0.5]), np.array([0.25]))
        emissions = np.array([[2.0]])
        assert sequence_score(emissions, params, [0]) == 0.5 + 2.0 + 0.25

    def test_all_zero_params(self):
        params = crf_init(3)
        emissions = np.zeros((4, 3))
        for labels in itertools.product(range(3), repeat=4):
            assert sequence_score(emissions, params, list(labels)) == 0.0

    def test_hand_summed(self):
        emissions = np.array([[1.0, 2.0], [3.0, 4.0]])
        params = crf_params(
            transitions=np.array([[0.5, -1.0], [2.0, 0.0]]),
            start_scores=np.array([0.1, 0.2]),
            end_scores=np.array([0.3, 0.4]),
        )
        # start[0] + e[0,0] + trans[0,1] + e[1,1] + end[1]
        expected = 0.1 + 1.0 + (-1.0) + 4.0 + 0.4
        assert sequence_score(emissions, params, [0, 1]) == pytest.approx(expected, abs=1e-15)

    def test_label_out_of_range(self):
        params = crf_init(2)
        with pytest.raises(ValueError, match="out of range"):
            sequence_score(np.zeros((2, 2)), params, [0, 2])

    def test_wrong_length(self):
        params = crf_init(2)
        with pytest.raises(ValueError, match="expected 2 labels"):
            sequence_score(np.zeros((2, 2)), params, [0])


class TestLogPartition:
    def test_uniform_single_step(self):
        assert log_partition(np.zeros((1, 7)), crf_init(7)) == pytest.approx(
            math.log(7.0), rel=1e-15)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            emissions, params = random_instance(rng)
            assert log_partition(emissions, params) == pytest.approx(
                brute_log_partition(emissions, params), abs=1e-8)

    def test_emission_shift_identity(self):
        rng = np.random.default_rng(1)
        emissions, params = random_instance(rng, T=4, K=3)
        base = log_partition(emissions, params)
        shifted = log_partition(emissions + 2.5, params)
        assert shifted == pytest.approx(base + 4 * 2.5, rel=1e-12)

    def test_long_sequence_stays_finite(self):
        rng = np.random.default_rng(2)
        emissions = rng.normal(size=(500, 7)) * 30
        params = crf_params(rng.normal(size=(7, 7)) * 30, rng.normal(size=7),
                            rng.normal(size=7))
        assert np.isfinite(log_partition(emissions, params))


class TestNLL:
    def test_single_label_chain_zero(self):
        params = crf_init(1)
        emissions = np.random.default_rng(3).normal(size=(5, 1))
        loss = crf_loss_and_gradients(emissions, params, [0] * 5)[0]
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_nll(self):
        assert crf_loss_and_gradients(np.zeros((3, 7)), crf_init(7), [2, 5, 0])[0] == (
            pytest.approx(3 * math.log(7.0), rel=1e-12))

    def test_peaked_instance_near_zero(self):
        emissions = np.full((4, 3), -50.0)
        gold = [0, 2, 1, 0]
        for t, y in enumerate(gold):
            emissions[t, y] = 50.0
        assert crf_loss_and_gradients(emissions, crf_init(3), gold)[0] < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        emissions, params = random_instance(rng)
        gold = rng.integers(0, emissions.shape[1], size=emissions.shape[0])
        assert crf_loss_and_gradients(emissions, params, gold)[0] >= 0.0

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        emissions, params = random_instance(rng, T=3, K=3)
        log_z = log_partition(emissions, params)
        total = sum(
            math.exp(brute_score(emissions, params, labels) - log_z)
            for labels in itertools.product(range(3), repeat=3)
        )
        assert total == pytest.approx(1.0, rel=1e-10)


class TestViterbi:
    def test_zero_transitions_decouple_steps(self):
        rng = np.random.default_rng(5)
        K = 4
        emissions = rng.normal(size=(6, K))
        params = crf_params(np.zeros((K, K)), rng.normal(size=K), rng.normal(size=K))
        labels, _ = viterbi_decode(emissions, params)
        per_step = emissions.copy()
        per_step[0] += params["start_scores"]
        per_step[-1] += params["end_scores"]
        assert labels == [int(np.argmax(row)) for row in per_step]

    def test_matches_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(60):
            emissions, params = random_instance(rng)
            labels, score = viterbi_decode(emissions, params)
            ref_labels, ref_score = brute_viterbi(emissions, params)
            assert labels == ref_labels
            assert score == pytest.approx(ref_score, abs=1e-8)
            assert score == pytest.approx(
                sequence_score(emissions, params, labels), abs=1e-10)

    def test_score_dominates_any_labeling(self):
        rng = np.random.default_rng(7)
        emissions, params = random_instance(rng, T=4, K=3)
        _, score = viterbi_decode(emissions, params)
        for labels in itertools.product(range(3), repeat=4):
            assert score >= sequence_score(emissions, params, list(labels)) - 1e-10

    def test_forbidden_self_transition(self):
        rng = np.random.default_rng(8)
        K = 3
        emissions = rng.normal(size=(8, K))
        transitions = rng.normal(size=(K, K))
        np.fill_diagonal(transitions, -1e9)
        params = crf_params(transitions, np.zeros(K), np.zeros(K))
        labels, _ = viterbi_decode(emissions, params)
        assert all(a != b for a, b in zip(labels, labels[1:]))

    def test_tie_break_lowest_index(self):
        # every labeling scores 0: the decoder must return all zeros
        labels, score = viterbi_decode(np.zeros((4, 3)), crf_init(3))
        assert labels == [0, 0, 0, 0]
        assert score == 0.0

    def test_tie_break_matches_oracle_on_integer_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            T, K = int(rng.integers(1, 4)), int(rng.integers(2, 4))
            emissions = rng.integers(-1, 2, size=(T, K)).astype(float)
            params = crf_params(
                rng.integers(-1, 2, size=(K, K)).astype(float),
                rng.integers(-1, 2, size=K).astype(float),
                rng.integers(-1, 2, size=K).astype(float),
            )
            assert viterbi_decode(emissions, params)[0] == brute_viterbi(emissions, params)[0]


class TestPackedViterbi:
    """``viterbi_decode`` over an ``nn.PackedLayout`` decodes every sequence in
    one pass; each must come out as the per-sequence decoder has it."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), lengths=st.lists(st.integers(1, 20), min_size=1, max_size=6),
           K=st.integers(1, 4))
    def test_matches_per_sequence_oracle_and_brute_force(self, data, lengths, K):
        # small integers make ties common: the lowest-index rule must hold per sequence
        small = st.integers(-2, 2).map(float)
        emissions = data.draw(arrays(np.float64, (sum(lengths), K), elements=small))
        params = crf_params(*(data.draw(arrays(np.float64, shape, elements=small))
                              for shape in ((K, K), (K,), (K,))))
        layout = nn.pack_sequences(lengths)
        labels = viterbi_decode(emissions, params, layout)
        assert labels.dtype == np.int64 and labels.shape == (sum(lengths),)
        for k, rows in enumerate(layout.slices()):
            ref_labels, ref_score = viterbi_decode_oracle(emissions[rows], params)
            assert labels[rows].tolist() == ref_labels
            assert viterbi_decode(emissions[rows], params) == (ref_labels, ref_score)
            if K ** lengths[k] <= 256:
                assert ref_labels == brute_viterbi(emissions[rows], params)[0]

    def test_layout_of_one_is_the_single_sequence(self):
        rng = np.random.default_rng(16)
        emissions, params = random_instance(rng, T=6, K=3)
        labels = viterbi_decode(emissions, params, nn.pack_sequences([6]))
        assert labels.tolist() == viterbi_decode(emissions, params)[0]


class TestGradients:
    def test_emission_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(11)
        emissions, params = random_instance(rng, T=5, K=3)
        gold = rng.integers(0, 3, size=5)
        _, d_emissions, _ = crf_loss_and_gradients(emissions, params, gold)
        np.testing.assert_allclose(d_emissions.sum(axis=1), np.zeros(5), atol=1e-12)

    def test_single_label_chain_zero_gradients(self):
        emissions = np.random.default_rng(12).normal(size=(4, 1))
        _, d_emissions, d_params = crf_loss_and_gradients(emissions, crf_init(1), [0, 0, 0, 0])
        np.testing.assert_allclose(d_emissions, 0.0, atol=1e-12)
        for v in d_params.values():
            np.testing.assert_allclose(v, 0.0, atol=1e-12)

    def test_node_marginals_match_enumeration(self):
        rng = np.random.default_rng(13)
        emissions, params = random_instance(rng, T=3, K=3)
        node, edge, log_z = forward_backward(emissions, params)
        T, K = emissions.shape
        ref = np.zeros((T, K))
        ref_edge = np.zeros((T - 1, K, K))
        for labels in itertools.product(range(K), repeat=T):
            p = math.exp(brute_score(emissions, params, labels) - log_z)
            for t, y in enumerate(labels):
                ref[t, y] += p
            for t in range(T - 1):
                ref_edge[t, labels[t], labels[t + 1]] += p
        np.testing.assert_allclose(node, ref, atol=1e-10)
        np.testing.assert_allclose(edge, ref_edge, atol=1e-10)

    def test_gradcheck(self):
        rng = np.random.default_rng(14)
        emissions, params = random_instance(rng, T=4, K=3)
        gold = rng.integers(0, 3, size=4)
        tree = {
            "emissions": emissions,
            "transitions": params["transitions"],
            "start_scores": params["start_scores"],
            "end_scores": params["end_scores"],
        }

        def fn(p):
            loss, d_em, d_crf = crf_loss_and_gradients(p["emissions"], p, gold)
            return loss, {"emissions": d_em, **d_crf}

        assert nn.gradcheck(fn, tree, epsilon=1e-5) < 1e-6
