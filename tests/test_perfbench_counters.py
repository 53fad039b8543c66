"""The benchmark's per-layer counters read package calls through the tracer's
wrappers (``TRACE_TARGETS`` and ``TRACE_HOOKS`` in ``perfbench/workloads.py``).
This checks, on a small predict and an emotion validation, the call contracts
those counters assume: one ``predict_pairs`` per conversation whose pairs are
the output's, ``PairingModel.probabilities`` rows that are the scored grids,
and one ``viterbi_decode`` per group of conversations (``packed_groups``)."""

import importlib
import os

import numpy as np
import pytest

from mecpe import embeddings, models, training
from mecpe.corpus import NEUTRAL, emotion_label_vector
from mecpe.models import (
    CauseModel,
    CauseModelConfig,
    EmotionModel,
    EmotionModelConfig,
    PairingModel,
    PairingModelConfig,
    packed_groups,
)
from mecpe.synthetic import synthetic_conversations

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def desk_pipeline(input_dim):
    """Untrained bilstm_crf emotion, bilstm cause and pairing models."""
    stage = dict(input_dim=input_dim, hidden_size=6, n_layers=2,
                 embedding_dropout=0.0, inter_layer_dropout=0.0)
    em = EmotionModel(EmotionModelConfig(variant="bilstm_crf", **stage),
                      rng=np.random.default_rng(1))
    cm = CauseModel(CauseModelConfig(variant="bilstm", **stage), rng=np.random.default_rng(2))
    cm.params["head_b"][0] = 0.3  # about half the utterances candidates
    pairing = PairingModel(
        PairingModelConfig(emotion_rep_dim=em.rep_dim, cause_rep_dim=cm.rep_dim,
                           distance_dim=4, max_distance=3, rep_dropout=0.0),
        rng=np.random.default_rng(3))
    return em, cm, pairing


def test_predict_and_validation_call_contracts(perfbench):
    workloads, tracing = perfbench
    data = synthetic_conversations(12, seed=4, neutral_prob=0.3)
    provider = embeddings.synthetic_provider(2, (6, 2, 2), data)
    em, cm, pairing = desk_pipeline(provider.feature_dim)
    tracer = tracing.Tracer(scopes=workloads.BENCH_SCOPES)
    tracer.install(workloads.TRACE_TARGETS, workloads.TRACE_HOOKS)
    try:
        assert tracer.missing == []
        with tracer.span("bench.predict"):
            predicted = models.predict_dataset(em, cm, pairing, data, provider)
        predict_calls = tracer.calls.copy()
        groups = list(packed_groups(data.conversations, provider))
        gold = np.concatenate([emotion_label_vector(c) for c in data.conversations])
        training.evaluate_emotion(em, groups, gold)
        validation_calls = tracer.calls - predict_calls
        with tracer.paused():
            flags = [cm.decode(cm.forward(provider.conversation_features(c))[0])
                     for c in data.conversations]
    finally:
        tracer.uninstall()
    n_convs = len(data.conversations)
    assert predict_calls["models.predict_dataset"] == 1
    assert predict_calls["models.predict_pairs"] == n_convs
    assert predict_calls["crf.viterbi_decode"] == 1
    assert validation_calls["crf.viterbi_decode"] == 1
    emitted = sum(len(conv.gold_pairs) for conv in predicted.conversations)
    grids = sum(
        sum(u.gold_emotion is not NEUTRAL for u in conv.utterances) * int(f.sum())
        for conv, f in zip(predicted.conversations, flags))
    assert tracer.counts["pairs_emitted"] == emitted
    assert tracer.counts["pairs_scored"] == grids
    assert 0 < emitted < grids
