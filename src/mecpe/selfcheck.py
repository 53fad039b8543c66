"""Built-in verification: CRF brute-force oracles, finite-difference gradient
checks for every loss path, and the hand-computed metric fixtures.  A green
selfcheck is the documented precondition for trusting any training run.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import crf as crf_mod
from . import nn
from .corpus import Emotion, EmotionCausePair
from .metrics import pair_metrics, stage_metrics
from .models import (
    CauseModel,
    CauseModelConfig,
    EmotionModel,
    EmotionModelConfig,
    PairingModel,
    PairingModelConfig,
)


def enumerate_log_partition(emissions, params: crf_mod.CRFParams) -> float:
    """Log-sum-exp of sequence_score over all K^T labelings (brute force)."""
    T, K = np.asarray(emissions).shape
    scores = [
        crf_mod.sequence_score(emissions, params, labels)
        for labels in itertools.product(range(K), repeat=T)
    ]
    m = max(scores)
    return m + float(np.log(np.sum(np.exp(np.asarray(scores) - m))))


def enumerate_viterbi(emissions, params: crf_mod.CRFParams):
    """Exhaustive argmax; ties resolved by minimizing the reversed label tuple,
    matching Viterbi's lowest-index backtrack rule."""
    T, K = np.asarray(emissions).shape
    best_labels, best_score = None, -np.inf
    for labels in itertools.product(range(K), repeat=T):
        s = crf_mod.sequence_score(emissions, params, labels)
        if s > best_score or (
            s == best_score and tuple(reversed(labels)) < tuple(reversed(best_labels))
        ):
            best_labels, best_score = labels, s
    return list(best_labels), best_score


def crf_oracle_check(n_instances=200, seed=0, tol=1e-8):
    """Compare log_partition and viterbi_decode against enumeration."""
    rng = np.random.default_rng(seed)
    worst_lp = 0.0
    worst_vs = 0.0
    for _ in range(n_instances):
        T = int(rng.integers(1, 5))
        K = int(rng.integers(2, 4))
        emissions = rng.normal(size=(T, K))
        params = crf_mod.CRFParams(
            transitions=rng.normal(size=(K, K)),
            start_scores=rng.normal(size=K),
            end_scores=rng.normal(size=K),
        )
        lp = crf_mod.log_partition(emissions, params)
        worst_lp = max(worst_lp, abs(lp - enumerate_log_partition(emissions, params)))
        labels, score = crf_mod.viterbi_decode(emissions, params)
        ref_labels, ref_score = enumerate_viterbi(emissions, params)
        worst_vs = max(worst_vs, abs(score - ref_score))
        if labels != ref_labels:
            return False, f"viterbi labels {labels} != oracle {ref_labels}"
    ok = worst_lp < tol and worst_vs < tol
    return ok, f"max |logZ err|={worst_lp:.2e}, max |viterbi score err|={worst_vs:.2e}"


def _crf_loss_fn(gold):
    def fn(params):
        crf_params = crf_mod.CRFParams(
            transitions=params["transitions"],
            start_scores=params["start_scores"],
            end_scores=params["end_scores"],
        )
        loss = crf_mod.crf_nll(params["emissions"], crf_params, gold)
        d_em, d_crf = crf_mod.crf_gradients(params["emissions"], crf_params, gold)
        return loss, {"emissions": d_em, **d_crf}
    return fn


def crf_gradcheck(seed=0, T=4, K=3, epsilon=1e-5) -> float:
    rng = np.random.default_rng(seed)
    params = {
        "emissions": rng.normal(size=(T, K)),
        "transitions": rng.normal(size=(K, K)),
        "start_scores": rng.normal(size=K),
        "end_scores": rng.normal(size=K),
    }
    gold = rng.integers(0, K, size=T)
    return nn.gradcheck(_crf_loss_fn(gold), params, epsilon=epsilon)


def stage_gradcheck(stage, variant="dense", T=4, input_dim=5, hidden=4, layers=2,
                    seed=0, epsilon=1e-5) -> float:
    """Gradient check of an emotion (with random class weights) or cause model."""
    rng = np.random.default_rng(seed)
    model_cls, config_cls = {"emotion": (EmotionModel, EmotionModelConfig),
                             "cause": (CauseModel, CauseModelConfig)}[stage]
    model = model_cls(
        config_cls(
            variant=variant, input_dim=input_dim, hidden_size=hidden,
            n_layers=layers, embedding_dropout=0.0, inter_layer_dropout=0.0,
        ),
        rng=rng,
    )
    features = rng.normal(size=(T, input_dim))
    labels = rng.integers(0, 7 if stage == "emotion" else 2, size=T)
    weights = (rng.uniform(0.5, 2.0, size=7),) if stage == "emotion" else ()
    fn = lambda p: model.loss_and_grads(features, labels, *weights)
    return nn.gradcheck(fn, model.params, epsilon=epsilon)


def pairing_gradcheck(n=6, rep_dim=4, seed=0, epsilon=1e-5) -> float:
    rng = np.random.default_rng(seed)
    model = PairingModel(
        PairingModelConfig(
            emotion_rep_dim=rep_dim, cause_rep_dim=rep_dim, distance_dim=3,
            max_distance=2, rep_dropout=0.0,
        ),
        rng=rng,
    )
    E = rng.normal(size=(n, rep_dim))
    C = rng.normal(size=(n, rep_dim))
    d = rng.integers(-4, 5, size=n)
    y = rng.integers(0, 2, size=n)
    fn = lambda p: model.loss_and_grads(E, C, d, y)
    return nn.gradcheck(fn, model.params, epsilon=epsilon)


def metric_fixture_check():
    stage = stage_metrics([0, 1, 1, 1], [0, 0, 1, 1], n_classes=2)
    expect = 0.5 * (2.0 / 3.0) + 0.5 * 0.8
    if abs(stage.weighted_f1 - expect) > 1e-12:
        return False, f"stage weighted F1 {stage.weighted_f1} != {expect}"
    gold = {
        1: [
            EmotionCausePair(3, Emotion.JOY, 2),
            EmotionCausePair(3, Emotion.JOY, 3),
            EmotionCausePair(5, Emotion.ANGER, 5),
        ]
    }
    predicted = {
        1: [EmotionCausePair(3, Emotion.JOY, 2), EmotionCausePair(5, Emotion.ANGER, 4)]
    }
    pm = pair_metrics(predicted, gold)
    if abs(pm.weighted_f1 - 4.0 / 9.0) > 1e-12:
        return False, f"pair weighted F1 {pm.weighted_f1} != 4/9"
    if abs(pm.macro_f1 - 1.0 / 3.0) > 1e-12:
        return False, f"pair macro F1 {pm.macro_f1} != 1/3"
    identity = pair_metrics(gold, gold)
    if identity.weighted_f1 != 1.0 or identity.macro_f1 != 1.0:
        return False, "gold-vs-gold pair metrics not 1.0"
    return True, "stage 0.7333…, pair 4/9 and 1/3, gold-vs-gold 1.0"


def run_selfcheck() -> list[dict]:
    """All verification checks; each record has check/passed/detail."""
    records = []

    ok, detail = crf_oracle_check(n_instances=100, seed=7)
    records.append({"check": "crf_oracle_equivalence", "passed": ok, "detail": detail})

    for name, err, tol in [
        ("gradcheck_weighted_ce_head", stage_gradcheck("emotion"), 1e-4),
        ("gradcheck_bce_head", stage_gradcheck("cause"), 1e-4),
        ("gradcheck_pairing_head", pairing_gradcheck(), 1e-4),
        ("gradcheck_bilstm_emotion",
         stage_gradcheck("emotion", "bilstm", T=3, hidden=3, epsilon=1e-4), 1e-4),
        ("gradcheck_bilstm_crf_emotion",
         stage_gradcheck("emotion", "bilstm_crf", T=3, hidden=3, epsilon=1e-4), 1e-4),
        ("gradcheck_bilstm_cause",
         stage_gradcheck("cause", "bilstm", T=3, hidden=3, epsilon=1e-4), 1e-4),
        ("gradcheck_crf", crf_gradcheck(), 1e-6),
    ]:
        records.append({
            "check": name,
            "passed": bool(err < tol),
            "detail": f"max relative error {err:.3e} (tolerance {tol:.0e})",
        })

    ok, detail = metric_fixture_check()
    records.append({"check": "metric_fixtures", "passed": ok, "detail": detail})
    return records
