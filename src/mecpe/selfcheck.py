"""Built-in verification: CRF brute-force oracles, finite-difference gradient
checks for every loss path, the hand-computed metric fixtures and a check
that a stage model's forward-only rows do not depend on their batch or on the
helper thread.  A green selfcheck is the documented precondition for trusting
any training run.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import crf as crf_mod
from . import nn
from .checkpoint import STAGE_MODELS
from .corpus import N_EMOTIONS, Emotion, EmotionCausePair
from .metrics import pair_metrics, stage_metrics
from .models import PairingModel, PairingModelConfig


def enumerate_crf(emissions, params: dict):
    """Brute force over all K^T labelings, each scored once: (log Z, the best
    labeling, its score).  Ties go to the smallest reversed label tuple,
    matching Viterbi's lowest-index backtrack rule."""
    T, K = np.asarray(emissions).shape
    labelings = list(itertools.product(range(K), repeat=T))
    scores = np.array([crf_mod.sequence_score(emissions, params, y) for y in labelings])
    m = float(scores.max())
    best = min((y for y, s in zip(labelings, scores) if s == m), key=lambda y: y[::-1])
    return m + float(np.log(np.sum(np.exp(scores - m)))), list(best), m


def crf_oracle_check(n_instances=200, seed=0, tol=1e-8):
    """Compare forward_backward's log Z and viterbi_decode against enumeration."""
    rng = np.random.default_rng(seed)
    worst_lp = 0.0
    worst_vs = 0.0
    for _ in range(n_instances):
        T = int(rng.integers(1, 5))
        K = int(rng.integers(2, 4))
        emissions = rng.normal(size=(T, K))
        params = {"transitions": rng.normal(size=(K, K)), "start_scores": rng.normal(size=K),
                  "end_scores": rng.normal(size=K)}
        ref_lp, ref_labels, ref_score = enumerate_crf(emissions, params)
        worst_lp = max(worst_lp, abs(crf_mod.forward_backward(emissions, params)[2] - ref_lp))
        labels, score = crf_mod.viterbi_decode(emissions, params)
        worst_vs = max(worst_vs, abs(score - ref_score))
        if labels != ref_labels:
            return False, f"viterbi labels {labels} != oracle {ref_labels}"
    ok = worst_lp < tol and worst_vs < tol
    return ok, f"max |logZ err|={worst_lp:.2e}, max |viterbi score err|={worst_vs:.2e}"


def _crf_loss_fn(gold):
    def fn(params):
        loss, d_em, d_crf = crf_mod.crf_loss_and_gradients(params["emissions"], params, gold)
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
    model_cls, config_cls = STAGE_MODELS[stage]
    model = model_cls(
        config_cls(
            variant=variant, input_dim=input_dim, hidden_size=hidden,
            n_layers=layers, embedding_dropout=0.0, inter_layer_dropout=0.0,
        ),
        rng=rng,
    )
    features = rng.normal(size=(T, input_dim))
    labels = rng.integers(0, N_EMOTIONS if stage == "emotion" else 2, size=T)
    weights = (rng.uniform(0.5, 2.0, size=N_EMOTIONS),) if stage == "emotion" else ()
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


def batch_invariance_check(hidden_sizes=(48, 256), conversations=40, alone=4, input_dim=32,
                           seed=0):
    """Runs a 2-layer bilstm emotion model at each hidden size over
    ``conversations`` conversations (one of length 1, the others 5 to 15
    long) packed in one pass, and the first ``alone`` of them each alone,
    with the helper thread on and off (``nn.LSTM_THREADS_MIN`` at 0 and
    infinity for the check, each model built under the real rule, as
    ``mecpe train`` builds it); passes iff every conversation's scores and
    representations match the serial packed pass bit for bit.  A pass of
    ~400 rows lets a BLAS that rounds a product's rows by its row count show
    (scipy-openblas 0.3.31 does at every odd hidden size from 19 to 69)."""
    rng = np.random.default_rng(seed)
    model_cls, config_cls = STAGE_MODELS["emotion"]
    lengths = [1] + rng.integers(5, 16, size=conversations - 1).tolist()
    layout = nn.pack_sequences(lengths)
    rule = nn.LSTM_THREADS_MIN
    try:
        for hidden in hidden_sizes:
            nn.LSTM_THREADS_MIN = rule
            model = model_cls(config_cls(variant="bilstm", input_dim=input_dim,
                                         hidden_size=hidden, n_layers=2), rng=rng)
            features = rng.normal(size=(layout.n_rows, input_dim))
            reference = None
            for helper, threads_min in (("off", math.inf), ("on", 0)):
                nn.LSTM_THREADS_MIN = threads_min
                scores, cache = model.forward(features, layout=layout)
                runs = [("packed", k, scores[rows], cache["head_in"][rows])
                        for k, rows in enumerate(layout.slices())]
                if reference is None:
                    reference = {k: (s.tobytes(), rep.tobytes()) for _, k, s, rep in runs}
                for k, rows in enumerate(layout.slices()[:alone]):
                    scores, cache = model.forward(features[rows],
                                                  layout=nn.pack_sequences([lengths[k]]))
                    runs.append(("alone", k, scores, cache["head_in"]))
                for how, k, scores, rep in runs:
                    if (scores.tobytes(), rep.tobytes()) != reference[k]:
                        return False, (f"H {hidden}: conversation {k} {how} with the helper"
                                       f" {helper} differs from the serial packed pass")
    finally:
        nn.LSTM_THREADS_MIN = rule
    helper = "helper on and off" if nn._helper() is not None else "no helper (one usable CPU)"
    return True, (f"H {', '.join(map(str, hidden_sizes))}: {layout.n_rows} rows of"
                  f" {conversations} conversations packed, {alone} of them alone, {helper},"
                  f" every row bitwise equal")


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


def run_selfcheck(hidden_size: int) -> list[dict]:
    """All verification checks; each record has check/passed/detail.  Batch
    invariance is checked at the configured ``hidden_size`` as well as at H
    48 and 256."""
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

    ok, detail = batch_invariance_check(tuple(sorted({48, 256, hidden_size})))
    records.append({"check": "batch_invariance", "passed": ok, "detail": detail})
    return records
