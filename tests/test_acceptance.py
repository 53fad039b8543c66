"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest

from mecpe import nn
from mecpe.cli import main as cli_main
from mecpe.config import EmbeddingSettings, ExperimentConfig
from mecpe.corpus import (
    EMOTIONS,
    Emotion,
    EmotionCausePair,
    emotion_class_weights,
    save_dataset,
    split_train_val,
)
from mecpe.crf import crf_loss_and_gradients, log_partition, sequence_score, viterbi_decode
from mecpe.metrics import pair_metrics, pairs_by_conversation, stage_metrics
from mecpe.models import (
    CauseModel,
    CauseModelConfig,
    EmotionModel,
    EmotionModelConfig,
    PairingModel,
    PairingModelConfig,
    build_pair_examples,
    predict_dataset,
)
from mecpe.synthetic import synthetic_conversations
from mecpe.training import (
    make_cause_model,
    make_emotion_model,
    make_pairing_model,
    make_provider,
    train_cause_stage,
    train_emotion_stage,
    train_pairing_stage,
)

from conftest import (candidate_pair_space_oracle, make_conversation, make_dataset,
                      weighted_cross_entropy)


def report(criterion: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


# -- criterion 1: CRF oracle equivalence -------------------------------------

def brute_force_scores(emissions, params):
    T, K = emissions.shape
    return {
        labels: sequence_score(emissions, params, list(labels))
        for labels in itertools.product(range(K), repeat=T)
    }


def test_criterion_1_crf_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    n_instances = 200
    worst_lp = worst_vit = 0.0
    for _ in range(n_instances):
        T = int(rng.integers(1, 5))
        K = int(rng.integers(2, 4))
        emissions = rng.normal(size=(T, K))
        params = {"transitions": rng.normal(size=(K, K)), "start_scores": rng.normal(size=K),
                  "end_scores": rng.normal(size=K)}
        scores = brute_force_scores(emissions, params)
        values = np.array(list(scores.values()))
        m = values.max()
        oracle_lp = m + math.log(np.exp(values - m).sum())
        worst_lp = max(worst_lp, abs(log_partition(emissions, params) - oracle_lp))
        labels, score = viterbi_decode(emissions, params)
        # oracle argmax with the declared tie-break (minimize labels from the end)
        best = min(
            (l for l, s in scores.items() if s == values.max()),
            key=lambda l: tuple(reversed(l)),
        )
        worst_vit = max(worst_vit, abs(score - scores[best]))
        assert list(best) == labels, f"viterbi {labels} != oracle {list(best)}"
    elapsed = time.perf_counter() - t0
    passed = worst_lp < 1e-8 and worst_vit < 1e-8 and elapsed < 10.0
    report("1 crf-oracle", passed,
           f"{n_instances} instances, max logZ err {worst_lp:.2e},"
           f" max viterbi err {worst_vit:.2e}, {elapsed:.1f}s")


# -- criterion 2: gradient checks ---------------------------------------------

def test_criterion_2_gradient_checks():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    results = {}

    dense_em = EmotionModel(
        EmotionModelConfig(variant="dense", input_dim=6, embedding_dropout=0.0),
        rng=rng)
    x = rng.normal(size=(5, 6))
    labels = rng.integers(0, 7, size=5)
    weights = rng.uniform(0.5, 2.0, size=7)
    results["weighted_ce_head"] = nn.gradcheck(
        lambda p: dense_em.loss_and_grads(x, labels, weights), dense_em.params,
        epsilon=1e-5)

    dense_cm = CauseModel(
        CauseModelConfig(variant="dense", input_dim=6, embedding_dropout=0.0),
        rng=rng)
    flags = rng.integers(0, 2, size=5)
    results["bce_head"] = nn.gradcheck(
        lambda p: dense_cm.loss_and_grads(x, flags), dense_cm.params, epsilon=1e-5)

    pairing = PairingModel(
        PairingModelConfig(emotion_rep_dim=6, cause_rep_dim=6, distance_dim=4,
                           max_distance=3, rep_dropout=0.0),
        rng=rng)
    E, C = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
    d = rng.integers(-5, 6, size=6)
    y = rng.integers(0, 2, size=6)
    results["pairing_head"] = nn.gradcheck(
        lambda p: pairing.loss_and_grads(E, C, d, y), pairing.params, epsilon=1e-5)

    bilstm_em = EmotionModel(
        EmotionModelConfig(variant="bilstm", input_dim=6, hidden_size=8, n_layers=4,
                           embedding_dropout=0.0, inter_layer_dropout=0.0),
        rng=rng)
    x6 = rng.normal(size=(6, 6))
    labels6 = rng.integers(0, 7, size=6)
    # epsilon 1e-3 balances roundoff (~1/eps) against truncation (~eps^2) for
    # this deep composition; smaller eps is roundoff-dominated in float64
    results["bilstm_4layer"] = nn.gradcheck(
        lambda p: bilstm_em.loss_and_grads(x6, labels6, weights), bilstm_em.params,
        epsilon=1e-3)

    emissions = rng.normal(size=(4, 3))
    crf_params = {
        "emissions": emissions,
        "transitions": rng.normal(size=(3, 3)),
        "start_scores": rng.normal(size=3),
        "end_scores": rng.normal(size=3),
    }
    gold = rng.integers(0, 3, size=4)

    def crf_fn(p):
        loss, d_em, d_crf = crf_loss_and_gradients(p["emissions"], p, gold)
        return loss, {"emissions": d_em, **d_crf}

    results["crf"] = nn.gradcheck(crf_fn, crf_params, epsilon=1e-5)

    elapsed = time.perf_counter() - t0
    tolerances = {name: (1e-6 if name == "crf" else 1e-4) for name in results}
    passed = all(results[n] < tolerances[n] for n in results) and elapsed < 60.0
    detail = ", ".join(f"{n}={v:.2e}" for n, v in results.items())
    report("2 gradchecks", passed, f"{detail}, {elapsed:.1f}s")


# -- criterion 3: metric fixtures ---------------------------------------------

def test_criterion_3_metric_fixtures():
    stage = stage_metrics([0, 1, 1, 1], [0, 0, 1, 1], n_classes=2)
    stage_ok = abs(stage.weighted_f1 - (0.5 * (2 / 3) + 0.5 * 0.8)) < 1e-12

    gold = {1: [EmotionCausePair(3, Emotion.JOY, 2), EmotionCausePair(3, Emotion.JOY, 3),
                EmotionCausePair(5, Emotion.ANGER, 5)]}
    predicted = {1: [EmotionCausePair(3, Emotion.JOY, 2), EmotionCausePair(5, Emotion.ANGER, 4)]}
    pairs = pair_metrics(predicted, gold)
    pairs_ok = abs(pairs.weighted_f1 - 4 / 9) < 1e-12 and abs(pairs.macro_f1 - 1 / 3) < 1e-12

    identity = pair_metrics(gold, gold)
    ident_stage = stage_metrics([0, 1, 2], [0, 1, 2], n_classes=3)
    identity_ok = (
        identity.weighted_f1 == 1.0 and identity.macro_f1 == 1.0
        and all(v["f1"] == 1.0 for v in identity.per_emotion.values())
        and ident_stage.weighted_f1 == ident_stage.weighted_precision
        == ident_stage.weighted_recall == ident_stage.macro_f1 == 1.0
    )
    report("3 metric-fixtures", stage_ok and pairs_ok and identity_ok,
           f"stage wF1={stage.weighted_f1:.10f}, pair wF1={pairs.weighted_f1:.10f},"
           f" pair macro={pairs.macro_f1:.10f}, gold-vs-gold all 1.0")


# -- criterion 4: negative sampling -------------------------------------------

def test_criterion_4_negative_sampling():
    data = synthetic_conversations(100, seed=31, neutral_prob=0.5)
    ratio = 5
    exact = exhausted = 0
    for conv in data.conversations:
        first = build_pair_examples(conv, ratio, seed=77)
        again = build_pair_examples(conv, ratio, seed=77)
        assert np.array_equal(first, again), "sampling not seed-reproducible"
        gold = {(p.emotion_utterance_id, p.cause_utterance_id) for p in conv.gold_pairs}
        negatives = {(int(e), int(c)) for e, c, label in first if label == 0}
        assert not (negatives & gold), "gold pair sampled as negative"
        space = len(candidate_pair_space_oracle(conv))
        want = min(ratio * len(gold), space)
        assert len(negatives) == want, "wrong negative count"
        if space >= ratio * len(gold) and gold:
            exact += 1
        elif gold:
            exhausted += 1
    report("4 negative-sampling", True,
           f"100 conversations, exact 1:{ratio} in {exact},"
           f" space-exhausted in {exhausted}, reproducible, gold never sampled")


# -- criterion 5: synthetic end-to-end ----------------------------------------

def desk_profile(variant: str) -> ExperimentConfig:
    return ExperimentConfig(
        embeddings=EmbeddingSettings(kind="synthetic", seed=5, dims=(16, 8, 8),
                                     planted=True, noise_scale=0.1),
        emotion_variant=variant,
        cause_variant="dense" if variant == "dense" else "bilstm",
        hidden_size=48,
        embedding_dropout=0.0,
        inter_layer_dropout=0.0,
        lr=0.01 if variant == "dense" else 0.003,
        epochs_emotion=10, epochs_cause=10, epochs_pairing=10,
        seed=3,
    )


@pytest.mark.parametrize("variant,threshold", [
    ("dense", 0.90), ("bilstm", 0.85), ("bilstm_crf", 0.85),
])
def test_criterion_5_synthetic_end_to_end(variant, threshold):
    t0 = time.perf_counter()
    config = desk_profile(variant)
    data = synthetic_conversations(200, seed=11, neutral_prob=0.3)
    train, val = split_train_val(data, config.val_fraction, config.seed)
    provider = make_provider(config, data)
    rng = np.random.default_rng(config.seed)
    emotion = train_emotion_stage(
        config, make_emotion_model(config, provider.feature_dim, rng),
        train, val, provider).best_model()
    cause = train_cause_stage(
        config, make_cause_model(config, provider.feature_dim, rng),
        train, val, provider).best_model()
    pairing = train_pairing_stage(
        config, make_pairing_model(config, emotion.rep_dim, cause.rep_dim, rng),
        train, val, provider, emotion, cause).best_model()
    predictions = predict_dataset(emotion, cause, pairing, val, provider)
    metrics = pair_metrics(pairs_by_conversation(predictions), pairs_by_conversation(val))
    elapsed = time.perf_counter() - t0
    passed = metrics.weighted_f1 >= threshold and elapsed < 600.0
    report(f"5 end-to-end {variant}", passed,
           f"held-out pair weighted F1 {metrics.weighted_f1:.4f} >= {threshold},"
           f" macro {metrics.macro_f1:.4f}, {elapsed:.0f}s of 600s budget")


# -- criterion 6: overfit sanity ----------------------------------------------

@pytest.mark.parametrize("variant", ["dense", "bilstm", "bilstm_crf"])
def test_criterion_6_overfit_capacity(variant):
    data = synthetic_conversations(10, seed=21, neutral_prob=0.3)
    config = ExperimentConfig(
        embeddings=EmbeddingSettings(kind="synthetic", seed=5, dims=(16, 8, 8),
                                     planted=True, noise_scale=0.1),
        emotion_variant=variant,
        hidden_size=16,
        embedding_dropout=0.0,
        inter_layer_dropout=0.0,
        lr=0.03 if variant == "dense" else 0.02,
        conversations_per_batch=len(data.conversations),  # full-batch steps
        seed=3,
    )
    provider = make_provider(config, data)
    if variant == "dense":
        steps_per_epoch = -(-data.n_utterances() // config.batch_size)
    else:
        steps_per_epoch = 1
    epochs = 200 // steps_per_epoch
    model = make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))
    trainer = train_emotion_stage(dataclasses.replace(config, epochs_emotion=epochs), model,
                                  data, data, provider)
    assert trainer.step <= 200, "optimizer step budget exceeded"
    passed = trainer.best_metric >= 0.99
    report(f"6 overfit {variant}", passed,
           f"train weighted F1 {trainer.best_metric:.4f} >= 0.99"
           f" within {trainer.step} steps")


# -- criterion 7: weighted-CE reduction ---------------------------------------

def test_criterion_7_weighted_ce_reduction():
    emotions = []
    for e in EMOTIONS:
        emotions.extend([e] * 4)
    dataset = make_dataset([make_conversation(1, emotions)])
    weights = emotion_class_weights(dataset)
    ones_ok = np.array_equal(weights, np.ones(7))

    rng = np.random.default_rng(17)
    bitwise = True
    for _ in range(100):
        n = int(rng.integers(1, 12))
        logits = rng.normal(size=(n, 7)) * rng.uniform(0.5, 4.0)
        targets = rng.integers(0, 7, size=n)
        weighted, dw = nn.weighted_ce_batch(logits, targets, weights)
        logp = nn.log_softmax(logits, axis=1)
        unweighted = float(-(logp[np.arange(n), targets]).mean())
        bitwise &= weighted == unweighted
        single = weighted_cross_entropy(logits[0], int(targets[0]), weights)
        bitwise &= single == float(-logp[0, targets[0]])
    report("7 weighted-ce-reduction", ones_ok and bitwise,
           "uniform counts give all-ones weights; weighted == unweighted"
           " bit-for-bit on 100 random instances")


# -- criterion 8: prediction determinism --------------------------------------

def test_criterion_8_predict_determinism(tmp_path):
    data = synthetic_conversations(8, seed=41, neutral_prob=0.4)
    save_dataset(data, tmp_path / "data.json")
    config = {
        "dataset_path": str(tmp_path / "data.json"),
        "output_dir": str(tmp_path / "run"),
        "embeddings": {"kind": "synthetic", "seed": 5, "dims": [8, 4, 4],
                       "planted": True, "noise_scale": 0.1},
        "emotion_variant": "dense",
        "cause_variant": "dense",
        "embedding_dropout": 0.0,
        "inter_layer_dropout": 0.0,
        "lr": 0.02,
        "epochs_emotion": 3, "epochs_cause": 3, "epochs_pairing": 3,
        "val_fraction": 0.25,
        "seed": 3,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli_main(["prepare", "--config", str(config_path)]) == 0
    for stage in ("emotion", "cause", "pairing"):
        assert cli_main(["train", "--config", str(config_path), "--stage", stage]) == 0
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli_main(["predict", "--config", str(config_path),
                         "--input", str(tmp_path / "run" / "val.json"),
                         "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    passed = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report("8 determinism", passed,
           f"two cmd_predict runs byte-identical ({len(outputs[0])} bytes)")
