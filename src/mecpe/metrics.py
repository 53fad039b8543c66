"""Per-stage weighted precision/recall/F1 and the pair-level weighted / macro
F1 used as the final score.  Pair matching is exact-set intersection on
(conversation_id, emotion_utterance_id, emotion, cause_utterance_id).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import NEUTRAL, NON_NEUTRAL_EMOTIONS, EmotionCausePair


class MetricsError(Exception):
    pass


def _prf(tp: int, n_predicted: int, n_gold: int) -> tuple[float, float, float]:
    """(precision, recall, F1) from the counts of true positives, predicted
    and gold items; each is 0 where its denominator is."""
    p = tp / n_predicted if n_predicted else 0.0
    r = tp / n_gold if n_gold else 0.0
    return p, r, 2.0 * p * r / (p + r) if p + r != 0.0 else 0.0


@dataclass(frozen=True)
class StageMetrics:
    precision: tuple[float, ...]  # per class
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    support: tuple[int, ...]      # gold counts per class
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    macro_precision: float
    macro_recall: float
    macro_f1: float

    def to_dict(self) -> dict:
        return {
            "per_class": [
                {"precision": p, "recall": r, "f1": f, "support": s}
                for p, r, f, s in zip(self.precision, self.recall, self.f1, self.support)
            ],
            "weighted_precision": self.weighted_precision,
            "weighted_recall": self.weighted_recall,
            "weighted_f1": self.weighted_f1,
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
        }


def stage_metrics(predicted, gold, n_classes: int) -> StageMetrics:
    """Multi-class P/R/F1 per class with gold-support weighting.

    Classes with zero gold support carry zero weight and are excluded from the
    macro averages.
    """
    predicted = np.asarray(predicted, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if predicted.shape != gold.shape:
        raise MetricsError(
            f"length mismatch: {predicted.shape[0]} predictions vs {gold.shape[0]} gold labels"
        )
    precision, recall, f1, support = [], [], [], []
    for c in range(n_classes):
        tp = int(np.sum((predicted == c) & (gold == c)))
        pred_c = int(np.sum(predicted == c))
        gold_c = int(np.sum(gold == c))
        p, r, f = _prf(tp, pred_c, gold_c)
        precision.append(p)
        recall.append(r)
        f1.append(f)
        support.append(gold_c)
    total = sum(support)
    weights = [s / total if total else 0.0 for s in support]
    present = [c for c in range(n_classes) if support[c] > 0]
    macro = lambda xs: float(np.mean([xs[c] for c in present])) if present else 0.0
    return StageMetrics(
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        support=tuple(support),
        weighted_precision=float(sum(w * p for w, p in zip(weights, precision))),
        weighted_recall=float(sum(w * r for w, r in zip(weights, recall))),
        weighted_f1=float(sum(w * f for w, f in zip(weights, f1))),
        macro_precision=macro(precision),
        macro_recall=macro(recall),
        macro_f1=macro(f1),
    )


@dataclass(frozen=True)
class PairMetrics:
    per_emotion: dict  # emotion label -> {precision, recall, f1, gold, predicted}
    weighted_f1: float
    macro_f1: float
    n_gold: int
    n_predicted: int


def _pair_keys(pairs_by_conversation, side: str) -> set:
    keys = set()
    for cid, pairs in pairs_by_conversation.items():
        for pair in pairs:
            if pair.emotion is NEUTRAL:
                raise MetricsError(
                    f"{side} pair with neutral emotion in conversation {cid}"
                    f" (utterance {pair.emotion_utterance_id})"
                )
            keys.add(
                (cid, pair.emotion_utterance_id, pair.emotion, pair.cause_utterance_id)
            )
    return keys


def pair_metrics(
    predicted_pairs: dict[int, list[EmotionCausePair]],
    gold_pairs: dict[int, list[EmotionCausePair]],
) -> PairMetrics:
    """Official pair scoring: per-emotion P/R/F1 over exact pair matches;
    weighted F1 by gold pair counts; macro F1 over the represented non-neutral
    emotions (those absent from both gold and predictions are skipped)."""
    predicted = _pair_keys(predicted_pairs, "predicted")
    gold = _pair_keys(gold_pairs, "gold")
    per_emotion = {}
    f1_by_emotion = {}
    weights = {}
    for emotion in NON_NEUTRAL_EMOTIONS:
        pred_e = {k for k in predicted if k[2] is emotion}
        gold_e = {k for k in gold if k[2] is emotion}
        if not pred_e and not gold_e:
            continue
        p, r, f = _prf(len(pred_e & gold_e), len(pred_e), len(gold_e))
        per_emotion[emotion.label] = {
            "precision": p,
            "recall": r,
            "f1": f,
            "gold": len(gold_e),
            "predicted": len(pred_e),
        }
        f1_by_emotion[emotion] = f
        weights[emotion] = len(gold_e)
    total_gold = sum(weights.values())
    weighted_f1 = (
        sum(weights[e] * f1_by_emotion[e] for e in f1_by_emotion) / total_gold
        if total_gold
        else 0.0
    )
    macro_f1 = float(np.mean(list(f1_by_emotion.values()))) if f1_by_emotion else 0.0
    return PairMetrics(
        per_emotion=per_emotion,
        weighted_f1=float(weighted_f1),
        macro_f1=macro_f1,
        n_gold=len(gold),
        n_predicted=len(predicted),
    )


def pairs_by_conversation(dataset) -> dict[int, list[EmotionCausePair]]:
    """Gold pair lists keyed by conversation id (empty list when absent)."""
    return {
        conv.conversation_id: list(conv.gold_pairs or ())
        for conv in dataset.conversations
    }
