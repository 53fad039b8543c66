import numpy as np
import pytest

from mecpe import nn
from mecpe.corpus import (
    Conversation,
    Dataset,
    Emotion,
    EmotionCausePair,
    Utterance,
)


def weighted_cross_entropy(logits, target: int, class_weights) -> float:
    """-w_target * log softmax(logits)[target] for one row: the single-row loss
    the package used to export, kept as the oracle of ``nn.weighted_ce_batch``."""
    return float(-np.asarray(class_weights)[target] * nn.log_softmax(logits)[target])


def binary_cross_entropy(logit, target) -> float:
    """Stable BCE of one raw logit, max(z,0) - z*t + log(1+exp(-|z|)): the
    scalar loss the package used to export, kept as the oracle of
    ``nn.bce_batch``."""
    z = float(logit)
    t = float(target)
    return max(z, 0.0) - z * t + float(np.log1p(np.exp(-abs(z))))


def make_conversation(cid, emotions, pairs=(), speakers=None):
    """Conversation from a list of emotion labels (or None) and (eid, emo, cid)
    pair triples."""
    utterances = tuple(
        Utterance(
            utterance_id=i + 1,
            speaker=(speakers[i] if speakers else ("A" if i % 2 == 0 else "B")),
            transcript=f"utterance {i + 1}",
            gold_emotion=e,
        )
        for i, e in enumerate(emotions)
    )
    gold = tuple(EmotionCausePair(e, emo, c) for e, emo, c in pairs)
    return Conversation(conversation_id=cid, utterances=utterances, gold_pairs=gold)


def make_dataset(conversations, split_tag="train"):
    return Dataset(conversations=tuple(conversations), split_tag=split_tag)


@pytest.fixture
def tiny_dataset():
    joy, anger, neutral = Emotion.JOY, Emotion.ANGER, Emotion.NEUTRAL
    return make_dataset([
        make_conversation(1, [neutral, joy, neutral, joy],
                          [(2, joy, 2), (4, joy, 3)]),
        make_conversation(2, [anger, neutral], [(1, anger, 1)]),
    ])


@pytest.fixture
def rng():
    return np.random.default_rng(0)
