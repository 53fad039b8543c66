import math

import numpy as np
import pytest

from mecpe import cli, nn
from mecpe.corpus import (
    NEUTRAL,
    Conversation,
    Dataset,
    Emotion,
    EmotionCausePair,
    Utterance,
)
from mecpe.models import build_pair_examples, packed_features


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Every test runs with the one BLAS thread the CLI sets and the
    two-thread rules were measured with, whatever test runs first."""
    cli.pin_blas()


class _TwoThreads:
    """Puts every size on the two-thread path, with a fresh helper thread
    whatever the CPU count; the size rules are module constants, patched here
    as a test seam.  ``pairs`` counts the work handed to the helper: the
    ``_pair`` calls given a pool."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.pairs = 0
        pair = nn._pair

        def counted(pool, *calls):
            self.pairs += pool is not None
            return pair(pool, *calls)

        monkeypatch.setattr(nn, "_helper_pool", None)
        monkeypatch.setattr(nn, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(nn, "_pair", counted)
        self.force(True)

    def force(self, on: bool) -> None:
        for name in ("LSTM_THREADS_MIN", "ADAMW_THREADS_MIN", "NPZ_THREADS_MIN"):
            self.monkeypatch.setattr(nn, name, 0 if on else math.inf)

    def serial_and_parallel(self, fn):
        """fn() on the serial path, then on the two-thread path; the first
        hands nothing to the helper, the second something."""
        self.force(False)
        before = self.pairs
        serial = fn()
        assert self.pairs == before
        self.force(True)
        parallel = fn()
        assert self.pairs > before
        return serial, parallel


@pytest.fixture
def two_threads(monkeypatch):
    threads = _TwoThreads(monkeypatch)
    yield threads
    if nn._helper_pool:
        nn._helper_pool.shutdown()



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


def candidate_pair_space_oracle(conv) -> list[tuple[int, int]]:
    """All (gold non-neutral emotion utterance, any utterance) id pairs minus
    gold, as tuples: the list implementation the package used to have, kept as
    the oracle of the candidate space ``models._pair_keys`` returns."""
    gold = {(p.emotion_utterance_id, p.cause_utterance_id) for p in (conv.gold_pairs or ())}
    emotion_ids = [
        u.utterance_id
        for u in conv.utterances
        if u.gold_emotion is not None and u.gold_emotion is not NEUTRAL
    ]
    return [
        (e, c)
        for e in emotion_ids
        for c in range(1, len(conv.utterances) + 1)
        if (e, c) not in gold
    ]


def sample_negative_pairs_oracle(gold_pairs, candidate_space, ratio: int,
                                 rng) -> list[tuple[int, int]]:
    """min(ratio * |gold|, |space|) negatives drawn uniformly without
    replacement from the sorted space minus gold, by one ``rng.choice``."""
    gold_keys = {(p.emotion_utterance_id, p.cause_utterance_id) for p in gold_pairs}
    space = sorted(set(candidate_space) - gold_keys)
    n = min(ratio * len(gold_keys), len(space))
    if n == 0:
        return []
    chosen = rng.choice(len(space), size=n, replace=False)
    return [space[i] for i in sorted(chosen)]


def build_pair_examples_oracle(conv, ratio: int, seed: int) -> list[tuple[int, int, int]]:
    """(emotion id, cause id, label) tuples: sorted unique gold pairs, then the
    sampled negatives; the oracle of ``models.build_pair_examples``."""
    positives = sorted(
        {(p.emotion_utterance_id, p.cause_utterance_id) for p in conv.gold_pairs}
    )
    rng = np.random.default_rng((seed, conv.conversation_id))
    negatives = sample_negative_pairs_oracle(
        conv.gold_pairs, candidate_pair_space_oracle(conv), ratio, rng
    )
    return [(e, c, 1) for e, c in positives] + [(e, c, 0) for e, c in negatives]


def viterbi_decode_oracle(emissions, params: dict):
    """Highest-scoring labeling of one sequence and its score, one step at a
    time with ties toward lower indices: the per-sequence decoder the package
    used to have, kept as the oracle of packed ``crf.viterbi_decode``."""
    emissions = np.asarray(emissions, dtype=np.float64)
    T, K = emissions.shape
    score = params["start_scores"] + emissions[0]
    backptr = np.zeros((T, K), dtype=np.int64)
    for t in range(1, T):
        cand = score[:, None] + params["transitions"]  # (from, to)
        backptr[t] = np.argmax(cand, axis=0)  # argmax picks the lowest index on ties
        score = cand[backptr[t], np.arange(K)] + emissions[t]
    score = score + params["end_scores"]
    best = int(np.argmax(score))
    labels = [best]
    for t in range(T - 1, 0, -1):
        best = int(backptr[t, best])
        labels.append(best)
    labels.reverse()
    return labels, float(score[labels[-1]])


def pairing_tensors_oracle(config, dataset, provider, emotion_model, cause_model,
                           sample_seed):
    """One split's frozen-stage pair rows (E, C, distances, labels), gathered
    per example from a packed pass over that split alone: the per-split
    ``training.pairing_tensors`` the package used to have, kept as its oracle."""
    convs, batches = [], []
    for conv in dataset.conversations:
        rows = build_pair_examples(conv, config.negative_ratio, sample_seed)
        if rows.size:
            convs.append(conv)
            batches.append(rows)
    e_idx, c_idx, y = np.concatenate(batches).T
    features, layout = packed_features(convs, provider)
    first = np.repeat(layout.starts, [len(rows) for rows in batches]) - 1
    E = emotion_model.forward(features, layout=layout)[1]["head_in"][first + e_idx]
    C = cause_model.forward(features, layout=layout)[1]["head_in"][first + c_idx]
    return E, C, c_idx - e_idx, y


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
