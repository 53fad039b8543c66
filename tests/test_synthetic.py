"""synthetic_conversations against the per-call loop it replaced, its raw
stream reader against numpy's Generator, and its argument errors."""

import math

import numpy as np
import pytest

from mecpe import synthetic
from mecpe.corpus import (
    NON_NEUTRAL_EMOTIONS,
    Conversation,
    Dataset,
    DatasetError,
    Emotion,
    EmotionCausePair,
    Utterance,
    validate_dataset,
)
from mecpe.synthetic import _CHUNK, _RawReader, synthetic_conversations


def reference_conversations(
    n_conversations, seed, min_length=5, max_length=15, neutral_prob=0.5, cause_offsets=(0,),
):
    """The per-call loop: one Generator call per drawn value."""
    rng = np.random.default_rng(seed)
    conversations = []
    for cid in range(1, n_conversations + 1):
        length = int(rng.integers(min_length, max_length + 1))
        utterances = []
        pairs = []
        for uid in range(1, length + 1):
            if rng.random() < neutral_prob:
                emotion = Emotion.NEUTRAL
            else:
                emotion = NON_NEUTRAL_EMOTIONS[rng.integers(len(NON_NEUTRAL_EMOTIONS))]
            utterances.append(
                Utterance(
                    utterance_id=uid,
                    speaker="A" if uid % 2 else "B",
                    transcript=f"synthetic utterance {uid} of conversation {cid}",
                    gold_emotion=emotion,
                )
            )
            if emotion is not Emotion.NEUTRAL:
                for offset in cause_offsets:
                    cause_id = uid + offset
                    if 1 <= cause_id <= length:
                        pairs.append(EmotionCausePair(uid, emotion, cause_id))
        conversations.append(
            Conversation(
                conversation_id=cid,
                utterances=tuple(utterances),
                gold_pairs=tuple(pairs),
            )
        )
    dataset = Dataset(conversations=tuple(conversations), split_tag="train")
    validate_dataset(dataset)
    return dataset


BOUNDS = (1, 6, 11, 2**31 + 1, 2**32)


class TestRawReader:
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_matches_generator_calls(self, seed):
        reader = _RawReader(seed)
        halves = 0
        next32 = reader._next32

        def counted():
            nonlocal halves
            halves += 1
            return next32()

        reader._next32 = counted
        rng = np.random.default_rng(seed)
        schedule = np.random.default_rng(99).integers(len(BOUNDS) + 1, size=24_000)
        drawn = 0  # integers calls that take at least one half-word
        randoms = 1  # the closing random() below
        for k in schedule.tolist():
            if k == len(BOUNDS):
                assert reader.random() == rng.random()
                randoms += 1
            else:
                n = BOUNDS[k]
                got = reader.integers(n)
                assert got == rng.integers(n)
                assert type(got) is int and 0 <= got < n
                drawn += n > 1
        assert reader.random() == rng.random()
        # about half the 2**31 + 1 draws are rejected and draw again
        assert halves > drawn + 100
        # each random() takes a word and each word gives _next32 two halves,
        # so the draws ran across at least two chunk edges
        assert randoms + (halves + 1) // 2 > 2 * _CHUNK


# Every argument set the tests, the golden and digest scripts, the scripts
# and the benchmark's workloads draw, and the edge cases of each argument.
GRID = [
    # tests
    (6, 4, {}), (2, 2, dict(min_length=3, max_length=3)), (3, 2, dict(min_length=3, max_length=3)),
    (3, 4, {}), (1, 4, {}), (5, 4, {}), (100, 4, dict(min_length=10, max_length=10)),
    (1, 0, {}), (4, 2, {}), (2, 2, {}), (3, 2, {}), (5, 1, dict(neutral_prob=0.4)),
    (30, 1, dict(neutral_prob=0.4)), (30, 2, dict(neutral_prob=0.4)),
    (30, 3, dict(neutral_prob=0.4, cause_offsets=(-1, 0, 1))),
    (30, 2, dict(neutral_prob=0.4, cause_offsets=(-2, 0))),
    (3, 0, dict(neutral_prob=0.4)), (3, 517, dict(neutral_prob=0.4)),
    (3, 1000, dict(neutral_prob=0.4)), (4, 5, dict(neutral_prob=0.4)),
    (12, 4, dict(neutral_prob=0.3)), (16, 9, dict(neutral_prob=0.4)),
    (10, 9, dict(neutral_prob=0.4)), (2, 0, {}), (12, 9, dict(neutral_prob=0.4)),
    (8, 2, {}), (4, 1, {}), (3, 1, {}), (2, 1, {}), (8, 1, {}),
    (100, 31, dict(neutral_prob=0.5)), (200, 11, dict(neutral_prob=0.3)),
    (10, 21, dict(neutral_prob=0.3)), (8, 41, dict(neutral_prob=0.4)),
    # golden and digest scripts, make_synthetic_data.py, probe_forward_memory.py
    (16, 21, dict(neutral_prob=0.3)), (20, 13, dict(neutral_prob=0.4)),
    (3, 11, dict(neutral_prob=0.3)), (1344, 1, {}),
    # benchmark workloads: desk_train, paper_train, desk_predict and their smoke sizes
    (200, 1, dict(neutral_prob=0.3)), (200, 3302, dict(neutral_prob=0.3)),
    (1344, 0, dict(neutral_prob=0.3)), (1344, 3301, dict(neutral_prob=0.3)),
    (1344, 3401, dict(neutral_prob=0.3)), (300, 0, dict(neutral_prob=0.3)),
    (300, 3302, dict(neutral_prob=0.3)), (24, 5, dict(neutral_prob=0.3)),
    # edges
    (0, 3, {}), (40, 3, dict(min_length=1, max_length=1)),
    (40, 3, dict(min_length=7, max_length=7)), (40, 3, dict(neutral_prob=0.0)),
    (40, 3, dict(neutral_prob=1.0)), (40, 3, dict(min_length=1, max_length=60)),
    (60, 8, dict(neutral_prob=0.2, cause_offsets=(3, -3, 0, 20))),
    (60, 8, dict(neutral_prob=0.2, cause_offsets=())),
    (60, 2**40, dict(cause_offsets=[1, -1])),
]


@pytest.mark.parametrize("n, seed, kwargs", GRID)
def test_equals_the_per_call_loop(n, seed, kwargs):
    assert synthetic_conversations(n, seed, **kwargs) == reference_conversations(n, seed, **kwargs)


def test_equal_pairs_are_one_object():
    data = synthetic_conversations(50, seed=3, cause_offsets=(-1, 0, 2))
    pairs = [p for conv in data.conversations for p in conv.gold_pairs]
    assert len({id(p) for p in pairs}) == len(set(pairs)) < len(pairs)


@pytest.mark.parametrize("kwargs, named", [
    (dict(seed=-1), "seed"),
    (dict(n_conversations=-1), "n_conversations"),
    (dict(min_length=0), "min_length"),
    (dict(min_length=6, max_length=5), "max_length"),
    (dict(min_length=1, max_length=2**32 + 1), "max_length"),
    (dict(neutral_prob=-0.1), "neutral_prob"),
    (dict(neutral_prob=1.5), "neutral_prob"),
    (dict(neutral_prob=math.nan), "neutral_prob"),
    (dict(cause_offsets=(0, 0)), "cause_offsets"),
    (dict(cause_offsets=(1, -1, 1)), "cause_offsets"),
])
def test_bad_argument_is_refused_before_any_draw(monkeypatch, kwargs, named):
    def no_draw(*args, **kw):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(synthetic, "_RawReader", no_draw)
    args = dict(n_conversations=3, seed=0) | kwargs
    with pytest.raises(DatasetError, match=named):
        synthetic_conversations(**args)


def test_widest_length_span_is_accepted():
    # max_length - min_length just below 2**32: the length bound is 2**32
    assert synthetic_conversations(0, 0, min_length=1, max_length=2**32).conversations == ()
