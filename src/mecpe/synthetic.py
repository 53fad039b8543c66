"""Desk-scale synthetic conversations with a known emotion/cause structure.

Gold pairs follow configurable signed cause offsets (cause_id = emotion_id +
offset); the default offset 0 (self-cause) keeps every stage learnable by
per-utterance models, which is what the end-to-end recovery checks rely on.

Every value is drawn from one ``np.random.default_rng(seed)`` stream, in the
order of a per-utterance loop: each conversation's length, then per utterance
a ``random()`` against ``neutral_prob`` and, unless neutral, an
``integers(6)`` for its emotion.  ``_RawReader`` takes the stream's raw 64-bit
words from the bit generator 4,096 at a time and decodes each value as the
``Generator`` call would: PCG64's ``random()`` from the top 53 bits of a
word, ``integers(n)`` by numpy's 32-bit Lemire draw on PCG64's buffered
half-words.  That decoding is exact for numpy's PCG64 ``default_rng`` and
``integers`` bounds up to 2**32, so a dataset equals the one the per-call loop
draws.  A negative seed or conversation count, ``min_length < 1``,
``max_length < min_length``, a length span (``max_length - min_length``) of
2**32 or more, ``neutral_prob`` outside [0, 1] or a repeated cause offset is a
``DatasetError`` naming the argument, raised before any draw.
"""

from __future__ import annotations

from functools import cache
from itertools import chain

import numpy as np

from .corpus import (
    NEUTRAL,
    NON_NEUTRAL_EMOTIONS,
    Conversation,
    Dataset,
    DatasetError,
    EmotionCausePair,
    Utterance,
    validate_dataset,
)

_LOW = 0xFFFFFFFF
_SPAN = 1 << 32
_CHUNK = 4096  # raw words per random_raw draw


class _RawReader:
    """``random()`` and ``integers(n)`` of ``np.random.default_rng(seed)``,
    decoded from its PCG64 raw words drawn ``_CHUNK`` at a time."""

    def __init__(self, seed: int):
        draw = np.random.default_rng(seed).bit_generator.random_raw
        self._words = chain.from_iterable(iter(lambda: draw(_CHUNK).tolist(), None))
        self._high = None  # PCG64's buffered high half-word, kept across random()

    def random(self) -> float:
        return (next(self._words) >> 11) * 2.0 ** -53

    def _next32(self) -> int:
        high = self._high
        if high is None:
            word = next(self._words)
            self._high = word >> 32
            return word & _LOW
        self._high = None
        return high

    def integers(self, n: int) -> int:
        """A draw from range(n); the caller keeps 1 <= n <= 2**32."""
        if n == 1:
            return 0
        if n == _SPAN:
            return self._next32()
        m = self._next32() * n
        if m & _LOW < n:
            threshold = (_SPAN - n) % n
            while m & _LOW < threshold:
                m = self._next32() * n
        return m >> 32


def synthetic_conversations(
    n_conversations: int,
    seed: int,
    min_length: int = 5,
    max_length: int = 15,
    neutral_prob: float = 0.5,
    cause_offsets: tuple[int, ...] = (0,),
) -> Dataset:
    """Random labeled conversations, ~10 utterances each by default."""
    if n_conversations < 0:
        raise DatasetError(f"n_conversations must be >= 0, got {n_conversations}")
    if seed < 0:
        raise DatasetError(f"seed must be >= 0, got {seed}")
    if min_length < 1:
        raise DatasetError(f"min_length must be >= 1, got {min_length}")
    if max_length < min_length:
        raise DatasetError(f"max_length {max_length} is below min_length {min_length}")
    if max_length - min_length >= _SPAN:
        raise DatasetError(
            f"max_length {max_length} is 2**32 or more above min_length {min_length}")
    if not 0 <= neutral_prob <= 1:
        raise DatasetError(f"neutral_prob must lie in [0, 1], got {neutral_prob}")
    if len(set(cause_offsets)) != len(cause_offsets):
        raise DatasetError(f"cause_offsets repeats an offset: {tuple(cause_offsets)}")
    reader = _RawReader(seed)
    random, integers = reader.random, reader.integers
    n_lengths = max_length - min_length + 1
    n_emotions = len(NON_NEUTRAL_EMOTIONS)
    speakers: list[str] = []   # per utterance id, grown to the longest length drawn
    prefixes: list[str] = []
    pair = cache(EmotionCausePair)  # pairs are frozen, so equal ones are one object
    conversations = []
    for cid in range(1, n_conversations + 1):
        length = min_length + integers(n_lengths)
        for uid in range(len(prefixes) + 1, length + 1):
            speakers.append("A" if uid % 2 else "B")
            prefixes.append(f"synthetic utterance {uid} of conversation ")
        emotions = [NEUTRAL if random() < neutral_prob
                    else NON_NEUTRAL_EMOTIONS[integers(n_emotions)]
                    for _ in range(length)]
        suffix = str(cid)
        utterances = tuple(map(Utterance, range(1, length + 1), speakers,
                               [prefix + suffix for prefix in prefixes[:length]], emotions))
        pairs = tuple(pair(uid, emotion, uid + offset)
                      for uid, emotion in enumerate(emotions, 1) if emotion is not NEUTRAL
                      for offset in cause_offsets if 1 <= uid + offset <= length)
        conversations.append(Conversation(cid, utterances, pairs))
    dataset = Dataset(conversations=tuple(conversations), split_tag="train")
    validate_dataset(dataset)
    return dataset
