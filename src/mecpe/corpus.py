"""Conversation corpus: loading, validation, splitting and supervision signals.

The on-disk format is a JSON list of conversations; each conversation holds an
ordered utterance list and (for labeled data) a list of emotion-cause pairs
encoded as ["<utt_id>_<emotion>", "<utt_id>"].
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace

import numpy as np


class DatasetError(Exception):
    """Raised for schema violations or invariant failures in corpus data."""


class Emotion(enum.IntEnum):
    """The seven utterance-level emotion classes, indexed alphabetically."""

    ANGER = 0
    DISGUST = 1
    FEAR = 2
    JOY = 3
    NEUTRAL = 4
    SADNESS = 5
    SURPRISE = 6

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Emotion":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise DatasetError(f"unknown emotion label {label!r}") from None


EMOTIONS = tuple(Emotion)
N_EMOTIONS = len(EMOTIONS)
NEUTRAL = Emotion.NEUTRAL
NON_NEUTRAL_EMOTIONS = tuple(e for e in EMOTIONS if e is not NEUTRAL)


@dataclass(frozen=True)
class Utterance:
    utterance_id: int          # 1-based, consecutive within the conversation
    speaker: str
    transcript: str
    gold_emotion: Emotion | None = None


@dataclass(frozen=True)
class EmotionCausePair:
    emotion_utterance_id: int
    emotion: Emotion
    cause_utterance_id: int


@dataclass(frozen=True)
class Conversation:
    conversation_id: int
    utterances: tuple[Utterance, ...]
    gold_pairs: tuple[EmotionCausePair, ...] | None = None

    def __len__(self) -> int:
        return len(self.utterances)


@dataclass(frozen=True)
class Dataset:
    conversations: tuple[Conversation, ...]
    split_tag: str = "train"

    def n_utterances(self) -> int:
        return sum(len(c) for c in self.conversations)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DatasetError(message)


def validate_conversation(conv: Conversation) -> None:
    """Check the structural invariants of one conversation."""
    cid = conv.conversation_id
    _require(len(conv.utterances) > 0, f"conversation {cid}: empty utterance list")
    for pos, utt in enumerate(conv.utterances, start=1):
        _require(
            utt.utterance_id == pos,
            f"conversation {cid}: utterance_ID {utt.utterance_id} at position {pos}"
            " (ids must be consecutive starting at 1)",
        )
    if conv.gold_pairs is None:
        return
    n = len(conv.utterances)
    for pair in conv.gold_pairs:
        _require(
            pair.emotion is not NEUTRAL,
            f"conversation {cid}: pair with neutral emotion at utterance"
            f" {pair.emotion_utterance_id}",
        )
        for field_name, uid in (
            ("emotion_utterance_id", pair.emotion_utterance_id),
            ("cause_utterance_id", pair.cause_utterance_id),
        ):
            _require(
                1 <= uid <= n,
                f"conversation {cid}: pair references missing utterance id {uid}"
                f" in field {field_name}",
            )
        gold = conv.utterances[pair.emotion_utterance_id - 1].gold_emotion
        if gold is not None:
            _require(
                gold is pair.emotion,
                f"conversation {cid}: pair emotion {pair.emotion.label!r} disagrees"
                f" with gold emotion {gold.label!r} of utterance"
                f" {pair.emotion_utterance_id}",
            )


def validate_dataset(dataset: Dataset) -> None:
    seen: set[int] = set()
    for conv in dataset.conversations:
        _require(
            conv.conversation_id not in seen,
            f"duplicate conversation_ID {conv.conversation_id}",
        )
        seen.add(conv.conversation_id)
        validate_conversation(conv)


def _parse_emotion_ref(ref: str, cid: int) -> tuple[int, Emotion]:
    """Parse "<utt_id>_<emotion>" (emotion name case-insensitive)."""
    head, sep, tail = ref.partition("_")
    _require(
        sep == "_" and head.isdigit(),
        f"conversation {cid}: malformed pair emotion reference {ref!r}",
    )
    try:
        emotion = Emotion.from_label(tail)
    except DatasetError:
        raise DatasetError(
            f"conversation {cid}: unknown emotion in pair reference {ref!r}"
        ) from None
    return int(head), emotion


def _parse_cause_ref(ref: str, cid: int) -> int:
    """Parse "<utt_id>"; a trailing "_<anything>" (e.g. a text span) is ignored."""
    head = ref.partition("_")[0]
    _require(head.isdigit(), f"conversation {cid}: malformed pair cause reference {ref!r}")
    return int(head)


def _conversation_from_json(obj: dict) -> Conversation:
    _require(isinstance(obj, dict), "conversation entry is not an object")
    _require("conversation_ID" in obj, "conversation entry missing field conversation_ID")
    cid = obj["conversation_ID"]
    _require(isinstance(cid, int), f"conversation_ID {cid!r} is not an integer")
    _require(
        isinstance(obj.get("conversation"), list) and obj["conversation"],
        f"conversation {cid}: field conversation must be a non-empty list",
    )

    utterances = []
    for item in obj["conversation"]:
        _require(
            isinstance(item, dict),
            f"conversation {cid}: utterance entry is not an object",
        )
        for key in ("utterance_ID", "text", "speaker"):
            _require(
                key in item,
                f"conversation {cid}: utterance entry missing field {key}",
            )
        try:
            utterance_id = int(item["utterance_ID"])
        except (TypeError, ValueError):
            raise DatasetError(
                f"conversation {cid}: utterance_ID {item['utterance_ID']!r}"
                " is not an integer"
            ) from None
        emotion = None
        if item.get("emotion") is not None:
            emotion = Emotion.from_label(str(item["emotion"]))
        utterances.append(
            Utterance(
                utterance_id=utterance_id,
                speaker=str(item["speaker"]),
                transcript=str(item["text"]),
                gold_emotion=emotion,
            )
        )

    pairs = None
    if obj.get("emotion-cause_pairs") is not None:
        raw = obj["emotion-cause_pairs"]
        _require(
            isinstance(raw, list),
            f"conversation {cid}: field emotion-cause_pairs must be a list",
        )
        pairs = []
        for entry in raw:
            _require(
                isinstance(entry, (list, tuple)) and len(entry) == 2,
                f"conversation {cid}: pair entry {entry!r} must be a 2-element list",
            )
            eid, emotion = _parse_emotion_ref(str(entry[0]), cid)
            cause_id = _parse_cause_ref(str(entry[1]), cid)
            pairs.append(EmotionCausePair(eid, emotion, cause_id))
        pairs = tuple(pairs)

    return Conversation(conversation_id=cid, utterances=tuple(utterances), gold_pairs=pairs)


def load_dataset(path, split_tag: str = "train") -> Dataset:
    """Load and validate a dataset file; raises DatasetError on any violation."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: not valid JSON ({exc})") from None
    _require(isinstance(data, list), f"{path}: top level must be a JSON list")
    dataset = Dataset(
        conversations=tuple(_conversation_from_json(obj) for obj in data),
        split_tag=split_tag,
    )
    validate_dataset(dataset)
    return dataset


def conversation_to_json(conv: Conversation) -> dict:
    obj: dict = {
        "conversation_ID": conv.conversation_id,
        "conversation": [
            {
                "utterance_ID": u.utterance_id,
                "text": u.transcript,
                "speaker": u.speaker,
                **({"emotion": u.gold_emotion.label} if u.gold_emotion is not None else {}),
            }
            for u in conv.utterances
        ],
    }
    if conv.gold_pairs is not None:
        obj["emotion-cause_pairs"] = [
            [f"{p.emotion_utterance_id}_{p.emotion.label}", str(p.cause_utterance_id)]
            for p in conv.gold_pairs
        ]
    return obj


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([conversation_to_json(c) for c in dataset.conversations], fh, indent=1)
        fh.write("\n")


def split_train_val(
    dataset: Dataset, val_fraction: float, seed: int
) -> tuple[Dataset, Dataset]:
    """Shuffle conversations with a seeded generator and split off a validation set.

    The split is at whole-conversation granularity; |val| = round(val_fraction * N).
    """
    n = len(dataset.conversations)
    _require(n >= 2, f"need at least 2 conversations to split, got {n}")
    _require(0.0 < val_fraction < 1.0, f"val_fraction {val_fraction} not in (0, 1)")
    n_val = int(math.floor(val_fraction * n + 0.5))
    _require(
        0 < n_val < n,
        f"val_fraction {val_fraction} leaves an empty side for {n} conversations",
    )
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = [dataset.conversations[i] for i in perm]
    train = Dataset(conversations=tuple(shuffled[: n - n_val]), split_tag="train")
    val = Dataset(conversations=tuple(shuffled[n - n_val:]), split_tag="val")
    return train, val


def emotion_counts(dataset: Dataset) -> np.ndarray:
    """Gold-label counts per emotion class (length 7)."""
    counts = np.zeros(N_EMOTIONS, dtype=np.int64)
    for conv in dataset.conversations:
        for utt in conv.utterances:
            if utt.gold_emotion is not None:
                counts[int(utt.gold_emotion)] += 1
    return counts


def emotion_class_weights(
    dataset: Dataset, floor_count: int | None = None
) -> np.ndarray:
    """Inverse-frequency class weights, normalized so uniform counts give all ones.

    weight_c = T / (K * count_c) with T the number of labeled utterances and
    K = 7.  Classes absent from the data raise unless ``floor_count`` clamps
    their count to a positive minimum.
    """
    counts = emotion_counts(dataset)
    total = int(counts.sum())
    _require(total > 0, "dataset has no labeled utterances")
    if floor_count is None:
        missing = [EMOTIONS[i].label for i in np.flatnonzero(counts == 0)]
        _require(
            not missing,
            "zero training count for emotion(s) "
            + ", ".join(missing)
            + "; pass floor_count=1 (or higher) to clamp instead of weighting infinitely",
        )
        effective = counts
    else:
        _require(floor_count >= 1, f"floor_count must be >= 1, got {floor_count}")
        effective = np.maximum(counts, floor_count)
    return total / (N_EMOTIONS * effective.astype(np.float64))


def derive_cause_labels(conv: Conversation) -> np.ndarray:
    """Binary vector over utterances: 1 iff the utterance causes some gold pair."""
    _require(
        conv.gold_pairs is not None,
        f"conversation {conv.conversation_id}: gold pairs required to derive cause labels",
    )
    labels = np.zeros(len(conv.utterances), dtype=np.int64)
    for pair in conv.gold_pairs:
        labels[pair.cause_utterance_id - 1] = 1
    return labels


def emotion_label_vector(conv: Conversation) -> np.ndarray:
    """Gold emotion indices for every utterance; raises if any is unlabeled."""
    labels = []
    for utt in conv.utterances:
        _require(
            utt.gold_emotion is not None,
            f"conversation {conv.conversation_id}: utterance {utt.utterance_id}"
            " has no gold emotion",
        )
        labels.append(int(utt.gold_emotion))
    return np.asarray(labels, dtype=np.int64)


def with_predictions(
    conv: Conversation,
    emotions: list[Emotion],
    pairs: list[EmotionCausePair],
) -> Conversation:
    """Copy of a conversation with predicted emotions and pairs filled in."""
    utterances = tuple(
        replace(u, gold_emotion=e) for u, e in zip(conv.utterances, emotions)
    )
    return Conversation(
        conversation_id=conv.conversation_id,
        utterances=utterances,
        gold_pairs=tuple(pairs),
    )
