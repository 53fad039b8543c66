"""Conversation corpus: loading, validation, splitting and supervision signals.

The on-disk format is a JSON list of conversations; each conversation holds an
ordered utterance list and (for labeled data) a list of emotion-cause pairs
encoded as ["<utt_id>_<emotion>", "<utt_id>"].
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

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
    """Check the structural invariants of one conversation.  Each message is
    built only when its check fails: validation runs on every load."""
    cid = conv.conversation_id
    if not conv.utterances:
        raise DatasetError(f"conversation {cid}: empty utterance list")
    for pos, utt in enumerate(conv.utterances, start=1):
        if utt.utterance_id != pos:
            raise DatasetError(
                f"conversation {cid}: utterance_ID {utt.utterance_id} at position {pos}"
                " (ids must be consecutive starting at 1)")
    if conv.gold_pairs is None:
        return
    n = len(conv.utterances)
    for pair in conv.gold_pairs:
        if pair.emotion is NEUTRAL:
            raise DatasetError(
                f"conversation {cid}: pair with neutral emotion at utterance"
                f" {pair.emotion_utterance_id}")
        for field_name, uid in (
            ("emotion_utterance_id", pair.emotion_utterance_id),
            ("cause_utterance_id", pair.cause_utterance_id),
        ):
            if not 1 <= uid <= n:
                raise DatasetError(
                    f"conversation {cid}: pair references missing utterance id {uid}"
                    f" in field {field_name}")
        gold = conv.utterances[pair.emotion_utterance_id - 1].gold_emotion
        if gold is not None and gold is not pair.emotion:
            raise DatasetError(
                f"conversation {cid}: pair emotion {pair.emotion.label!r} disagrees"
                f" with gold emotion {gold.label!r} of utterance"
                f" {pair.emotion_utterance_id}")


def validate_dataset(dataset: Dataset) -> None:
    seen: set[int] = set()
    for conv in dataset.conversations:
        if conv.conversation_id in seen:
            raise DatasetError(f"duplicate conversation_ID {conv.conversation_id}")
        seen.add(conv.conversation_id)
        validate_conversation(conv)


def _parse_emotion_ref(ref: str, cid: int) -> tuple[int, Emotion]:
    """Parse "<utt_id>_<emotion>" (emotion name case-insensitive)."""
    head, sep, tail = ref.partition("_")
    _require(
        sep == "_" and head.isdecimal(),
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
    _require(head.isdecimal(), f"conversation {cid}: malformed pair cause reference {ref!r}")
    return int(head)


def _conversation_from_json(obj: dict) -> Conversation:
    _require(isinstance(obj, dict), "conversation entry is not an object")
    _require("conversation_ID" in obj, "conversation entry missing field conversation_ID")
    cid = obj["conversation_ID"]
    _require(isinstance(cid, int) and not isinstance(cid, bool),
             f"conversation_ID {cid!r} is not an integer")
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
        uid = item["utterance_ID"]
        try:
            # int() would take a bool as 0 or 1 and cut a fraction off
            if isinstance(uid, bool) or isinstance(uid, float) and not uid.is_integer():
                raise ValueError(uid)
            utterance_id = int(uid)
        except (TypeError, ValueError, OverflowError):
            raise DatasetError(
                f"conversation {cid}: utterance_ID {uid!r} is not an integer"
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


def read_text(path, error: type[Exception]) -> str:
    """The file at ``path`` decoded as UTF-8; raises ``error`` naming the
    first byte that does not decode."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 (byte {exc.start}: {exc.reason})") from None


def read_json(path, error: type[Exception]):
    """The JSON document in the UTF-8 file at ``path``; raises ``error`` for
    a file that does not decode or parse."""
    text = read_text(path, error)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None


def load_dataset(path, split_tag: str = "train") -> Dataset:
    """Load and validate a dataset file; raises DatasetError on any violation."""
    data = read_json(path, DatasetError)
    _require(isinstance(data, list), f"{path}: top level must be a JSON list")
    dataset = Dataset(
        conversations=tuple(_conversation_from_json(obj) for obj in data),
        split_tag=split_tag,
    )
    validate_dataset(dataset)
    return dataset


def _json_list(items: list[str], indent: str) -> str:
    """A JSON list of already encoded, already indented items, laid out as
    ``json.dumps(..., indent=1)`` lays out a list whose closing bracket sits
    at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def save_dataset(dataset: Dataset, path) -> None:
    """Writes ``dataset`` in the on-disk format, as exactly the bytes of
    ``json.dumps(records, indent=1) + "\n"``: every string goes through the
    C encoder ``json.dumps`` uses (``encode_basestring_ascii``), every id
    through ``%d``, and the fixed schema's layout is spelled out here.  A
    conversation without gold pairs has no ``emotion-cause_pairs`` field;
    an unlabeled utterance has no ``emotion``."""
    encode = json.encoder.encode_basestring_ascii
    conversations = []
    for conv in dataset.conversations:
        utterances = [
            '   {\n    "utterance_ID": %d,\n    "text": %s,\n    "speaker": %s%s\n   }' % (
                u.utterance_id, encode(u.transcript), encode(u.speaker),
                "" if u.gold_emotion is None
                else ',\n    "emotion": ' + encode(u.gold_emotion.label))
            for u in conv.utterances]
        fields = ['  "conversation_ID": %d' % conv.conversation_id,
                  '  "conversation": ' + _json_list(utterances, "  ")]
        if conv.gold_pairs is not None:
            pairs = ['   [\n    %s,\n    %s\n   ]' % (
                encode("%d_%s" % (p.emotion_utterance_id, p.emotion.label)),
                encode("%d" % p.cause_utterance_id)) for p in conv.gold_pairs]
            fields.append('  "emotion-cause_pairs": ' + _json_list(pairs, "  "))
        conversations.append(" {\n" + ",\n".join(fields) + "\n }")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_list(conversations, "") + "\n")


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
    utterances = tuple(Utterance(u.utterance_id, u.speaker, u.transcript, e)
                       for u, e in zip(conv.utterances, emotions))
    return Conversation(
        conversation_id=conv.conversation_id,
        utterances=utterances,
        gold_pairs=tuple(pairs),
    )
