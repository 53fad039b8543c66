import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecpe.corpus import (
    EMOTIONS,
    Conversation,
    DatasetError,
    Emotion,
    Dataset,
    EmotionCausePair,
    Utterance,
    derive_cause_labels,
    emotion_class_weights,
    load_dataset,
    save_dataset,
    split_train_val,
    validate_dataset,
)

from conftest import make_conversation, make_dataset


def write_json(tmp_path, payload, name="data.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


GOOD_CONV = {
    "conversation_ID": 1,
    "conversation": [
        {"utterance_ID": 1, "text": "hi", "speaker": "A", "emotion": "neutral"},
        {"utterance_ID": 2, "text": "great news", "speaker": "B", "emotion": "joy"},
        {"utterance_ID": 3, "text": "wow", "speaker": "A", "emotion": "joy"},
    ],
    "emotion-cause_pairs": [["3_joy", "2"]],
}


JOY, ANGER, NEUTRAL = Emotion.JOY, Emotion.ANGER, Emotion.NEUTRAL


class TestValidationMessages:
    """Every structural check of ``validate_dataset``, with its whole message."""

    @pytest.mark.parametrize("conversations, message", [
        ([Conversation(3, ())], "conversation 3: empty utterance list"),
        ([Conversation(9, (Utterance(1, "A", "a"), Utterance(3, "B", "b")))],
         "conversation 9: utterance_ID 3 at position 2 (ids must be consecutive starting at 1)"),
        ([make_conversation(4, [JOY, None], [(2, NEUTRAL, 1)])],
         "conversation 4: pair with neutral emotion at utterance 2"),
        ([make_conversation(5, [JOY, JOY], [(3, JOY, 1)])],
         "conversation 5: pair references missing utterance id 3 in field emotion_utterance_id"),
        ([make_conversation(5, [JOY, JOY], [(1, JOY, 0)])],
         "conversation 5: pair references missing utterance id 0 in field cause_utterance_id"),
        ([make_conversation(6, [ANGER, JOY], [(1, JOY, 2)])],
         "conversation 6: pair emotion 'joy' disagrees with gold emotion 'anger' of utterance 1"),
        ([make_conversation(7, [JOY]), make_conversation(7, [ANGER])],
         "duplicate conversation_ID 7"),
    ], ids=["empty", "consecutive", "neutral", "emotion_id", "cause_id", "disagrees",
            "duplicate"])
    def test_message(self, conversations, message):
        with pytest.raises(DatasetError) as exc:
            validate_dataset(make_dataset(conversations))
        assert str(exc.value) == message


class TestLoad:
    def test_basic_parse(self, tmp_path):
        ds = load_dataset(write_json(tmp_path, [GOOD_CONV]))
        assert len(ds.conversations) == 1
        conv = ds.conversations[0]
        assert conv.gold_pairs == (EmotionCausePair(3, Emotion.JOY, 2),)
        assert conv.utterances[1].gold_emotion is Emotion.JOY
        assert conv.utterances[0].speaker == "A"

    def test_pair_emotion_case_insensitive(self, tmp_path):
        conv = json.loads(json.dumps(GOOD_CONV))
        conv["emotion-cause_pairs"] = [["3_JoY", "2"]]
        ds = load_dataset(write_json(tmp_path, [conv]))
        assert ds.conversations[0].gold_pairs[0].emotion is Emotion.JOY

    def test_cause_ref_span_suffix_ignored(self, tmp_path):
        conv = json.loads(json.dumps(GOOD_CONV))
        conv["emotion-cause_pairs"] = [["3_joy", "2_great news"]]
        ds = load_dataset(write_json(tmp_path, [conv]))
        assert ds.conversations[0].gold_pairs[0].cause_utterance_id == 2

    def test_unknown_emotion_is_error(self, tmp_path):
        conv = json.loads(json.dumps(GOOD_CONV))
        conv["emotion-cause_pairs"] = [["3_elation", "2"]]
        with pytest.raises(DatasetError, match="elation"):
            load_dataset(write_json(tmp_path, [conv]))

    @pytest.mark.parametrize("field, value, message", [
        ("conversation_ID", True, "conversation_ID True is not an integer"),
        ("utterance_ID", True, "conversation 1: utterance_ID True is not an integer"),
        ("utterance_ID", False, "conversation 1: utterance_ID False is not an integer"),
        ("utterance_ID", 1.7, "conversation 1: utterance_ID 1.7 is not an integer"),
    ], ids=["bool conversation", "true utterance", "false utterance", "fraction"])
    def test_bool_or_fractional_id_is_error(self, tmp_path, field, value, message):
        # int() would keep True as an id and cut 1.7 to 1
        conv = json.loads(json.dumps(GOOD_CONV))
        (conv if field == "conversation_ID" else conv["conversation"][0])[field] = value
        with pytest.raises(DatasetError) as exc:
            load_dataset(write_json(tmp_path, [conv]))
        assert str(exc.value) == message

    def test_integral_float_id_is_read_as_int(self, tmp_path):
        conv = json.loads(json.dumps(GOOD_CONV))
        conv["conversation"][1]["utterance_ID"] = 2.0
        ids = [u.utterance_id for u in load_dataset(write_json(tmp_path, [conv]))
               .conversations[0].utterances]
        assert ids == [1, 2, 3] and all(type(i) is int for i in ids)

    def test_out_of_range_pair(self, tmp_path):
        conv = {
            "conversation_ID": 4,
            "conversation": [
                {"utterance_ID": i, "text": "t", "speaker": "A", "emotion": "joy"}
                for i in range(1, 5)
            ],
            "emotion-cause_pairs": [["5_joy", "2"]],
        }
        with pytest.raises(DatasetError, match="missing utterance id 5"):
            load_dataset(write_json(tmp_path, [conv]))

    def test_pair_gold_emotion_mismatch(self, tmp_path):
        conv = json.loads(json.dumps(GOOD_CONV))
        conv["emotion-cause_pairs"] = [["1_joy", "1"]]  # utterance 1 is neutral
        with pytest.raises(DatasetError, match="disagrees"):
            load_dataset(write_json(tmp_path, [conv]))

    def test_neutral_pair_rejected(self, tmp_path):
        conv = json.loads(json.dumps(GOOD_CONV))
        conv["emotion-cause_pairs"] = [["1_neutral", "1"]]
        with pytest.raises(DatasetError, match="neutral"):
            load_dataset(write_json(tmp_path, [conv]))

    def test_nonconsecutive_ids(self, tmp_path):
        conv = {
            "conversation_ID": 9,
            "conversation": [
                {"utterance_ID": 1, "text": "a", "speaker": "A"},
                {"utterance_ID": 3, "text": "b", "speaker": "B"},
            ],
        }
        with pytest.raises(DatasetError, match="consecutive"):
            load_dataset(write_json(tmp_path, [conv]))

    def test_duplicate_conversation_ids(self, tmp_path):
        with pytest.raises(DatasetError, match="duplicate conversation_ID"):
            load_dataset(write_json(tmp_path, [GOOD_CONV, GOOD_CONV]))

    def test_missing_field_names_conversation(self, tmp_path):
        conv = {"conversation_ID": 7, "conversation": [{"utterance_ID": 1, "text": "x"}]}
        with pytest.raises(DatasetError, match=r"conversation 7.*speaker"):
            load_dataset(write_json(tmp_path, [conv]))

    def test_unlabeled_test_data_allowed(self, tmp_path):
        conv = {
            "conversation_ID": 2,
            "conversation": [{"utterance_ID": 1, "text": "x", "speaker": "A"}],
        }
        ds = load_dataset(write_json(tmp_path, [conv]), split_tag="test")
        assert ds.conversations[0].utterances[0].gold_emotion is None
        assert ds.conversations[0].gold_pairs is None

    def test_corpus_scale_counts(self, tmp_path):
        # same shape as the full training release: 1,344 conversations and
        # 13,509 utterances in total (69 of length 11, the rest of length 10)
        convs = []
        for cid in range(1, 1345):
            n = 11 if cid <= 69 else 10
            convs.append({
                "conversation_ID": cid,
                "conversation": [
                    {"utterance_ID": u, "text": "t", "speaker": "A", "emotion": "neutral"}
                    for u in range(1, n + 1)
                ],
            })
        ds = load_dataset(write_json(tmp_path, convs))
        assert len(ds.conversations) == 1344
        assert ds.n_utterances() == 13509


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path, tiny_dataset):
        path = tmp_path / "rt.json"
        save_dataset(tiny_dataset, path)
        again = load_dataset(path)
        assert again.conversations == tiny_dataset.conversations

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_round_trip(self, tmp_path_factory, data):
        emotions = data.draw(st.lists(
            st.sampled_from(list(EMOTIONS)), min_size=1, max_size=6))
        pairs = []
        for i, e in enumerate(emotions, start=1):
            if e is not Emotion.NEUTRAL and data.draw(st.booleans()):
                cause = data.draw(st.integers(1, len(emotions)))
                pairs.append((i, e, cause))
        ds = make_dataset([make_conversation(1, emotions, pairs)])
        path = tmp_path_factory.mktemp("rt") / "d.json"
        save_dataset(ds, path)
        assert load_dataset(path).conversations == ds.conversations


def _json_dumps_bytes(dataset: Dataset) -> bytes:
    """The bytes ``save_dataset`` wrote through ``json.dumps(..., indent=1)``
    before it spelled the layout out itself: the oracle for its bytes."""
    def conversation(conv):
        obj = {
            "conversation_ID": conv.conversation_id,
            "conversation": [
                {"utterance_ID": u.utterance_id, "text": u.transcript, "speaker": u.speaker,
                 **({"emotion": u.gold_emotion.label} if u.gold_emotion is not None else {})}
                for u in conv.utterances],
        }
        if conv.gold_pairs is not None:
            obj["emotion-cause_pairs"] = [
                [f"{p.emotion_utterance_id}_{p.emotion.label}", str(p.cause_utterance_id)]
                for p in conv.gold_pairs]
        return obj

    text = json.dumps([conversation(c) for c in dataset.conversations], indent=1) + "\n"
    return text.encode("utf-8")


# every code point, lone surrogates included, and the characters JSON escapes
STRINGS = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["", '"', "\\", "\x00\x1f\x7f", "\ud800", "\udfff x", "\u2028", "é😀", "a\tb\nc"])
IDS = st.integers() | st.sampled_from([0, -1, 2**63, 10**30])
EMOTION_OR_NONE = st.none() | st.sampled_from(EMOTIONS)
DATASETS = st.builds(Dataset, st.lists(st.builds(
    Conversation, IDS,
    st.lists(st.builds(Utterance, IDS, STRINGS, STRINGS, EMOTION_OR_NONE), max_size=3).map(tuple),
    st.none() | st.lists(st.builds(EmotionCausePair, IDS, st.sampled_from(EMOTIONS), IDS),
                         max_size=4).map(tuple),
), max_size=3).map(tuple))


class TestSaveBytes:
    @settings(max_examples=200, deadline=None)
    @given(dataset=DATASETS)
    @example(dataset=Dataset(()))
    @example(dataset=Dataset((Conversation(1, (), None), Conversation(2, (), ()))))
    @example(dataset=Dataset((Conversation(
        7, (Utterance(1, "\ud800\x00", "é\u2028", Emotion.JOY), Utterance(2, "", "")),
        (EmotionCausePair(1, Emotion.JOY, 2), EmotionCausePair(1, Emotion.JOY, 1))),)))
    def test_bytes_are_json_dumps_indent_1(self, tmp_path_factory, dataset):
        path = tmp_path_factory.mktemp("save") / "d.json"
        save_dataset(dataset, path)
        assert path.read_bytes() == _json_dumps_bytes(dataset)

    def test_empty_dataset_is_an_empty_list(self, tmp_path):
        save_dataset(Dataset(()), tmp_path / "d.json")
        assert (tmp_path / "d.json").read_bytes() == b"[]\n"


class TestSplit:
    def test_ninety_ten(self):
        ds = make_dataset([make_conversation(c, [Emotion.JOY], [(1, Emotion.JOY, 1)])
                           for c in range(1, 11)])
        train, val = split_train_val(ds, 0.1, seed=0)
        assert (len(train.conversations), len(val.conversations)) == (9, 1)

    def test_corpus_scale_split(self):
        ds = make_dataset([make_conversation(c, [Emotion.NEUTRAL]) for c in range(1344)])
        train, val = split_train_val(ds, 0.1, seed=5)
        assert (len(train.conversations), len(val.conversations)) == (1210, 134)

    def test_same_seed_same_split(self):
        ds = make_dataset([make_conversation(c, [Emotion.JOY], [(1, Emotion.JOY, 1)])
                           for c in range(20)])
        a = split_train_val(ds, 0.25, seed=42)
        b = split_train_val(ds, 0.25, seed=42)
        assert a[0].conversations == b[0].conversations
        assert a[1].conversations == b[1].conversations

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           fraction=st.floats(0.05, 0.95))
    def test_partition_property(self, n, seed, fraction):
        ds = make_dataset([make_conversation(c, [Emotion.NEUTRAL]) for c in range(n)])
        n_val = int(np.floor(fraction * n + 0.5))
        if n_val == 0 or n_val == n:
            with pytest.raises(DatasetError):
                split_train_val(ds, fraction, seed)
            return
        train, val = split_train_val(ds, fraction, seed)
        train_ids = {c.conversation_id for c in train.conversations}
        val_ids = {c.conversation_id for c in val.conversations}
        assert train_ids | val_ids == {c.conversation_id for c in ds.conversations}
        assert not (train_ids & val_ids)
        assert len(val.conversations) == n_val

    def test_empty_side_error(self):
        ds = make_dataset([make_conversation(c, [Emotion.NEUTRAL]) for c in range(2)])
        with pytest.raises(DatasetError, match="empty side"):
            split_train_val(ds, 0.01, seed=0)


def dataset_with_counts(counts):
    """One long conversation holding `counts[k]` utterances of emotion k."""
    emotions = []
    for emotion, count in zip(EMOTIONS, counts):
        emotions.extend([emotion] * count)
    return make_dataset([make_conversation(1, emotions)])


class TestClassWeights:
    def test_uniform_counts_all_ones(self):
        ds = dataset_with_counts([3] * 7)
        assert np.array_equal(emotion_class_weights(ds), np.ones(7))

    def test_skewed_counts_formula(self):
        # six classes once, neutral seven times: T=13
        counts = [1, 1, 1, 1, 7, 1, 1]
        weights = emotion_class_weights(dataset_with_counts(counts))
        assert weights[int(Emotion.NEUTRAL)] == pytest.approx(13 / 49, abs=1e-12)
        for e in EMOTIONS:
            if e is not Emotion.NEUTRAL:
                assert weights[int(e)] == pytest.approx(13 / 7, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(counts=st.lists(st.integers(1, 9), min_size=7, max_size=7),
           scale=st.integers(2, 5))
    def test_scale_invariance(self, counts, scale):
        w1 = emotion_class_weights(dataset_with_counts(counts))
        w2 = emotion_class_weights(dataset_with_counts([c * scale for c in counts]))
        np.testing.assert_allclose(w1, w2, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(counts=st.permutations([1, 2, 3, 4, 5, 6, 7]))
    def test_permutation_equivariance(self, counts):
        weights = emotion_class_weights(dataset_with_counts(list(counts)))
        base = emotion_class_weights(dataset_with_counts([1, 2, 3, 4, 5, 6, 7]))
        # relabeling permutes the weight vector the same way
        for k, c in enumerate(counts):
            assert weights[k] == pytest.approx(base[c - 1], rel=1e-12)

    def test_zero_count_error_mentions_floor(self):
        ds = dataset_with_counts([2, 2, 0, 2, 2, 2, 2])
        with pytest.raises(DatasetError, match="floor_count"):
            emotion_class_weights(ds)

    def test_floor_count_clamps(self):
        ds = dataset_with_counts([2, 2, 0, 2, 2, 2, 2])
        weights = emotion_class_weights(ds, floor_count=1)
        assert weights[2] == pytest.approx(12 / 7, abs=1e-12)  # T=12, count floored to 1


class TestCauseLabels:
    def test_membership(self):
        joy = Emotion.JOY
        conv = make_conversation(1, [joy] * 4, [(3, joy, 2), (3, joy, 3)])
        assert derive_cause_labels(conv).tolist() == [0, 1, 1, 0]

    def test_empty_pairs(self):
        conv = make_conversation(1, [Emotion.NEUTRAL, Emotion.NEUTRAL])
        assert derive_cause_labels(conv).tolist() == [0, 0]

    def test_shared_cause_labeled_once(self):
        joy, anger = Emotion.JOY, Emotion.ANGER
        conv = make_conversation(1, [joy, anger], [(1, joy, 1), (2, anger, 1)])
        assert derive_cause_labels(conv).tolist() == [1, 0]

    def test_missing_pairs_error(self):
        conv = make_conversation(1, [Emotion.JOY], [(1, Emotion.JOY, 1)])
        conv = conv.__class__(conv.conversation_id, conv.utterances, None)
        with pytest.raises(DatasetError, match="gold pairs"):
            derive_cause_labels(conv)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_ones_exactly_at_cause_ids(self, data):
        n = data.draw(st.integers(1, 8))
        emotions = [Emotion.JOY] * n
        cause_ids = data.draw(st.sets(st.integers(1, n)))
        pairs = [(data.draw(st.integers(1, n)), Emotion.JOY, c) for c in cause_ids]
        conv = make_conversation(1, emotions, pairs)
        labels = derive_cause_labels(conv)
        assert {i + 1 for i in np.flatnonzero(labels)} == cause_ids
