"""Hypothesis fuzzing of the two file parsers: arbitrary bytes and mutations of
valid files give a parsed result or the parser's own typed error, nothing else."""

import copy
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecpe.corpus import DatasetError, load_dataset
from mecpe.embeddings import EmbeddingError, load_precomputed

# tokens at the edges of int() and float(): empty, non-finite, overflowing,
# non-ASCII digits and spaces
TRICKY = ["", "nan", "-inf", "Infinity", "1e400", "99999999999999999999", "-0",
          "0x1", "1_0", "١", "²", "1.5", "+1", " ", " "]

# a small alphabet keeps Hypothesis from building its full Unicode table
TEXT = st.text(alphabet="019.-+eE_xn=\t ١²é", max_size=8)

VALID_EMBEDDINGS = (
    "dim=2 modality=text\n"
    "1 1 0.25 -1.5\n"
    "1 2 1e-07 3.141592653589793\n"
    "\n"
    "2 1 2.0 -0.3333333333333333\n"
)

JSON_EDGES = st.sampled_from([
    None, True, 0, -1, 1.5, 2**64, float("inf"), float("nan"), [], {},
    "", "x", "²", "1_joy", "2_Anger", "²_joy", "1_²", "9_joy", "1_", "_1"])
JSON_VALUES = st.recursive(
    JSON_EDGES | st.integers() | st.floats() | TEXT,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(TEXT, children, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def _load_embeddings(path, raw: bytes):
    path.write_bytes(raw)
    try:
        table = load_precomputed(path, "text")
    except EmbeddingError:
        return
    assert table.keys.dtype == np.int64 and table.keys.shape == (len(table.vectors), 2)
    assert table.vectors.dtype == np.float64 and table.vectors.shape[1] == table.dim >= 1
    assert np.isfinite(table.vectors).all()


def _load_dataset(path, raw: bytes):
    path.write_bytes(raw)
    try:
        dataset = load_dataset(path)
    except DatasetError:
        return
    # a loaded id is an int, never a bool, and equals a number the file gave
    for conv, obj in zip(dataset.conversations, json.loads(raw)):
        ids = [(conv.conversation_id, obj["conversation_ID"])] + [
            (utt.utterance_id, item["utterance_ID"])
            for utt, item in zip(conv.utterances, obj["conversation"])]
        for parsed, given in ids:
            assert type(parsed) is int and (isinstance(given, str) or parsed == given)


@settings(max_examples=100, deadline=None)
@given(raw=st.binary(max_size=200))
@example(raw=b"dim=1 modality=text\n1 1 \xff\n")
def test_embedding_file_arbitrary_bytes(fuzz_file, raw):
    _load_embeddings(fuzz_file, raw)


@settings(max_examples=100, deadline=None)
@given(raw=st.binary(max_size=200))
@example(raw=b"[" * 100_000)
def test_dataset_file_arbitrary_bytes(fuzz_file, raw):
    _load_dataset(fuzz_file, raw)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(["token", "drop line", "repeat line", "bytes"]),
       row=st.integers(0, 5), col=st.integers(0, 3),
       token=st.sampled_from(TRICKY) | TEXT,
       junk=st.binary(min_size=1, max_size=8))
@example(kind="token", row=0, col=0, token="dim=0", junk=b"-")
@example(kind="token", row=1, col=1, token="99999999999999999999", junk=b"-")
def test_embedding_file_mutated(fuzz_file, kind, row, col, token, junk):
    lines = VALID_EMBEDDINGS.split("\n")
    row %= len(lines)
    if kind == "token":
        parts = lines[row].split(" ")
        parts[col % len(parts)] = token
        lines[row] = " ".join(parts)
    elif kind == "drop line":
        del lines[row]
    elif kind == "repeat line":
        lines.insert(row, lines[row])
    raw = "\n".join(lines).encode("utf-8")
    if kind == "bytes":
        at = len(raw) * row // 5
        raw = raw[:at] + junk + raw[at:]
    _load_embeddings(fuzz_file, raw)


BASE_DATASET = [
    {"conversation_ID": cid,
     "conversation": [
         {"utterance_ID": uid, "text": f"utterance {uid}", "speaker": "AB"[uid % 2],
          "emotion": emotion}
         for uid, emotion in enumerate(("neutral", "joy", "anger"), start=1)],
     "emotion-cause_pairs": [["2_joy", "1"], ["3_anger", "3_because"]]}
    for cid in (1, 2)
]
DELETE = object()


def _field(doc, name, conv, utt):
    """(container, key) of one field of a dataset document."""
    conversation = doc[conv]
    pairs = conversation["emotion-cause_pairs"]
    return {
        "conversation_ID": (conversation, name),
        "conversation": (conversation, name),
        "emotion-cause_pairs": (conversation, name),
        "pair": (pairs, utt % 2),
        "pair emotion": (pairs[utt % 2], 0),
        "pair cause": (pairs[utt % 2], 1),
    }.get(name, (conversation["conversation"][utt], name))


@settings(max_examples=250, deadline=None)
@given(name=st.sampled_from(["conversation_ID", "conversation", "utterance_ID", "text",
                             "speaker", "emotion", "emotion-cause_pairs", "pair",
                             "pair emotion", "pair cause"]),
       conv=st.integers(0, 1), utt=st.integers(0, 2),
       value=st.just(DELETE) | JSON_VALUES)
@example(name="utterance_ID", conv=0, utt=0, value=float("inf"))
@example(name="conversation_ID", conv=0, utt=0, value=True)
@example(name="utterance_ID", conv=0, utt=0, value=True)
@example(name="utterance_ID", conv=0, utt=0, value=1.7)
@example(name="pair emotion", conv=0, utt=0, value="²_joy")
def test_dataset_file_mutated(fuzz_file, name, conv, utt, value):
    doc = copy.deepcopy(BASE_DATASET)
    container, key = _field(doc, name, conv, utt)
    if value is DELETE:
        del container[key]
    else:
        container[key] = value
    _load_dataset(fuzz_file, json.dumps(doc).encode("utf-8"))
