"""Hypothesis fuzzing of the three file readers: arbitrary bytes and mutations of
valid files give a parsed result or the reader's own typed error, nothing else.
The embedding reader's bulk parse is also checked against its line-by-line
parse."""

import copy
import io
import json
import struct
import warnings
import zipfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecpe import embeddings
from mecpe.checkpoint import CheckpointError, read_npz
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
@example(raw=b"dim=1000000000000 modality=text\n1 1 0.5\n")  # 8 TB asked for one record
@example(raw=b"dim=10000000000000000000000 modality=text\n")
@example(raw=b"dim=1152921504606846976 modality=text\n")  # 2**60 float64 columns
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


# int() and float() spellings, random and at the edges, for the bulk-vs-loop oracle
SPELLINGS = (st.sampled_from(TRICKY) | TEXT | st.floats().map(repr)
             | st.floats().map("{:e}".format)
             | st.floats(allow_nan=False, allow_infinity=False).map("{:+.3f}".format)
             | st.integers().map(str) | st.integers(-99, 99).map("{:+04d}".format))


def _table_or_error(path):
    try:
        table = load_precomputed(path, "text")
    except EmbeddingError as exc:
        return str(exc)
    return table.dim, table.keys.shape, table.vectors.shape, table.keys.tobytes(), \
        table.vectors.tobytes()


def test_embedding_file_takes_the_bulk_parse(fuzz_file):
    fuzz_file.write_text(VALID_EMBEDDINGS)
    with mock.patch.object(embeddings, "_parse_records", side_effect=AssertionError):
        table = load_precomputed(fuzz_file, "text")
    assert table.keys.tolist() == [[1, 1], [1, 2], [2, 1]]
    assert table.keys.flags.c_contiguous and table.vectors.flags.c_contiguous


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), SPELLINGS),
                      min_size=1, max_size=4))
@example(edits=[(1, 0, "1.5")])  # a float in a key column
@example(edits=[(1, 0, "1_0")])
@example(edits=[(1, 3, "١")])
@example(edits=[(2, 1, "99999999999999999999")])
@example(edits=[(4, 2, "1.0")])
@example(edits=[(3, 0, "1 2 3.5 -0")])
@example(edits=[(1, 2, "1.5\x0b2")])
def test_embedding_bulk_parse_matches_the_line_loop(fuzz_file, edits):
    lines = VALID_EMBEDDINGS.split("\n")
    for row, col, token in edits:
        row %= len(lines)
        parts = lines[row].split(" ")
        parts[col % len(parts)] = token
        lines[row] = " ".join(parts)
    fuzz_file.write_bytes("\n".join(lines).encode("utf-8"))
    bulk = _table_or_error(fuzz_file)
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("bulk parse off")):
        assert _table_or_error(fuzz_file) == bulk


def test_embedding_bulk_parse_refuses_what_it_only_warns_about(fuzz_file, monkeypatch):
    # older numpy parses a float in an int column through float, warning only
    loadtxt = np.loadtxt

    def warning_loadtxt(lines, **kwargs):
        table = loadtxt([line.replace("1.5", "1", 1) for line in lines], **kwargs)
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                      DeprecationWarning, stacklevel=2)
        return table

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    fuzz_file.write_text(VALID_EMBEDDINGS.replace("1 2 1e-07", "1.5 2 1e-07"))
    with pytest.raises(EmbeddingError, match=r":3: non-numeric field"):
        load_precomputed(fuzz_file, "text")


BUNDLE_META = {"stage": "tiny", "extra": {"note": "é"}}
BUNDLE_ARRAYS = {"a": np.arange(6.0).reshape(2, 3) - 2.5, "b": np.array([-1, 2], dtype=np.int64)}


def _bundle(save=np.savez, **arrays) -> bytes:
    buffer = io.BytesIO()
    save(buffer, __meta__=json.dumps(BUNDLE_META), **arrays)
    return buffer.getvalue()


BUNDLES = {
    "stored": _bundle(**BUNDLE_ARRAYS),
    "compressed": _bundle(np.savez_compressed, **BUNDLE_ARRAYS),
    "fortran": _bundle(**{**BUNDLE_ARRAYS, "a": np.asfortranarray(BUNDLE_ARRAYS["a"])}),
    "object": _bundle(**BUNDLE_ARRAYS, c=np.array([1, "x"], dtype=object)),
}


def _last_data_byte(raw: bytes) -> int:
    """Offset of the last stored byte of member ``a``."""
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        info = archive.getinfo("a.npy")
    name_size, extra_size = struct.unpack_from("<HH", raw, info.header_offset + 26)
    return info.header_offset + 30 + name_size + extra_size + info.compress_size - 1


@settings(max_examples=300, deadline=None)
@given(bundle=st.sampled_from(sorted(BUNDLES)),
       edit=st.sampled_from(["none", "truncate", "flip", "insert", "flip data"]),
       at=st.integers(0, 2**16), junk=st.binary(min_size=1, max_size=8))
@example(bundle="stored", edit="flip data", at=0, junk=b"-")
@example(bundle="compressed", edit="none", at=0, junk=b"-")
@example(bundle="fortran", edit="none", at=0, junk=b"-")
@example(bundle="object", edit="none", at=0, junk=b"-")
@example(bundle="compressed", edit="flip", at=481, junk=b"@")  # "zip file version 10.8"
@example(bundle="fortran", edit="flip", at=89, junk=b"b")  # B'fortran_order': the CRC, not a TypeError
def test_bundle_mutated(fuzz_file, bundle, edit, at, junk):
    raw = BUNDLES[bundle]
    at = _last_data_byte(raw) if edit == "flip data" else at % len(raw)
    if edit == "truncate":
        raw = raw[:at]
    elif edit in ("flip", "flip data"):
        raw = raw[:at] + bytes([raw[at] ^ (junk[0] or 1)]) + raw[at + 1:]
    elif edit == "insert":
        raw = raw[:at] + junk + raw[at:]
    fuzz_file.write_bytes(raw)
    try:
        meta, arrays = read_npz(fuzz_file, "bundle")
    except CheckpointError as exc:
        assert str(exc).startswith(f"{fuzz_file}: ")
        assert edit != "none" or bundle == "object"
        if edit == "flip data" and bundle in ("stored", "fortran"):
            assert "CRC" in str(exc)
        return
    # an unedited object member and a flipped stored data byte are refused
    assert (edit, bundle) != ("none", "object")
    assert edit != "flip data" or bundle == "compressed"
    assert all(type(a) is np.ndarray and a.flags.c_contiguous and a.flags.writeable
               for a in arrays.values())
    if edit == "none":
        assert meta == BUNDLE_META and arrays.keys() == BUNDLE_ARRAYS.keys()
        for name, array in arrays.items():
            assert array.dtype == BUNDLE_ARRAYS[name].dtype
            np.testing.assert_array_equal(array, BUNDLE_ARRAYS[name])


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
