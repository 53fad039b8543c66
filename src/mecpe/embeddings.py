"""Per-utterance feature providers: precomputed embedding files or synthetic draws.

A provider holds one fused float64 matrix whose columns are text || audio ||
video, one row per (conversation_id, utterance_id), and which modalities each
row has; a conversation's features are one gather of its rows.  No encoder
runs here: files hold features extracted elsewhere.

A synthetic vector is the first draw of ``np.random.default_rng((seed,
conversation_id, utterance_id, slot))``.  ``_pcg64_states`` computes those
generators' states for many keys in one numpy pass; ``_utterance_rng``, the
per-key generator itself, is the reference it is tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .corpus import N_EMOTIONS, Dataset, read_text

MODALITIES = ("text", "audio", "video")


class EmbeddingError(Exception):
    """Raised for malformed embedding files or provider misuse."""


@dataclass(frozen=True)
class PlantedRule:
    """Make gold emotions linearly recoverable from the text block.

    The first 7 text coordinates are set to a one-hot of the gold emotion and
    perturbed by N(0, noise_scale^2) noise.
    """

    noise_scale: float = 0.1


class ModalityTable(NamedTuple):
    """One modality's vectors: row i of ``vectors`` (n, dim) belongs to the
    (conversation_id, utterance_id) in row i of ``keys`` (n, 2) int64."""

    modality: str
    dim: int
    keys: np.ndarray
    vectors: np.ndarray


def load_precomputed(path, modality: str) -> ModalityTable:
    """Read an embedding file: header "dim=<d> modality=<m>" with d >= 1, then
    one record "<conversation_id> <utterance_id> <d reals>" per line; blank
    lines are skipped.  Keys must be unique and entries finite.

    One ``np.loadtxt`` call parses every record into an int64 key array and a
    float64 vector array.  Where it refuses one, the records are parsed
    again line by line, which names the line at fault and takes the
    spellings only ``int()`` and ``float()`` accept ("1_0", "١"): either
    way a file gives the same table or the same error.
    """
    lines = read_text(path, EmbeddingError).split("\n")
    header = lines[0].strip()
    fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
    if "dim" not in fields or "modality" not in fields:
        raise EmbeddingError(f"{path}: malformed header {header!r}")
    try:
        dim = int(fields["dim"])
    except ValueError:
        raise EmbeddingError(
            f"{path}:1: header dim {fields['dim']!r} is not an integer") from None
    if dim < 1:
        raise EmbeddingError(f"{path}:1: header dim {dim} must be at least 1")
    try:
        np.empty((0, dim))  # numpy refuses to shape more float64 columns than it can address
    except ValueError:
        raise EmbeddingError(f"{path}:1: header dim {dim} is too large for an array") from None
    if fields["modality"] != modality:
        raise EmbeddingError(
            f"{path}: header modality {fields['modality']!r} does not match"
            f" requested {modality!r}"
        )
    records = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2)
               if line.strip()]
    keys = vectors = None
    # loadtxt allocates dim columns per row: only once a record has shown them
    if records and len(records[0][1].split()) == 2 + dim:
        try:
            with warnings.catch_warnings():
                # older numpy reads "1.5" in an int column as 1, warning
                # only: that is a refusal here, as it is for int()
                warnings.simplefilter("error", DeprecationWarning)
                table = np.loadtxt([line for _, line in records], comments=None, ndmin=1,
                                   dtype=[("key", np.int64, (2,)),
                                          ("vector", np.float64, (dim,))])
            keys = np.ascontiguousarray(table["key"])
            vectors = np.ascontiguousarray(table["vector"])
        except (ValueError, DeprecationWarning):
            pass  # the loop names the line at fault, or takes what int()/float() take
    if keys is None:
        keys, vectors = _parse_records(path, records, dim)
    _, first = np.unique(keys, axis=0, return_index=True)
    for rows, problem in ((np.setdiff1d(np.arange(len(keys)), first), "duplicate key"),
                          (np.flatnonzero(~np.isfinite(vectors).all(axis=1)),
                           "non-finite entry for key")):
        if rows.size:
            raise EmbeddingError(f"{path}:{records[rows[0]][0]}: {problem}"
                                 f" {tuple(keys[rows[0]].tolist())}")
    return ModalityTable(modality, dim, keys, vectors)


def _parse_records(path, records, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(keys, vectors) of ``(lineno, line)`` records, converted field by
    field with ``int()`` and ``float()``; raises EmbeddingError naming the
    first line with the wrong field count or a field that does not convert."""
    keys = np.empty((len(records), 2), dtype=np.int64)
    vectors = np.empty((0, dim))
    for row, (lineno, line) in enumerate(records):
        parts = line.split()
        if len(parts) != 2 + dim:
            raise EmbeddingError(
                f"{path}:{lineno}: expected {2 + dim} fields, got {len(parts)}")
        if not row:  # sized only once a record has shown its dim fields
            vectors = np.empty((len(records), dim))
        try:
            keys[row], vectors[row] = parts[:2], parts[2:]
        except (ValueError, OverflowError) as exc:
            raise EmbeddingError(f"{path}:{lineno}: non-numeric field ({exc})") from None
    return keys, vectors


def save_embedding_file(path, table: ModalityTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"dim={table.dim} modality={table.modality}\n")
        order = np.lexsort((table.keys[:, 1], table.keys[:, 0]))
        for (cid, uid), vec in zip(table.keys[order].tolist(), table.vectors[order].tolist()):
            fh.write(f"{cid} {uid} {' '.join(map(repr, vec))}\n")


class EmbeddingProvider:
    """Fused feature source: one (N, D) float64 matrix with columns text ||
    audio || video, a (conversation_id, utterance_id) -> row index, and which
    modalities each row has."""

    def __init__(self, text: ModalityTable, audio: ModalityTable, video: ModalityTable):
        tables = (text, audio, video)
        if tuple(t.modality for t in tables) != MODALITIES:
            raise EmbeddingError(
                f"tables must come in the order {MODALITIES},"
                f" got {tuple(t.modality for t in tables)}")
        self.dimensions = tuple(t.dim for t in tables)
        edges = np.cumsum((0, *self.dimensions))
        self._blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]
        # one row per key, in order of first appearance
        self._rows: dict[tuple[int, int], int] = {}
        rows = [[self._rows.setdefault(key, len(self._rows))
                 for key in map(tuple, t.keys.tolist())] for t in tables]
        self._keys = np.array(list(self._rows), dtype=np.int64).reshape(-1, 2)
        try:
            self._matrix = np.zeros((len(self._keys), self.feature_dim))
        except (ValueError, MemoryError):
            raise EmbeddingError(f"cannot allocate the feature matrix: {len(self._keys)} rows"
                                 f" of {self.feature_dim} features") from None
        self._present = np.zeros((len(self._keys), len(MODALITIES)), dtype=bool)
        for m, (table, at) in enumerate(zip(tables, rows)):
            self._matrix[at, self._blocks[m]] = table.vectors
            self._present[at, m] = True

    @property
    def feature_dim(self) -> int:
        return sum(self.dimensions)

    @property
    def tables(self) -> dict[str, ModalityTable]:
        """Each modality's rows and column block, e.g. for ``save_embedding_file``."""
        return {
            modality: ModalityTable(modality, dim, self._keys[self._present[:, m]],
                                    self._matrix[self._present[:, m], self._blocks[m]])
            for m, (modality, dim) in enumerate(zip(MODALITIES, self.dimensions))
        }

    def conversation_features(self, conv) -> np.ndarray:
        """T x D feature matrix for one conversation: one gather of its rows."""
        rows = [self._rows.get((conv.conversation_id, u.utterance_id), -1)
                for u in conv.utterances]
        if -1 in rows or not self._present[rows].all():
            modality, *key = self.missing_keys(Dataset(conversations=(conv,)))[0]
            raise EmbeddingError(f"no {modality} embedding for key {tuple(key)}")
        return self._matrix[rows]

    def missing_keys(self, dataset: Dataset) -> list[tuple[str, int, int]]:
        missing = []
        for conv in dataset.conversations:
            for utt in conv.utterances:
                key = (conv.conversation_id, utt.utterance_id)
                row = self._rows.get(key)
                missing += [(modality, *key) for m, modality in enumerate(MODALITIES)
                            if row is None or not self._present[row, m]]
        return missing

    def validate_coverage(self, dataset: Dataset) -> None:
        missing = self.missing_keys(dataset)
        if missing:
            shown = ", ".join(f"{m}:({c},{u})" for m, c, u in missing[:20])
            more = "" if len(missing) <= 20 else f" (+{len(missing) - 20} more)"
            raise EmbeddingError(f"missing embeddings for keys: {shown}{more}")


def provider_from_files(paths: dict[str, str]) -> EmbeddingProvider:
    return EmbeddingProvider(*(load_precomputed(paths[m], m) for m in MODALITIES))


def _utterance_rng(seed: int, cid: int, uid: int, slot: int) -> np.random.Generator:
    # keyed per utterance so lookups are order-independent and reproducible;
    # the reference for _pcg64_states
    return np.random.default_rng((seed, cid, uid, slot))


def _hash_constants(value: int, mult: int, n: int) -> list[tuple[np.uint32, np.uint32]]:
    """The (xor, multiplier) pair of each of n SeedSequence hashes in turn:
    the hash constant goes from ``value`` by ``* mult`` before each multiply."""
    pairs = []
    for _ in range(n):
        after = value * mult & 0xFFFFFFFF
        pairs.append((np.uint32(value), np.uint32(after)))
        value = after
    return pairs


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): INIT_A and
# MULT_A for the hashmix calls of mix_entropy, INIT_B and MULT_B for the 8
# words of generate_state(4, uint64), MIX_MULT_L and MIX_MULT_R for mix
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier (pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# keys whose PCG64 states are alive at once as Python ints (~150 kB)
_SEED_CHUNK = 1024


def _hash(value: np.ndarray, xor: np.uint32, mult: np.uint32) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * _MIX_MULT_L - y * _MIX_MULT_R
    return mixed ^ mixed >> np.uint32(16)


def _pcg64_states(words: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``np.random.default_rng(tuple(row))`` for each
    row of an (n, L) uint32 array of words, L >= 4, in wrapping uint32
    arithmetic.

    SeedSequence's mix_entropy with a pool of 4: hashmix the first four
    words in, mix a hash of every pool word into every other, then mix a
    hash of each further word into every pool word.  ``generate_state(4,
    uint64)`` then hashes the pool twice round.  The hash constants run the
    same for every row, so each step is one numpy operation over all rows.
    PCG64 then seeds its LCG from those 4 words with two steps, here on
    Python ints."""
    hashes = iter(_hash_constants(_INIT_A, _MULT_A, 4 * words.shape[1]))
    pool = [_hash(column, *next(hashes)) for column in words.T[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], *next(hashes)))
    for column in words.T[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(column, *next(hashes)))
    generated = np.stack([_hash(pool[i % 4], *pair) for i, pair in enumerate(_STATE_HASHES)],
                         axis=1)
    seeded = []
    for s_hi, s_lo, i_hi, i_lo in generated.astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        seeded.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return seeded


def synthetic_provider(
    seed: int,
    dims: tuple[int, int, int],
    dataset: Dataset,
    planted_rule: PlantedRule | None = None,
) -> EmbeddingProvider:
    """Deterministic standard-normal vectors for every utterance of a dataset.

    Modality ``slot`` of utterance ``uid`` of conversation ``cid`` is the
    first draw of ``np.random.default_rng((seed, cid, uid, slot))``: the keys
    are seeded together by ``_pcg64_states`` into one reused PCG64.  The seed
    and utterance ids must be >= 0 and conversation ids lie in [0, 2**63).

    With a planted rule the first 7 text coordinates become a noisy one-hot of
    the gold emotion, so that labels are linearly recoverable end to end.
    """
    if any(d < 1 for d in dims):
        raise EmbeddingError(f"modality dims must be positive, got {dims}")
    if planted_rule is not None and dims[0] < N_EMOTIONS:
        raise EmbeddingError(f"planted rule needs text dim >= {N_EMOTIONS}, got {dims[0]}")
    try:
        np.empty((0, sum(dims)))  # numpy refuses to shape more float64 columns than it can address
    except ValueError:
        raise EmbeddingError(f"modality dims {dims} are too large for an array") from None
    for conv in dataset.conversations:
        if not 0 <= conv.conversation_id < 2**63:
            raise EmbeddingError(
                f"conversation {conv.conversation_id}: synthetic embeddings need"
                f" conversation ids in [0, 2**63)")
    utterances = [(conv.conversation_id, utt) for conv in dataset.conversations
                  for utt in conv.utterances]
    if planted_rule is not None:
        for cid, utt in utterances:
            if utt.gold_emotion is None:
                raise EmbeddingError(
                    f"planted rule requires gold emotions; conversation"
                    f" {cid} utterance {utt.utterance_id} is unlabeled"
                )
    keys = np.array([(cid, utt.utterance_id) for cid, utt in utterances],
                    dtype=np.int64).reshape(-1, 2)
    if seed < 0 or (keys[:, 1] < 0).any():  # validated datasets number utterances from 1
        raise EmbeddingError("synthetic embeddings need a seed and utterance ids >= 0")
    # SeedSequence takes each entry as its 32-bit words, low word first, one
    # for 0; the keys whose ids take as many words share one word layout
    seed_words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    wide = keys >= 2**32
    layouts = [((cid, uid), np.flatnonzero((wide[:, 0] == cid) & (wide[:, 1] == uid)))
               for cid in (False, True) for uid in (False, True)]
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    tables = [np.empty((len(keys), dim)) for dim in dims]
    for slot, table in enumerate(tables):
        for layout, group in layouts:
            for start in range(0, len(group), _SEED_CHUNK):
                rows = group[start:start + _SEED_CHUNK]
                ids = [part for column, two in zip(keys[rows].T, layout)
                       for part in ((column & 0xFFFFFFFF, column >> 32) if two else (column,))]
                words = np.array(np.broadcast_arrays(*seed_words, *ids, slot), dtype=np.uint32).T
                for row, (state, inc) in zip(rows.tolist(), _pcg64_states(words)):
                    bit_generator.state = {"bit_generator": "PCG64",
                                           "state": {"state": state, "inc": inc},
                                           "has_uint32": 0, "uinteger": 0}
                    generator.standard_normal(out=table[row])
    if planted_rule is not None:
        onehot = np.zeros((len(keys), N_EMOTIONS))
        onehot[np.arange(len(keys)), [int(utt.gold_emotion) for _, utt in utterances]] = 1.0
        text = tables[0][:, :N_EMOTIONS]
        text[...] = onehot + planted_rule.noise_scale * text
    return EmbeddingProvider(*(
        ModalityTable(modality, dim, keys, table)
        for modality, dim, table in zip(MODALITIES, dims, tables)))
