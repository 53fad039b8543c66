"""Per-utterance feature providers: precomputed embedding files or synthetic draws.

A provider holds one fused float64 matrix whose columns are text || audio ||
video, one row per (conversation_id, utterance_id), and which modalities each
row has; a conversation's features are one gather of its rows.  No encoder
runs here: files hold features extracted elsewhere.
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
    # keyed per utterance so lookups are order-independent and reproducible
    return np.random.default_rng((seed, cid, uid, slot))


def synthetic_provider(
    seed: int,
    dims: tuple[int, int, int],
    dataset: Dataset,
    planted_rule: PlantedRule | None = None,
) -> EmbeddingProvider:
    """Deterministic standard-normal vectors for every utterance of a dataset.

    With a planted rule the first 7 text coordinates become a noisy one-hot of
    the gold emotion, so that labels are linearly recoverable end to end.
    """
    if any(d < 1 for d in dims):
        raise EmbeddingError(f"modality dims must be positive, got {dims}")
    if planted_rule is not None and dims[0] < N_EMOTIONS:
        raise EmbeddingError(f"planted rule needs text dim >= {N_EMOTIONS}, got {dims[0]}")
    utterances = [(conv.conversation_id, utt) for conv in dataset.conversations
                  for utt in conv.utterances]
    keys = np.array([(cid, utt.utterance_id) for cid, utt in utterances],
                    dtype=np.int64).reshape(-1, 2)
    vectors = [[] for _ in dims]
    for cid, utt in utterances:
        for slot, dim in enumerate(dims):
            vec = _utterance_rng(seed, cid, utt.utterance_id, slot).standard_normal(dim)
            if slot == 0 and planted_rule is not None:
                if utt.gold_emotion is None:
                    raise EmbeddingError(
                        f"planted rule requires gold emotions; conversation"
                        f" {cid} utterance {utt.utterance_id} is unlabeled"
                    )
                onehot = np.zeros(N_EMOTIONS)
                onehot[int(utt.gold_emotion)] = 1.0
                vec[:N_EMOTIONS] = onehot + planted_rule.noise_scale * vec[:N_EMOTIONS]
            vectors[slot].append(vec)
    return EmbeddingProvider(*(
        ModalityTable(modality, dim, keys, np.array(vecs).reshape(-1, dim))
        for modality, dim, vecs in zip(MODALITIES, dims, vectors)))
