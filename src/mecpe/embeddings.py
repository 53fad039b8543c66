"""Per-utterance feature providers: precomputed embedding files or synthetic draws.

A provider maps (conversation_id, utterance_id) to one vector per modality and
fuses them (text || audio || video) into the fixed-width feature consumed by
the stage models.  Frame index selection and mean pooling are exposed for
offline extraction scripts; no encoder runs here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Dataset

MODALITIES = ("text", "audio", "video")


class EmbeddingError(Exception):
    """Raised for malformed embedding files or provider misuse."""


@dataclass(frozen=True)
class ModalityEmbedding:
    modality: str
    vector: np.ndarray


@dataclass(frozen=True)
class PlantedRule:
    """Make gold emotions linearly recoverable from the text block.

    The first 7 text coordinates are set to a one-hot of the gold emotion and
    perturbed by N(0, noise_scale^2) noise.
    """

    noise_scale: float = 0.1


def mean_pool(vectors) -> np.ndarray:
    """Component-wise arithmetic mean of equally sized vectors."""
    vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
    if not vectors:
        raise EmbeddingError("mean_pool requires a non-empty list of vectors")
    dim = vectors[0].shape
    for v in vectors[1:]:
        if v.shape != dim:
            raise EmbeddingError(f"mean_pool dimension mismatch: {v.shape} vs {dim}")
    return np.mean(np.stack(vectors, axis=0), axis=0)


def equally_spaced_indices(n_total: int, k: int) -> list[int]:
    """k monotone frame indices covering [0, n_total-1]; repeats when n_total < k."""
    if n_total < 1 or k < 1:
        raise EmbeddingError(f"n_total and k must be positive, got {n_total}, {k}")
    if k == 1:
        return [0]
    return [i * (n_total - 1) // (k - 1) for i in range(k)]


def fuse(
    text: ModalityEmbedding, audio: ModalityEmbedding, video: ModalityEmbedding
) -> np.ndarray:
    """Concatenate modality vectors in the fixed order text || audio || video."""
    for emb, expected in zip((text, audio, video), MODALITIES):
        if emb.modality != expected:
            raise EmbeddingError(
                f"fuse expects modality {expected!r} in slot {expected}, got {emb.modality!r}"
            )
    return np.concatenate([text.vector, audio.vector, video.vector])


class ModalityTable:
    """Lookup of per-utterance vectors for a single modality."""

    def __init__(self, modality: str, dim: int, vectors: dict[tuple[int, int], np.ndarray]):
        if modality not in MODALITIES:
            raise EmbeddingError(f"unknown modality {modality!r}")
        self.modality = modality
        self.dim = dim
        self._vectors = vectors

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._vectors

    def get(self, conversation_id: int, utterance_id: int) -> ModalityEmbedding:
        key = (conversation_id, utterance_id)
        if key not in self._vectors:
            raise EmbeddingError(f"no {self.modality} embedding for key {key}")
        return ModalityEmbedding(self.modality, self._vectors[key])


def load_precomputed(path, modality: str) -> ModalityTable:
    """Read an embedding file: header "dim=<d> modality=<m>", then one record
    "<conversation_id> <utterance_id> <d reals>" per line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        fields = dict(
            part.split("=", 1) for part in header.split() if "=" in part
        )
        if "dim" not in fields or "modality" not in fields:
            raise EmbeddingError(f"{path}: malformed header {header!r}")
        try:
            dim = int(fields["dim"])
        except ValueError:
            raise EmbeddingError(
                f"{path}:1: header dim {fields['dim']!r} is not an integer") from None
        if fields["modality"] != modality:
            raise EmbeddingError(
                f"{path}: header modality {fields['modality']!r} does not match"
                f" requested {modality!r}"
            )
        vectors: dict[tuple[int, int], np.ndarray] = {}
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 2 + dim:
                raise EmbeddingError(
                    f"{path}:{lineno}: expected {2 + dim} fields, got {len(parts)}"
                )
            try:
                key = (int(parts[0]), int(parts[1]))
                vec = np.asarray([float(x) for x in parts[2:]], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingError(f"{path}:{lineno}: non-numeric field ({exc})") from None
            if key in vectors:
                raise EmbeddingError(f"{path}:{lineno}: duplicate key {key}")
            if not np.all(np.isfinite(vec)):
                raise EmbeddingError(f"{path}:{lineno}: non-finite entry for key {key}")
            vectors[key] = vec
    return ModalityTable(modality, dim, vectors)


def save_embedding_file(path, table: ModalityTable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"dim={table.dim} modality={table.modality}\n")
        for (cid, uid), vec in sorted(table._vectors.items()):
            values = " ".join(repr(float(x)) for x in vec)
            fh.write(f"{cid} {uid} {values}\n")


class EmbeddingProvider:
    """Fused feature source over a bound dataset, backed by modality tables."""

    def __init__(self, name: str, text: ModalityTable, audio: ModalityTable, video: ModalityTable):
        self.name = name
        self.tables = {"text": text, "audio": audio, "video": video}

    @property
    def dimensions(self) -> tuple[int, int, int]:
        return (self.tables["text"].dim, self.tables["audio"].dim, self.tables["video"].dim)

    @property
    def feature_dim(self) -> int:
        return sum(self.dimensions)

    def features(self, conversation_id: int, utterance_id: int) -> np.ndarray:
        return fuse(
            self.tables["text"].get(conversation_id, utterance_id),
            self.tables["audio"].get(conversation_id, utterance_id),
            self.tables["video"].get(conversation_id, utterance_id),
        )

    def conversation_features(self, conv) -> np.ndarray:
        """T x D feature matrix for one conversation."""
        return np.stack(
            [self.features(conv.conversation_id, u.utterance_id) for u in conv.utterances]
        )

    def missing_keys(self, dataset: Dataset) -> list[tuple[str, int, int]]:
        missing = []
        for conv in dataset.conversations:
            for utt in conv.utterances:
                key = (conv.conversation_id, utt.utterance_id)
                for modality, table in self.tables.items():
                    if key not in table:
                        missing.append((modality, *key))
        return missing

    def validate_coverage(self, dataset: Dataset) -> None:
        missing = self.missing_keys(dataset)
        if missing:
            shown = ", ".join(f"{m}:({c},{u})" for m, c, u in missing[:20])
            more = "" if len(missing) <= 20 else f" (+{len(missing) - 20} more)"
            raise EmbeddingError(f"missing embeddings for keys: {shown}{more}")


def provider_from_files(paths: dict[str, str], name: str = "precomputed") -> EmbeddingProvider:
    tables = {m: load_precomputed(paths[m], m) for m in MODALITIES}
    return EmbeddingProvider(name, tables["text"], tables["audio"], tables["video"])


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
    if planted_rule is not None and dims[0] < 7:
        raise EmbeddingError(f"planted rule needs text dim >= 7, got {dims[0]}")
    tables = {}
    for slot, (modality, dim) in enumerate(zip(MODALITIES, dims)):
        vectors = {}
        for conv in dataset.conversations:
            for utt in conv.utterances:
                rng = _utterance_rng(seed, conv.conversation_id, utt.utterance_id, slot)
                vec = rng.standard_normal(dim)
                if modality == "text" and planted_rule is not None:
                    if utt.gold_emotion is None:
                        raise EmbeddingError(
                            f"planted rule requires gold emotions; conversation"
                            f" {conv.conversation_id} utterance {utt.utterance_id}"
                            " is unlabeled"
                        )
                    onehot = np.zeros(7)
                    onehot[int(utt.gold_emotion)] = 1.0
                    vec[:7] = onehot + planted_rule.noise_scale * vec[:7]
                vectors[(conv.conversation_id, utt.utterance_id)] = vec
        tables[modality] = ModalityTable(modality, dim, vectors)
    return EmbeddingProvider("synthetic", tables["text"], tables["audio"], tables["video"])
