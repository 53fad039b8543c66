"""The three stage models and their composition into end-to-end pair
prediction.

Stages 1 and 2 are one network, ``StageModel`` (embedding dropout -> optional
stacked BiLSTM -> dense head), configured by ``StageModelConfig``.
``EmotionModel`` and ``CauseModel`` subclass it and add only what differs:
the head width, the loss (weighted CE or CRF NLL; BCE) and the decoder
(argmax or Viterbi; threshold).  The pairing model scores
[emotion_rep || cause_rep || distance_embedding] with a sigmoid head.  The
representations handed to pairing are the stage models' head inputs, cached by
their ``forward``: the raw fused features for the dense variant, the top
BiLSTM outputs for the recurrent variants.

Parameters are one plain dict per model; the ``nn`` and ``crf`` functions
take its ``rnn.*`` and ``crf.*`` entries as dicts (``StageModel._subtree``)
and read their sizes from them.  A pass trains, drawing its dropout, if and
only if it is given an ``rng``; one given an ``nn.PackedLayout`` never does.  At
predict time each group of conversations whose rows fit the row cap
(``packed_groups``) runs one forward-only pass and one decode per stage
model, batch-invariant as ``nn.lstm_forward`` states, and is then paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import crf as crf_mod
from . import nn
from .corpus import (
    EMOTIONS,
    NEUTRAL,
    Conversation,
    Dataset,
    Emotion,
    EmotionCausePair,
    with_predictions,
)

EMOTION_VARIANTS = ("dense", "bilstm", "bilstm_crf")
CAUSE_VARIANTS = ("dense", "bilstm")

# rows per group of a forward-only pass (``packed_groups``).  The pairing
# stage's inputs over 13,615 rows at paper shape
# (scripts/probe_forward_memory.py) peaked at 422 MB (tracemalloc) in one pass
# and at 140 MB in groups of 1024 rows, of which the outputs E and C are
# 112 MB; it took 6.8 s in groups and 6.5 s in one pass (medians of 7 runs)
ROW_CAP = 1024


class ModelError(Exception):
    pass


# ---------------------------------------------------------------------------
# stages 1 and 2: one network, two heads


@dataclass
class StageModelConfig:
    """The fields the emotion and cause stages share; subclasses add their own,
    check ``variant`` and give the head width ``head_dim``."""

    variant: str = "dense"
    input_dim: int = 0
    hidden_size: int = 256
    n_layers: int = 1
    embedding_dropout: float = 0.3
    inter_layer_dropout: float = 0.3

    @property
    def uses_rnn(self) -> bool:
        return self.variant != "dense"

    @property
    def rep_dim(self) -> int:
        return 2 * self.hidden_size if self.uses_rnn else self.input_dim


class StageModel:
    """Embedding dropout -> optional stacked BiLSTM -> dense head.

    Subclasses define the loss (``loss_and_grads``) and the decoder
    (``decode``) over the head's scores.  Parameters are ``rnn.*`` for the
    BiLSTM stack, then ``head_W``/``head_b``.
    """

    def __init__(self, config: StageModelConfig, params: dict | None = None,
                 rng: np.random.Generator | None = None):
        self.config = config
        if params is None:
            try:
                params = self._init_params(rng or np.random.default_rng(0))
            except ValueError as exc:  # numpy refuses to shape the arrays
                raise ModelError(f"cannot build a model of input_dim {config.input_dim},"
                                 f" hidden_size {config.hidden_size}, n_layers"
                                 f" {config.n_layers}: {exc}") from None
        self.params = params

    def _init_params(self, rng: np.random.Generator) -> dict:
        config = self.config
        params = {}
        if config.uses_rnn:
            for k, v in nn.birnn_init(config.input_dim, config.hidden_size, config.n_layers,
                                      rng).items():
                params[f"rnn.{k}"] = v
        params["head_W"], params["head_b"] = nn.dense_init(config.rep_dim, config.head_dim, rng)
        return params

    def param_shapes(self) -> dict:
        """Name -> shape of every parameter the config needs, in init order;
        ``checkpoint.load_model`` checks bundles against it without an init."""
        cfg = self.config
        rnn = nn.birnn_shapes(cfg.input_dim, cfg.hidden_size, cfg.n_layers) if cfg.uses_rnn else {}
        shapes = {f"rnn.{k}": v for k, v in rnn.items()}
        shapes.update(head_W=(cfg.rep_dim, cfg.head_dim), head_b=(cfg.head_dim,))
        return shapes

    @property
    def rep_dim(self) -> int:
        return self.config.rep_dim

    def _subtree(self, prefix: str, tree: dict | None = None) -> dict:
        """The entries of ``tree`` (default: the parameters) whose names start
        with ``prefix``, keyed without it: the same arrays, not copies."""
        tree = self.params if tree is None else tree
        return {k[len(prefix):]: v for k, v in tree.items() if k.startswith(prefix)}

    def forward(self, features, rng=None, layout=None):
        """(N, head_dim) scores and the cache; ``cache["head_in"]`` holds the
        representations handed to pairing.

        ``features`` is one conversation (T, D), run for a backward; given an
        ``rng`` the pass trains, drawing embedding and inter-layer dropout
        from it.  With a ``nn.PackedLayout`` it is the rows of every
        conversation the layout describes, one after another, and the pass is
        forward-only: one packed BiLSTM pass over exactly these rows
        (``packed_groups`` bounds them), no dropout and no draw from ``rng``,
        no caches (``rnn_caches`` is None) and the head one row at a time
        (``nn.rowwise_matmul``).  The other conversations move no bit of a
        conversation's scores, as far as ``nn.lstm_forward``'s batch
        invariance holds.
        """
        cfg = self.config
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1 or (
                layout is not None and x.shape[0] != layout.n_rows):
            raise ModelError(f"expected a (T, D) feature matrix, T >= 1 (the layout's"
                             f" row count when packed), got shape {x.shape}")
        if x.shape[1] != cfg.input_dim:
            raise ModelError(
                f"feature width {x.shape[1]} != configured input_dim {cfg.input_dim}")
        if layout is not None:
            rng = None
        cache = {"rnn_caches": None}
        if rng is not None and cfg.embedding_dropout > 0.0:
            x = x * nn.dropout_mask(x.shape, cfg.embedding_dropout, rng)
        if cfg.uses_rnn:
            x, cache["rnn_caches"] = nn.birnn_forward(
                self._subtree("rnn."), x, cfg.inter_layer_dropout, rng, layout)
        cache["head_in"] = x
        W, b = self.params["head_W"], self.params["head_b"]
        return (nn.dense_forward(W, b, x) if layout is None
                else nn.rowwise_matmul(x, W) + b), cache

    def backward(self, cache, dscores, grads: dict | None = None) -> dict:
        """Gradients of every backbone parameter from (T, head_dim) ``dscores``,
        written into the arrays of ``grads`` (one per parameter) when it is
        given, else into new ones; returns the gradient dict."""
        if grads is None:
            grads = {k: np.empty_like(v) for k, v in self.params.items()}
        drep, _, _ = nn.dense_backward(self.params["head_W"], cache["head_in"], dscores,
                                       (grads["head_W"], grads["head_b"]))
        if self.config.uses_rnn:
            nn.birnn_backward(self._subtree("rnn."), cache["rnn_caches"], drep,
                              self._subtree("rnn.", grads))
        return grads


@dataclass
class EmotionModelConfig(StageModelConfig):
    n_layers: int = 4
    n_classes: int = 7

    def __post_init__(self):
        if self.variant not in EMOTION_VARIANTS:
            raise ModelError(f"unknown emotion variant {self.variant!r}")

    @property
    def head_dim(self) -> int:
        return self.n_classes


class EmotionModel(StageModel):
    """Stage 1: 7-way utterance classifier; dense, bilstm or bilstm_crf variant.

    The bilstm_crf head scores are CRF emissions, with ``crf.*`` parameters
    after the backbone's.
    """

    def _initial_crf_params(self) -> dict:
        if self.config.variant != "bilstm_crf":
            return {}
        return {f"crf.{k}": v for k, v in crf_mod.crf_init(self.config.n_classes).items()}

    def _init_params(self, rng: np.random.Generator) -> dict:
        return super()._init_params(rng) | self._initial_crf_params()

    def param_shapes(self) -> dict:
        return super().param_shapes() | {k: v.shape for k, v in self._initial_crf_params().items()}

    def loss_and_grads(self, features, labels, class_weights, rng=None, grads=None):
        """Mean weighted CE (dense/bilstm) or sequence CRF NLL (bilstm_crf),
        and the gradients, written as ``backward`` writes them."""
        scores, cache = self.forward(features, rng)
        labels = np.asarray(labels, dtype=np.int64)
        crf_grads = {}
        if self.config.variant == "bilstm_crf":
            # CRF loss is sequence-level; class weights intentionally unused
            loss, dscores, crf_grads = crf_mod.crf_loss_and_gradients(
                scores, self._subtree("crf."), labels)
        else:
            loss, dscores = nn.weighted_ce_batch(scores, labels, class_weights)
        grads = self.backward(cache, dscores, grads)
        for k, v in crf_grads.items():
            grads[f"crf.{k}"][...] = v
        return loss, grads

    def decode(self, scores, layout=None) -> np.ndarray:
        """(N,) int64 labels from ``forward`` scores: argmax per row, or for
        bilstm_crf Viterbi over each sequence of ``layout`` (None: the rows
        are one sequence), all of them in one pass."""
        if self.config.variant != "bilstm_crf":
            return np.argmax(scores, axis=1)
        if layout is None:
            layout = nn.pack_sequences([len(scores)])
        return crf_mod.viterbi_decode(scores, self._subtree("crf."), layout)


@dataclass
class CauseModelConfig(StageModelConfig):
    head_dim: ClassVar[int] = 1
    n_layers: int = 3
    threshold: float = 0.5

    def __post_init__(self):
        if self.variant not in CAUSE_VARIANTS:
            raise ModelError(f"unknown cause variant {self.variant!r}")


class CauseModel(StageModel):
    """Stage 2: binary candidate-cause classifier with a sigmoid head."""

    def forward(self, features, rng=None, layout=None):
        """(N,) logits and the cache."""
        scores, cache = super().forward(features, rng, layout)
        return scores[:, 0], cache

    def loss_and_grads(self, features, labels, rng=None, grads=None):
        """Mean BCE, and the gradients, written as ``backward`` writes them."""
        logits, cache = self.forward(features, rng)
        loss, dz = nn.bce_batch(logits, labels)
        return loss, self.backward(cache, dz[:, None], grads)

    def decode(self, logits, layout=None) -> np.ndarray:
        """1 iff sigmoid(logit) strictly exceeds the threshold; each row on its
        own, so ``layout`` is not needed."""
        return (nn.sigmoid(logits) > self.config.threshold).astype(np.int64)


# ---------------------------------------------------------------------------
# stage 3: emotion-cause pairing


@dataclass
class PairingModelConfig:
    emotion_rep_dim: int = 0
    cause_rep_dim: int = 0
    distance_dim: int = 32
    max_distance: int = 12
    threshold: float = 0.5
    rep_dropout: float = 0.3

    @property
    def input_dim(self) -> int:
        return self.emotion_rep_dim + self.cause_rep_dim + self.distance_dim

    @property
    def n_distance_rows(self) -> int:
        return 2 * self.max_distance + 1


def distance_row(distance, max_distance: int):
    """Clipped signed distance(s) mapped to table row(s); 0 selects the center.

    Takes a scalar or an integer array and returns the same shape.
    """
    return np.clip(distance, -max_distance, max_distance) + max_distance


class PairingModel:
    """Sigmoid head over [emotion_rep || cause_rep || distance_embedding].

    The distance table is a learned lookup over clipped signed utterance
    offsets (cause_id - emotion_id), rows initialized from standard normal
    draws.
    """

    def __init__(self, config: PairingModelConfig, params: dict | None = None,
                 rng: np.random.Generator | None = None):
        self.config = config
        if params is None:
            rng = rng or np.random.default_rng(0)
            try:
                head_W, head_b = nn.dense_init(config.input_dim, 1, rng)
                table = rng.standard_normal((config.n_distance_rows, config.distance_dim))
            except ValueError as exc:  # numpy refuses to shape the arrays
                raise ModelError(f"cannot build a pairing model of input_dim {config.input_dim},"
                                 f" distance_dim {config.distance_dim}, max_distance"
                                 f" {config.max_distance}: {exc}") from None
            params = {"dist_table": table, "head_W": head_W, "head_b": head_b}
        self.params = params

    def param_shapes(self) -> dict:
        cfg = self.config
        return {"dist_table": (cfg.n_distance_rows, cfg.distance_dim),
                "head_W": (cfg.input_dim, 1), "head_b": (1,)}

    def _inputs(self, emotion_reps, cause_reps, distances):
        cfg = self.config
        e = np.atleast_2d(np.asarray(emotion_reps, dtype=np.float64))
        c = np.atleast_2d(np.asarray(cause_reps, dtype=np.float64))
        if e.shape[1] != cfg.emotion_rep_dim or c.shape[1] != cfg.cause_rep_dim:
            raise ModelError(
                f"rep widths ({e.shape[1]}, {c.shape[1]}) incompatible with pairing"
                f" config ({cfg.emotion_rep_dim}, {cfg.cause_rep_dim})"
            )
        rows = distance_row(np.asarray(distances, dtype=np.int64), cfg.max_distance)
        x = np.concatenate([e, c, self.params["dist_table"][rows]], axis=1)
        return x, rows

    def logits(self, emotion_reps, cause_reps, distances, rng=None):
        x, rows = self._inputs(emotion_reps, cause_reps, distances)
        mask = None
        rep_width = self.config.emotion_rep_dim + self.config.cause_rep_dim
        if rng is not None and self.config.rep_dropout > 0.0:
            mask = nn.dropout_mask((x.shape[0], rep_width), self.config.rep_dropout, rng)
            x[:, :rep_width] *= mask
        z = nn.dense_forward(self.params["head_W"], self.params["head_b"], x)[:, 0]
        return z, {"x": x, "rows": rows, "mask": mask, "rep_width": rep_width}

    def loss_and_grads(self, emotion_reps, cause_reps, distances, labels, rng=None, grads=None):
        """Mean BCE and the gradients, written into the arrays of ``grads``
        (one per parameter) when it is given, else into new ones."""
        z, cache = self.logits(emotion_reps, cause_reps, distances, rng)
        loss, dz = nn.bce_batch(z, labels)
        if grads is None:
            grads = {k: np.empty_like(v) for k, v in self.params.items()}
        dx, _, _ = nn.dense_backward(self.params["head_W"], cache["x"], dz[:, None],
                                     (grads["head_W"], grads["head_b"]))
        d_table = grads["dist_table"]
        d_table[...] = 0.0
        np.add.at(d_table, cache["rows"], dx[:, cache["rep_width"]:])
        return loss, grads

    def probabilities(self, emotion_reps, cause_reps, distances) -> np.ndarray:
        z, _ = self.logits(emotion_reps, cause_reps, distances)
        return nn.sigmoid(z)


# ---------------------------------------------------------------------------
# pair rows: training examples and the pairs prediction scores


def pair_grid(emotion_ids, cause_ids) -> np.ndarray:
    """(n, 2) int64 rows of every (emotion id, cause id) combination,
    emotion-major as itertools.product."""
    e = np.asarray(emotion_ids, dtype=np.int64)
    c = np.asarray(cause_ids, dtype=np.int64)
    return np.column_stack([np.repeat(e, c.size), np.tile(c, e.size)])


def _pair_keys(conv: Conversation) -> tuple[int, np.ndarray, np.ndarray]:
    """``base``, the sorted unique gold pair keys and the sorted keys of the
    candidate space, where pair (e, c) has key e * base + c.  Ids run from 1
    to base - 1, so keys sort as the pairs do, and the grid over ascending ids
    comes out sorted."""
    base = len(conv.utterances) + 1
    is_gold = np.zeros(base * base, dtype=bool)
    is_gold[[p.emotion_utterance_id * base + p.cause_utterance_id
             for p in conv.gold_pairs or ()]] = True
    emotion_ids = [u.utterance_id for u in conv.utterances
                   if u.gold_emotion is not None and u.gold_emotion is not NEUTRAL]
    grid = pair_grid(emotion_ids, np.arange(1, base))
    keys = grid[:, 0] * base + grid[:, 1]
    return base, np.flatnonzero(is_gold), keys[~is_gold[keys]]


def build_pair_examples(conv: Conversation, ratio: int, seed: int) -> np.ndarray:
    """(n, 3) int64 rows (emotion id, cause id, label): the unique gold pairs,
    sorted, then min(ratio * |gold|, |space|) negatives drawn uniformly without
    replacement from the candidate space of ``_pair_keys`` (every gold
    non-neutral emotion utterance with every utterance, minus the gold pairs)
    by the conversation's own generator, in space order."""
    if conv.gold_pairs is None:
        raise ModelError(
            f"conversation {conv.conversation_id}: gold pairs required for pairing examples"
        )
    if ratio < 1:
        raise ModelError(f"negative ratio must be >= 1, got {ratio}")
    base, gold, space = _pair_keys(conv)
    n = min(ratio * gold.size, space.size)
    negatives = space[:0]
    if n:
        rng = np.random.default_rng((seed, conv.conversation_id))
        negatives = space[np.sort(rng.choice(space.size, size=n, replace=False))]
    keys = np.concatenate([gold, negatives])
    labels = (np.arange(keys.size) < gold.size).astype(np.int64)
    return np.column_stack([*np.divmod(keys, base), labels])


# ---------------------------------------------------------------------------
# end-to-end composition


def check_rep_compatibility(
    emotion_model: EmotionModel, cause_model: CauseModel, pairing_model: PairingModel
) -> None:
    cfg = pairing_model.config
    if (emotion_model.rep_dim, cause_model.rep_dim) != (
        cfg.emotion_rep_dim,
        cfg.cause_rep_dim,
    ):
        raise ModelError(
            f"stage rep widths ({emotion_model.rep_dim}, {cause_model.rep_dim}) do not"
            f" match pairing config ({cfg.emotion_rep_dim}, {cfg.cause_rep_dim})"
        )


def packed_features(conversations, provider) -> tuple[np.ndarray, nn.PackedLayout]:
    """The feature rows of the conversations, one conversation after another,
    and the layout that runs them through a stage model's forward-only pass."""
    blocks = [provider.conversation_features(conv) for conv in conversations]
    return np.concatenate(blocks), nn.pack_sequences([len(block) for block in blocks])


def packed_groups(conversations, provider):
    """Yields (indices, features, layout) per group of conversations whose
    rows fit ``ROW_CAP``: the conversations, longest first (ties in the given
    order), taken in turn into the current group while it has room; one
    longer than the cap is a group of its own.  ``indices`` lists the group's
    positions in ``conversations``, ascending, and ``features`` and ``layout``
    are their ``packed_features``."""
    lengths = [len(conv) for conv in conversations]
    groups, room = [], 0
    for k in np.argsort(-np.asarray(lengths), kind="stable").tolist():
        if not groups or lengths[k] > room:
            groups.append([])
            room = ROW_CAP
        groups[-1].append(k)
        room -= lengths[k]
    for group in groups:
        group.sort()
        yield group, *packed_features([conversations[k] for k in group], provider)


def predict_pairs(
    pairing_model: PairingModel,
    emotion_labels: np.ndarray,
    cause_flags: np.ndarray,
    emotion_reps: np.ndarray,
    cause_reps: np.ndarray,
) -> tuple[list[Emotion], list[EmotionCausePair]]:
    """Pair one conversation from its rows of the decoded stage outputs.

    ``emotion_labels`` and ``cause_flags`` are the stage-1 and stage-2
    decoders' outputs and the representations (each model's head input) give
    what the pairing model scores.  Returns the per-utterance emotion
    predictions and the pair list in (emotion id, cause id) order: for every
    predicted non-neutral utterance and every predicted candidate cause, the
    pair is emitted iff its pairing probability strictly exceeds the
    threshold.
    """
    labels = np.asarray(emotion_labels)
    emotions = [EMOTIONS[k] for k in labels.tolist()]
    emotion_ids = np.flatnonzero(labels != int(NEUTRAL)) + 1
    cause_ids = np.flatnonzero(cause_flags) + 1
    if not emotion_ids.size or not cause_ids.size:
        return emotions, []
    e_idx, c_idx = pair_grid(emotion_ids, cause_ids).T
    probs = pairing_model.probabilities(
        emotion_reps[e_idx - 1], cause_reps[c_idx - 1], c_idx - e_idx)
    return emotions, [
        EmotionCausePair(int(e_idx[k]), emotions[e_idx[k] - 1], int(c_idx[k]))
        for k in np.flatnonzero(probs > pairing_model.config.threshold)
    ]


def predict_dataset(
    emotion_model: EmotionModel,
    cause_model: CauseModel,
    pairing_model: PairingModel,
    dataset: Dataset,
    provider,
) -> Dataset:
    """Run the full three-stage pipeline over every conversation.

    Per group of ``packed_groups``, each stage model runs one forward-only
    pass and decodes the group's rows at once; ``predict_pairs`` then pairs
    each of the group's conversations from its rows, and the group's rows
    are dropped before the next group runs.  A conversation predicts the same
    in any dataset, as far as ``nn.lstm_forward``'s batch invariance holds.
    """
    check_rep_compatibility(emotion_model, cause_model, pairing_model)
    predicted = list(dataset.conversations)
    for indices, features, layout in packed_groups(dataset.conversations, provider):
        e_scores, e_cache = emotion_model.forward(features, layout=layout)
        e_labels, e_reps = emotion_model.decode(e_scores, layout), e_cache["head_in"]
        c_logits, c_cache = cause_model.forward(features, layout=layout)
        c_flags, c_reps = cause_model.decode(c_logits, layout), c_cache["head_in"]
        for k, rows in zip(indices, layout.slices()):
            predicted[k] = with_predictions(predicted[k], *predict_pairs(
                pairing_model, e_labels[rows], c_flags[rows], e_reps[rows], c_reps[rows]))
        del e_cache, e_reps, c_cache, c_reps  # the group's 2H-wide rows
    return Dataset(conversations=tuple(predicted), split_tag=dataset.split_tag)
