"""The three stage models and their composition into end-to-end pair
prediction.

Stages 1 and 2 are one network, ``StageModel`` (embedding dropout -> optional
stacked BiLSTM -> dense head), configured by ``StageModelConfig``.
``EmotionModel`` and ``CauseModel`` subclass it and add only what differs:
the head width, the loss (weighted CE or CRF NLL; BCE) and the decoder
(argmax or Viterbi/marginal; threshold).  The pairing model scores
[emotion_rep || cause_rep || distance_embedding] with a sigmoid head.  The
representations handed to pairing are the stage models' head inputs, cached by
their ``forward``: the raw fused features for the dense variant, the top
BiLSTM outputs for the recurrent variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import crf as crf_mod
from . import nn
from .corpus import (
    NEUTRAL,
    Conversation,
    Dataset,
    Emotion,
    EmotionCausePair,
    with_predictions,
)

EMOTION_VARIANTS = ("dense", "bilstm", "bilstm_crf")
CAUSE_VARIANTS = ("dense", "bilstm")


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

    def stack(self) -> nn.BiRNNStack:
        return nn.BiRNNStack(
            input_size=self.input_dim,
            hidden_size=self.hidden_size,
            n_layers=self.n_layers,
            inter_layer_dropout=self.inter_layer_dropout,
        )


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
            params = self._init_params(rng or np.random.default_rng(0))
        self.params = params

    def _init_params(self, rng: np.random.Generator) -> dict:
        config = self.config
        params = {}
        if config.uses_rnn:
            for k, v in nn.birnn_init(config.stack(), rng).items():
                params[f"rnn.{k}"] = v
        head = nn.dense_init(config.rep_dim, config.head_dim, rng)
        params["head_W"] = head.weight
        params["head_b"] = head.bias
        return params

    def param_shapes(self) -> dict:
        """Name -> shape of every parameter the config needs, in init order;
        ``checkpoint.load_model`` checks bundles against it without an init."""
        cfg = self.config
        rnn = nn.birnn_shapes(cfg.stack()) if cfg.uses_rnn else {}
        shapes = {f"rnn.{k}": v for k, v in rnn.items()}
        shapes.update(head_W=(cfg.rep_dim, cfg.head_dim), head_b=(cfg.head_dim,))
        return shapes

    @property
    def rep_dim(self) -> int:
        return self.config.rep_dim

    def _rnn_params(self) -> dict:
        return {k[4:]: v for k, v in self.params.items() if k.startswith("rnn.")}

    def _head(self) -> nn.DenseParams:
        return nn.DenseParams(self.params["head_W"], self.params["head_b"])

    def forward(self, features, training=False, rng=None):
        """(T, head_dim) scores and the cache; ``cache["head_in"]`` holds the
        representations handed to pairing."""
        cfg = self.config
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ModelError(f"expected a (T, D) feature matrix, got shape {x.shape}")
        if x.shape[1] != cfg.input_dim:
            raise ModelError(
                f"feature width {x.shape[1]} != configured input_dim {cfg.input_dim}")
        cache = {"emb_mask": None, "rnn_caches": None}
        if training and cfg.embedding_dropout > 0.0:
            cache["emb_mask"] = nn.dropout_mask(x.shape, cfg.embedding_dropout, rng)
            x = x * cache["emb_mask"]
        if cfg.uses_rnn:
            x, cache["rnn_caches"] = nn.birnn_forward(
                cfg.stack(), self._rnn_params(), x, training, rng)
        cache["head_in"] = x
        return nn.dense_forward(self._head(), x), cache

    def backward(self, cache, dscores) -> dict:
        """Gradients of every backbone parameter from (T, head_dim) ``dscores``."""
        drep, dW, db = nn.dense_backward(self._head(), cache["head_in"], dscores)
        grads = {"head_W": dW, "head_b": db}
        if self.config.uses_rnn:
            _, rnn_grads = nn.birnn_backward(
                self.config.stack(), self._rnn_params(), cache["rnn_caches"], drep)
            for k, v in rnn_grads.items():
                grads[f"rnn.{k}"] = v
        return grads

    def representations(self, features) -> np.ndarray:
        return self.forward(features)[1]["head_in"]

    def predict(self, features):
        return self.decode(self.forward(features)[0])


@dataclass
class EmotionModelConfig(StageModelConfig):
    n_layers: int = 4
    n_classes: int = 7
    crf_decode: str = "viterbi"  # or "marginal"

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
        return {f"crf.{k}": v for k, v in vars(crf_mod.crf_init(self.config.n_classes)).items()}

    def _init_params(self, rng: np.random.Generator) -> dict:
        return super()._init_params(rng) | self._initial_crf_params()

    def param_shapes(self) -> dict:
        return super().param_shapes() | {k: v.shape for k, v in self._initial_crf_params().items()}

    def crf_params(self) -> crf_mod.CRFParams:
        return crf_mod.CRFParams(
            transitions=self.params["crf.transitions"],
            start_scores=self.params["crf.start_scores"],
            end_scores=self.params["crf.end_scores"],
        )

    def loss_and_grads(self, features, labels, class_weights, training=False, rng=None):
        """Mean weighted CE (dense/bilstm) or sequence CRF NLL (bilstm_crf)."""
        scores, cache = self.forward(features, training, rng)
        labels = np.asarray(labels, dtype=np.int64)
        grads = {}
        if self.config.variant == "bilstm_crf":
            # CRF loss is sequence-level; class weights intentionally unused
            loss, dscores, crf_grads = crf_mod.crf_loss_and_gradients(
                scores, self.crf_params(), labels)
            for k, v in crf_grads.items():
                grads[f"crf.{k}"] = v
        else:
            loss, dscores = nn.weighted_ce_batch(scores, labels, class_weights)
        grads.update(self.backward(cache, dscores))
        return loss, grads

    def decode(self, scores) -> list[int]:
        """Labels from ``forward`` scores: Viterbi/marginal (bilstm_crf) or argmax."""
        if self.config.variant == "bilstm_crf":
            if self.config.crf_decode == "marginal":
                return crf_mod.marginal_argmax_decode(scores, self.crf_params())
            labels, _ = crf_mod.viterbi_decode(scores, self.crf_params())
            return labels
        return [int(k) for k in np.argmax(scores, axis=1)]


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

    def forward(self, features, training=False, rng=None):
        """(T,) logits and the cache."""
        scores, cache = super().forward(features, training, rng)
        return scores[:, 0], cache

    def loss_and_grads(self, features, labels, training=False, rng=None):
        logits, cache = self.forward(features, training, rng)
        loss, dz = nn.bce_batch(logits, labels)
        return loss, self.backward(cache, dz[:, None])

    def probabilities(self, features) -> np.ndarray:
        return nn.sigmoid(self.forward(features)[0])

    def decode(self, logits) -> np.ndarray:
        """1 iff sigmoid(logit) strictly exceeds the threshold."""
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


@dataclass(frozen=True)
class PairExample:
    conversation_id: int
    emotion_utterance_id: int
    cause_utterance_id: int
    label: int


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
            head = nn.dense_init(config.input_dim, 1, rng)
            params = {
                "dist_table": rng.standard_normal(
                    (config.n_distance_rows, config.distance_dim)
                ),
                "head_W": head.weight,
                "head_b": head.bias,
            }
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

    def logits(self, emotion_reps, cause_reps, distances, training=False, rng=None):
        x, rows = self._inputs(emotion_reps, cause_reps, distances)
        mask = None
        rep_width = self.config.emotion_rep_dim + self.config.cause_rep_dim
        if training and self.config.rep_dropout > 0.0:
            mask = nn.dropout_mask((x.shape[0], rep_width), self.config.rep_dropout, rng)
            x[:, :rep_width] *= mask
        head = nn.DenseParams(self.params["head_W"], self.params["head_b"])
        z = nn.dense_forward(head, x)[:, 0]
        return z, {"x": x, "rows": rows, "mask": mask, "rep_width": rep_width}

    def loss_and_grads(self, emotion_reps, cause_reps, distances, labels,
                       training=False, rng=None):
        z, cache = self.logits(emotion_reps, cause_reps, distances, training, rng)
        loss, dz = nn.bce_batch(z, labels)
        head = nn.DenseParams(self.params["head_W"], self.params["head_b"])
        dx, dW, db = nn.dense_backward(head, cache["x"], dz[:, None])
        d_table = np.zeros_like(self.params["dist_table"])
        rep_width = cache["rep_width"]
        np.add.at(d_table, cache["rows"], dx[:, rep_width:])
        return loss, {"dist_table": d_table, "head_W": dW, "head_b": db}

    def probabilities(self, emotion_reps, cause_reps, distances) -> np.ndarray:
        z, _ = self.logits(emotion_reps, cause_reps, distances)
        return nn.sigmoid(z)


# ---------------------------------------------------------------------------
# pair example construction and negative sampling


def candidate_pair_space(conv: Conversation) -> list[tuple[int, int]]:
    """All (gold non-neutral emotion utterance, any utterance) id pairs minus gold."""
    gold = {(p.emotion_utterance_id, p.cause_utterance_id) for p in (conv.gold_pairs or ())}
    emotion_ids = [
        u.utterance_id
        for u in conv.utterances
        if u.gold_emotion is not None and u.gold_emotion is not NEUTRAL
    ]
    return [
        (e, c)
        for e in emotion_ids
        for c in range(1, len(conv.utterances) + 1)
        if (e, c) not in gold
    ]


def sample_negative_pairs(
    gold_pairs, candidate_space, ratio: int, seed
) -> list[tuple[int, int]]:
    """min(ratio * |gold|, |space|) negatives drawn uniformly without replacement.

    Gold pairs are excluded from the space defensively, so a sampled negative
    can never coincide with a gold pair.  ``seed`` may be an int or a seeded
    Generator.
    """
    if ratio < 1:
        raise ModelError(f"negative ratio must be >= 1, got {ratio}")
    gold_keys = {(p.emotion_utterance_id, p.cause_utterance_id) for p in gold_pairs}
    space = sorted(set(candidate_space) - gold_keys)
    n = min(ratio * len(gold_keys), len(space))
    if n == 0:
        return []
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    chosen = rng.choice(len(space), size=n, replace=False)
    return [space[i] for i in sorted(chosen)]


def build_pair_examples(conv: Conversation, ratio: int, seed: int) -> list[PairExample]:
    """Teacher-forced positives (gold pairs) plus sampled negatives, 1:ratio."""
    if conv.gold_pairs is None:
        raise ModelError(
            f"conversation {conv.conversation_id}: gold pairs required for pairing examples"
        )
    positives = sorted(
        {(p.emotion_utterance_id, p.cause_utterance_id) for p in conv.gold_pairs}
    )
    rng = np.random.default_rng((seed, conv.conversation_id))
    negatives = sample_negative_pairs(
        conv.gold_pairs, candidate_pair_space(conv), ratio, rng
    )
    cid = conv.conversation_id
    return [PairExample(cid, e, c, 1) for e, c in positives] + [
        PairExample(cid, e, c, 0) for e, c in negatives
    ]


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


def predict_pairs(
    emotion_model: EmotionModel,
    cause_model: CauseModel,
    pairing_model: PairingModel,
    features: np.ndarray,
) -> tuple[list[Emotion], list[EmotionCausePair]]:
    """Compose the three stages on one conversation's features.

    Each stage model runs one forward pass: its scores give the labels and its
    cached head input gives the representations the pairing model scores.
    Returns the per-utterance emotion predictions and the pair list in
    (emotion id, cause id) order: for every predicted non-neutral utterance
    and every predicted candidate cause, the pair is emitted iff its pairing
    probability strictly exceeds the threshold.
    """
    check_rep_compatibility(emotion_model, cause_model, pairing_model)
    e_scores, e_cache = emotion_model.forward(features)
    c_logits, c_cache = cause_model.forward(features)
    labels = emotion_model.decode(e_scores)
    emotions = [Emotion(k) for k in labels]
    emotion_ids = np.flatnonzero(np.asarray(labels) != int(NEUTRAL)) + 1
    cause_ids = np.flatnonzero(cause_model.decode(c_logits)) + 1
    if not emotion_ids.size or not cause_ids.size:
        return emotions, []
    # every (emotion, cause) combination, emotion-major as itertools.product
    e_idx = np.repeat(emotion_ids, cause_ids.size)
    c_idx = np.tile(cause_ids, emotion_ids.size)
    probs = pairing_model.probabilities(
        e_cache["head_in"][e_idx - 1], c_cache["head_in"][c_idx - 1], c_idx - e_idx
    )
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
    """Run the full three-stage pipeline over every conversation."""
    predicted = []
    for conv in dataset.conversations:
        features = provider.conversation_features(conv)
        emotions, pairs = predict_pairs(emotion_model, cause_model, pairing_model, features)
        predicted.append(with_predictions(conv, emotions, pairs))
    return Dataset(conversations=tuple(predicted), split_tag=dataset.split_tag)
