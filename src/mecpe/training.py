"""Per-stage training: AdamW with a warmup-linear schedule, per-epoch
validation metrics, best-checkpoint retention and exact resume.

Every stage runs one loop: each epoch shuffles its items (utterance or pair
rows, or whole conversations for the recurrent variants) and takes one
optimizer step per fixed-size slice of that order.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from . import nn
from .checkpoint import (STAGE_MODELS, CheckpointError, check_arrays, load_model, read_npz,
                         save_model, savez_atomic)
from .config import EMBEDDING_KINDS, ExperimentConfig
from .corpus import (
    Dataset,
    derive_cause_labels,
    emotion_class_weights,
    emotion_label_vector,
)
from .embeddings import PlantedRule, provider_from_files, synthetic_provider
from .metrics import stage_metrics
from .models import (
    CauseModel,
    EmotionModel,
    PairingModel,
    PairingModelConfig,
    build_pair_examples,
    packed_groups,
)

STAGES = tuple(STAGE_MODELS)

# training fields that, with the model config, identify a run: a resume
# refuses files saved under other values (paths are left out)
RUN_FIELDS = ("lr", "weight_decay", "beta1", "beta2", "adam_eps", "warmup_fraction",
              "batch_size", "conversations_per_batch", "seed")
# the fields of a ``state.npz`` meta block that a resume reads, with their types
STATE_FIELDS = {"step": int, "epoch": int, "adam_t": int, "total_steps": int,
                "best_metric": (int, float), "rng_state": dict, "history": list,
                "run_config": dict}


class TrainingError(Exception):
    pass


def make_provider(config: ExperimentConfig, dataset: Dataset):
    emb = config.embeddings
    if emb.kind == "synthetic":
        rule = PlantedRule(emb.noise_scale) if emb.planted else None
        return synthetic_provider(emb.seed, emb.dims, dataset, rule)
    if emb.kind == "files":
        paths = {"text": emb.text_path, "audio": emb.audio_path, "video": emb.video_path}
        missing = [m for m, p in paths.items() if not p]
        if missing:
            raise TrainingError(f"embedding file path(s) missing for: {missing}")
        return provider_from_files(paths)
    raise TrainingError(f"embeddings kind {emb.kind!r} is not one of {EMBEDDING_KINDS}")


def _stage_model(stage, config, input_dim, rng, **fields):
    """A ``stage`` model of the config's variant and layer count for that stage."""
    model_cls, config_cls = STAGE_MODELS[stage]
    return model_cls(config_cls(
        variant=getattr(config, f"{stage}_variant"), input_dim=input_dim,
        hidden_size=config.hidden_size, n_layers=getattr(config, f"{stage}_layers"),
        embedding_dropout=config.embedding_dropout,
        inter_layer_dropout=config.inter_layer_dropout, **fields), rng=rng)


def make_emotion_model(config, input_dim, rng) -> EmotionModel:
    return _stage_model("emotion", config, input_dim, rng)


def make_cause_model(config, input_dim, rng) -> CauseModel:
    return _stage_model("cause", config, input_dim, rng, threshold=config.threshold)


def make_pairing_model(config, emotion_rep_dim, cause_rep_dim, rng) -> PairingModel:
    return PairingModel(
        PairingModelConfig(
            emotion_rep_dim=emotion_rep_dim,
            cause_rep_dim=cause_rep_dim,
            distance_dim=config.distance_dim,
            max_distance=config.max_distance,
            threshold=config.threshold,
            rep_dropout=config.embedding_dropout,
        ),
        rng=rng,
    )


# ---------------------------------------------------------------------------
# generic loop


class StageTrainer:
    """Drives one stage model through epochs; owns optimizer, schedule and rng.

    Each epoch draws one permutation of the ``n_items`` training items and
    calls ``loss_fn(indices, rng, grads)`` -> loss on every run of
    ``batch_size`` of it, which writes the batch's gradients into the arrays
    of ``grads``; ``eval_fn()`` scores the current parameters on validation
    data (dropout off).  The optimizer holds the model's parameters in one
    buffer, so they are only ever written into, never rebound.

    With an ``out_dir``, ``best.npz`` is the only copy of the best epoch's
    parameters: ``best_params`` reads it back on first use.  Without one
    the trainer keeps that copy in memory.
    """

    def __init__(self, stage, model, config: ExperimentConfig, epochs,
                 n_items, batch_size, loss_fn, eval_fn, out_dir=None):
        if batch_size < 1:
            raise TrainingError(f"{stage} batch size must be >= 1, got {batch_size}")
        self.stage = stage
        self.model = model
        self.config = config
        self.epochs = epochs
        self.n_items = n_items
        self.batch_size = batch_size
        self.loss_fn = loss_fn
        self.eval_fn = eval_fn
        self.out_dir = out_dir
        total_steps = max(1, -(-n_items // batch_size) * epochs)
        self.schedule = nn.WarmupSchedule(
            warmup_steps=int(round(config.warmup_fraction * total_steps)),
            total_steps=total_steps,
            peak_lr=config.lr,
        )
        self.optimizer = nn.AdamW(  # moves the params
            model.params, (config.beta1, config.beta2), config.adam_eps, config.weight_decay)
        self.rng = np.random.default_rng(config.seed)
        self.step = 0
        self.epoch = 0
        self.best_metric = -np.inf
        self._best_params = None
        self.history: list[dict] = []

    # -- persistence

    def _path(self, suffix):
        return os.path.join(self.out_dir, f"{self.stage}_{suffix}")

    def save(self, improved: bool):
        """Write ``last.npz``, ``best.npz`` (only when this epoch ``improved``
        the best metric, from the parameters, which are then the best) and
        ``state.npz``, each replaced atomically."""
        if self.out_dir is None:
            return
        save_model(self._path("last.npz"), self.stage, self.model,
                   extra={"epoch": self.epoch, "step": self.step})
        if improved:
            self._best_params = None  # a copy read back from the old best.npz
            save_model(self._path("best.npz"), self.stage, self.model, extra={
                "val_metric": self.best_metric, "epoch": self.epoch, "step": self.step})
        meta = {
            "run_config": self.run_config(),
            "step": self.step,
            "epoch": self.epoch,
            "adam_t": self.optimizer.t,
            "best_metric": self.best_metric,
            "total_steps": self.schedule.total_steps,
            "rng_state": self.rng.bit_generator.state,
            "history": self.history,
        }
        savez_atomic(self._path("state.npz"), __meta__=json.dumps(meta),
                     **self.optimizer.state_arrays())

    def run_config(self) -> dict:
        """The model config and ``RUN_FIELDS``, as recorded in ``state.npz``."""
        fields = {f"model.{k}": v for k, v in dataclasses.asdict(self.model.config).items()}
        return {**fields, **{name: getattr(self.config, name) for name in RUN_FIELDS}}

    def resume(self):
        """Continue from the saved files.  Refuses, before touching anything,
        files that do not hold what they must with a CheckpointError (a
        ``state.npz`` ``_read_state`` refuses, parameters or moments missing,
        unexpected or of other shapes) and files of another run with a
        TrainingError (another run config or schedule, ``last.npz`` and
        ``state.npz`` of different epochs, a ``last.npz`` or ``best.npz`` of
        another model config, a ``best.npz`` that is not the best epoch
        ``state.npz`` records).  ``best.npz`` is only checked: ``best_params``
        reads it when it is asked for."""
        self._refuse_if_run()
        state_path = self._path("state.npz")
        if not os.path.exists(state_path):
            raise TrainingError(f"no trainer state at {state_path} to resume from")
        last_path = self._path("last.npz")
        _, last, extra = load_model(last_path)
        meta, arrays = self._read_state(state_path)
        _refuse_other_config(meta["run_config"], self.run_config(), f"resume refused:"
                             f" {last_path} and {state_path} were saved by a run with")
        if meta["total_steps"] != self.schedule.total_steps:
            raise TrainingError(
                f"resume schedule mismatch: state was built for"
                f" {meta['total_steps']} total steps, this run for"
                f" {self.schedule.total_steps} (same epochs/config required)"
            )
        last_at, state_at = (extra.get("epoch"), extra.get("step")), (meta["epoch"], meta["step"])
        if last_at != state_at:
            raise TrainingError(
                f"resume refused: {last_path} holds epoch {last_at[0]}, step {last_at[1]}"
                f" but {state_path} holds epoch {state_at[0]}, step {state_at[1]}"
                f" (a save was interrupted)"
            )
        # load_model checked last's arrays against its config: equal configs, equal shapes
        _refuse_other_config(dataclasses.asdict(last.config), dataclasses.asdict(self.model.config),
                             f"resume refused: {last_path} holds a model of")
        self._load_best(_best_record(meta["history"], meta["best_metric"]),
                        "resume refused", state_path)
        shapes = {k: v.shape for k, v in self.model.params.items()}
        check_arrays(state_path, {p + k: v for p in ("m/", "v/") for k, v in shapes.items()},
                     arrays)
        nn.copy_into(self.model.params, last.params)
        self.optimizer.load_state_arrays(arrays, meta["adam_t"])
        self.step = meta["step"]
        self.epoch = meta["epoch"]
        self.best_metric = meta["best_metric"]
        self.history = meta["history"]
        self.rng.bit_generator.state = meta["rng_state"]

    def _load_best(self, expected, refusal, source):
        """The model in ``best.npz``, or None if there is no file.  Refuses a
        file whose stamp is not ``expected``, the best record ``source``
        holds, or of another model config, and a missing file unless
        ``expected`` is None."""
        best_path = self._path("best.npz")
        best = stamp = None
        if os.path.exists(best_path):
            _, best, stamp = load_model(best_path)
        if stamp != expected:
            raise TrainingError(
                f"{refusal}: {best_path} holds {'no model' if best is None else stamp}"
                f" but {source} records the best as {expected}")
        if best is not None:
            _refuse_other_config(dataclasses.asdict(best.config),
                                 dataclasses.asdict(self.model.config),
                                 f"{refusal}: {best_path} holds a model of")
        return best

    def _read_state(self, path):
        """(meta, arrays) of a ``state.npz``.  Refuses a file ``read_npz``
        refuses and a meta block that is not an object or lacks a
        ``STATE_FIELDS`` field of its type: a history record without its
        epoch, step or metric, an rng state this generator cannot take."""
        meta, arrays = read_npz(path, "trainer state")
        if not isinstance(meta, dict):
            raise CheckpointError(f"{path}: meta block is not a JSON object")
        bad = sorted(k for k, kind in STATE_FIELDS.items()
                     if not isinstance(meta.get(k), kind) or isinstance(meta.get(k), bool))
        if not bad and not all(isinstance(r, dict) and {"epoch", "step", "val_metric"} <= r.keys()
                               for r in meta["history"]):
            bad = ["history"]
        if not bad:
            try:
                type(self.rng.bit_generator)().state = meta["rng_state"]
            except (KeyError, TypeError, ValueError):
                bad = ["rng_state"]
        if bad:
            raise CheckpointError(f"{path}: meta field(s) {bad} missing or malformed")
        return meta, arrays

    def _refuse_if_run(self):
        if self.optimizer is None:
            raise TrainingError(f"{self.stage} trainer has already run; resume from its"
                                f" files in a new trainer")

    # -- the loop

    def run(self, log_fn=None, stop_epoch=None) -> list[dict]:
        """Train until the target epoch count (or ``stop_epoch``, for
        interruption tests); the schedule always spans the full target.
        While it trains the trainer holds four buffers of the parameters'
        size: the parameters, the gradients and the moments m and v, plus
        the best copy without an ``out_dir``.  A trainer runs once: however
        ``run`` ends, it drops its optimizer (gradients and moments) and
        ``loss_fn`` and ``eval_fn`` (the training and validation data); the
        parameters live on in ``model.params``.  A paused stage continues
        from its files in a new trainer that ``resume``s."""
        self._refuse_if_run()
        try:
            while self.epoch < self.epochs and (stop_epoch is None or self.epoch < stop_epoch):
                order = self.rng.permutation(self.n_items)
                losses = []
                lr = 0.0
                for start in range(0, self.n_items, self.batch_size):
                    lr = nn.lr_at(self.schedule, min(self.step, self.schedule.total_steps))
                    grads = self.optimizer.grads
                    loss = self.loss_fn(order[start: start + self.batch_size], self.rng, grads)
                    if not np.isfinite(loss):
                        raise TrainingError(
                            f"non-finite loss at stage {self.stage}, epoch {self.epoch},"
                            f" step {self.step}"
                        )
                    self.optimizer.step(lr)
                    self.step += 1
                    losses.append(loss)
                val_metric = self.eval_fn()
                self.epoch += 1
                record = {
                    "stage": self.stage,
                    "epoch": self.epoch,
                    "step": self.step,
                    "train_loss": float(np.mean(losses)) if losses else float("nan"),
                    "val_metric": float(val_metric),
                    "lr": float(lr),
                }
                self.history.append(record)
                if log_fn is not None:
                    log_fn(record)
                improved = val_metric > self.best_metric
                if improved:
                    self.best_metric = float(val_metric)
                    if self.out_dir is None:  # no file can hold the best
                        # one buffer, made on first use and then written over, so
                        # no second copy is ever alive
                        if self._best_params is None:
                            self._best_params = nn.flat_buffer(self.model.params)[1]
                        nn.copy_into(self._best_params, self.model.params)
                self.save(improved)
        finally:
            # the callers keep a finished trainer alive while the next stage trains
            self.optimizer = self.loss_fn = self.eval_fn = None
        return self.history

    @property
    def best_params(self):
        """The best epoch's parameters.  With an ``out_dir`` they are read
        from ``best.npz`` once, the first time they are asked for after that
        epoch, and refused unless its stamp is the best record in
        ``history``; None while no epoch has improved."""
        if self._best_params is None and self.out_dir is not None:
            expected = _best_record(self.history, self.best_metric)
            if expected is not None:
                self._best_params = self._load_best(
                    expected, f"{self.stage} best parameters refused",
                    "the trainer's history").params
        return self._best_params

    def best_model(self):
        params = self.best_params or self.model.params
        return type(self.model)(self.model.config, params=params)


def _refuse_other_config(saved: dict, current: dict, refusal: str) -> None:
    differ = sorted(k for k in saved.keys() | current.keys() if saved.get(k) != current.get(k))
    if differ:
        raise TrainingError(f"{refusal} another config (differs in {differ})")


def _best_record(history, best_metric):
    """The stamp ``best.npz`` must carry: ``run`` writes it in the first
    epoch that reaches ``best_metric``.  None if no epoch has."""
    best_at = next((r for r in history if r["val_metric"] == best_metric), None)
    return best_at and {k: best_at[k] for k in ("val_metric", "epoch", "step")}


# ---------------------------------------------------------------------------
# stage data assembly


def conversation_tensors(dataset: Dataset, provider, label_fn):
    """List of (features (T,D), labels (T,)) per conversation."""
    items = []
    for conv in dataset.conversations:
        items.append((provider.conversation_features(conv), label_fn(conv)))
    return items


def _fit(stage, config, model, n_items, batch_size, loss_fn, eval_fn,
         out_dir, resume, log_fn, stop_epoch) -> StageTrainer:
    trainer = StageTrainer(stage, model, config, getattr(config, f"epochs_{stage}"), n_items,
                           batch_size, loss_fn, eval_fn, out_dir)
    if resume:
        trainer.resume()
    trainer.run(log_fn, stop_epoch)
    return trainer


def _evaluate_stage(model, groups, gold, n_classes: int) -> float:
    """Weighted F1 of the model's labels over a validation set given as
    ``packed_groups``, one forward-only pass and one decode per group;
    ``gold`` is in the groups' row order."""
    predicted = [model.decode(model.forward(features, layout=layout)[0], layout)
                 for _, features, layout in groups]
    return stage_metrics(np.concatenate(predicted), gold, n_classes).weighted_f1


def evaluate_emotion(model: EmotionModel, groups, gold) -> float:
    return _evaluate_stage(model, groups, gold, model.config.n_classes)


def evaluate_cause(model: CauseModel, groups, gold) -> float:
    return _evaluate_stage(model, groups, gold, 2)


def _train_stage(stage, config, model, train_ds, val_ds, provider, label_fn,
                 loss_args, evaluate, out_dir, resume, log_fn, stop_epoch):
    """Emotion or cause training: row batches for the dense variant, whole
    conversations for the recurrent ones; ``loss_args`` follow the labels in
    ``model.loss_and_grads``."""
    for name, dataset in (("training", train_ds), ("validation", val_ds)):
        if not dataset.conversations:
            raise TrainingError(f"{stage} stage: the {name} split has no conversations")
    train_items = conversation_tensors(train_ds, provider, label_fn)
    val_groups = list(packed_groups(val_ds.conversations, provider))
    val_gold = np.concatenate([label_fn(val_ds.conversations[k])
                               for indices, _, _ in val_groups for k in indices])

    def loss(features, labels, rng, grads):
        return model.loss_and_grads(features, labels, *loss_args, rng=rng, grads=grads)[0]

    spare = {}  # the later conversations' gradients of a grouped step, made on first use

    if model.config.variant == "dense":
        X = np.concatenate([features for features, _ in train_items])
        y = np.concatenate([labels for _, labels in train_items])
        n_items, batch_size = X.shape[0], config.batch_size

        def loss_fn(idx, rng, grads):
            return loss(X[idx], y[idx], rng, grads)
    else:
        n_items, batch_size = len(train_items), config.conversations_per_batch

        def loss_fn(idx, rng, grads):
            """The conversations' losses and gradients summed in index order,
            divided by their count when it is above 1."""
            total = 0.0
            total += loss(*train_items[idx[0]], rng, grads)
            if len(idx) > 1:
                if not spare:
                    spare.update(nn.flat_buffer(grads)[1])
                for i in idx[1:]:
                    total += loss(*train_items[i], rng, spare)
                    for k in grads:
                        grads[k] += spare[k]
                for k in grads:
                    grads[k] /= len(idx)
            return total / len(idx)
    return _fit(stage, config, model, n_items, batch_size, loss_fn,
                lambda: evaluate(model, val_groups, val_gold),
                out_dir, resume, log_fn, stop_epoch)


def train_emotion_stage(config, model: EmotionModel, train_ds, val_ds, provider,
                        out_dir=None, resume=False, log_fn=None,
                        stop_epoch=None) -> StageTrainer:
    class_weights = emotion_class_weights(train_ds, config.class_weight_floor)
    return _train_stage("emotion", config, model, train_ds, val_ds, provider,
                        emotion_label_vector, (class_weights,), evaluate_emotion,
                        out_dir, resume, log_fn, stop_epoch)


def train_cause_stage(config, model: CauseModel, train_ds, val_ds, provider,
                      out_dir=None, resume=False, log_fn=None,
                      stop_epoch=None) -> StageTrainer:
    return _train_stage("cause", config, model, train_ds, val_ds, provider,
                        derive_cause_labels, (), evaluate_cause,
                        out_dir, resume, log_fn, stop_epoch)


def pairing_tensors(config, splits, provider,
                    emotion_model: EmotionModel, cause_model: CauseModel):
    """Frozen-stage representations and the pair rows of several splits:
    (E (U, Re), C (U, Rc), rows), where ``rows[k]`` holds the examples of
    split k as (n_k, 3) int64 rows (row of E, row of C, label).

    ``splits`` are (dataset, sample seed) pairs.  Every split's examples are
    built first, and a split without any is refused before a forward pass.
    The conversations that yield examples then run through each stage model
    in one forward-only pass per group of ``packed_groups``, whose outputs E
    and C keep once per utterance, in the conversations' order; an example's
    distance is its cause row minus its emotion row.  A conversation's rows
    are those a pass over its own split would give, as far as
    ``nn.lstm_forward``'s batch invariance holds.
    """
    convs, split_blocks = [], []  # per split: (n, 3) rows of emotion id, cause id, label
    for dataset, sample_seed in splits:
        blocks = []
        for conv in dataset.conversations:
            rows = build_pair_examples(conv, config.negative_ratio, sample_seed)
            if rows.size:
                convs.append(conv)
                blocks.append(rows)
        if not blocks:
            raise TrainingError("no pair examples could be built (no gold pairs?)")
        split_blocks.append(blocks)
    starts = np.cumsum([0] + [len(conv) for conv in convs])  # first rows, then the total
    E = np.empty((starts[-1], emotion_model.rep_dim))
    C = np.empty((starts[-1], cause_model.rep_dim))
    for indices, features, layout in packed_groups(convs, provider):
        at = np.concatenate([np.arange(starts[k], starts[k + 1]) for k in indices])
        E[at] = emotion_model.forward(features, layout=layout)[1]["head_in"]
        C[at] = cause_model.forward(features, layout=layout)[1]["head_in"]
    # utterance id i of a conversation is row first + i - 1 of E and C; the
    # conversations' firsts are taken in order across the splits
    firsts = iter(starts - 1)
    return E, C, [np.concatenate([block + [first, first, 0]
                                  for block, first in zip(blocks, firsts)])
                  for blocks in split_blocks]


def _pair_batch(E, C, rows):
    """The pairing model's inputs and labels for these pair rows."""
    e, c, y = rows.T
    return E[e], C[c], c - e, y


def evaluate_pairing(model: PairingModel, E, C, rows) -> float:
    E, C, d, y = _pair_batch(E, C, rows)
    predicted = (model.probabilities(E, C, d) > model.config.threshold).astype(np.int64)
    return stage_metrics(predicted, y, 2).weighted_f1


def train_pairing_stage(config, model: PairingModel, train_ds, val_ds, provider,
                        emotion_model, cause_model, out_dir=None, resume=False,
                        log_fn=None, stop_epoch=None) -> StageTrainer:
    E, C, (train_rows, val_rows) = pairing_tensors(
        config, [(train_ds, config.seed), (val_ds, config.seed + 1)], provider,
        emotion_model, cause_model)
    return _fit("pairing", config, model, len(train_rows), config.batch_size,
                lambda idx, rng, grads: model.loss_and_grads(
                    *_pair_batch(E, C, train_rows[idx]), rng=rng, grads=grads)[0],
                lambda: evaluate_pairing(model, E, C, val_rows), out_dir, resume, log_fn,
                stop_epoch)
