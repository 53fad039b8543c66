"""Per-stage training: AdamW with a warmup-linear schedule, per-epoch
validation metrics, best-checkpoint retention and exact resume.

Sequence variants take one whole conversation per optimizer step; dense
variants and the pairing model train on shuffled fixed-size batches.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import nn
from .checkpoint import load_model, save_model, savez_atomic
from .config import ExperimentConfig
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
    CauseModelConfig,
    EmotionModel,
    EmotionModelConfig,
    PairingModel,
    PairingModelConfig,
    build_pair_examples,
)

STAGES = ("emotion", "cause", "pairing")


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
    raise TrainingError(f"unknown embeddings kind {emb.kind!r}")


def make_emotion_model(config, input_dim, rng, variant=None) -> EmotionModel:
    return EmotionModel(
        EmotionModelConfig(
            variant=variant or config.emotion_variant,
            input_dim=input_dim,
            hidden_size=config.hidden_size,
            n_layers=config.emotion_layers,
            embedding_dropout=config.embedding_dropout,
            inter_layer_dropout=config.inter_layer_dropout,
            crf_decode=config.crf_decode,
        ),
        rng=rng,
    )


def make_cause_model(config, input_dim, rng, variant=None) -> CauseModel:
    return CauseModel(
        CauseModelConfig(
            variant=variant or config.cause_variant,
            input_dim=input_dim,
            hidden_size=config.hidden_size,
            n_layers=config.cause_layers,
            embedding_dropout=config.embedding_dropout,
            inter_layer_dropout=config.inter_layer_dropout,
            threshold=config.threshold,
        ),
        rng=rng,
    )


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


def optimizer_config(config: ExperimentConfig) -> nn.AdamWConfig:
    return nn.AdamWConfig(
        lr=config.lr,
        betas=(config.beta1, config.beta2),
        eps=config.adam_eps,
        weight_decay=config.weight_decay,
    )


# ---------------------------------------------------------------------------
# generic loop


@dataclass
class EpochRecord:
    stage: str
    epoch: int
    step: int
    train_loss: float
    val_metric: float
    lr: float

    def to_dict(self) -> dict:
        return vars(self).copy()


class StageTrainer:
    """Drives one stage model through epochs; owns optimizer, schedule and rng.

    ``batches_fn(rng)`` yields one epoch's batch list (reshuffled per call);
    ``loss_fn(batch, rng)`` returns (loss, grads); ``eval_fn()`` scores the
    current parameters on validation data (dropout off).
    """

    def __init__(self, stage, model, config: ExperimentConfig, epochs,
                 steps_per_epoch, batches_fn, loss_fn, eval_fn, out_dir=None):
        self.stage = stage
        self.model = model
        self.config = config
        self.epochs = epochs
        self.batches_fn = batches_fn
        self.loss_fn = loss_fn
        self.eval_fn = eval_fn
        self.out_dir = out_dir
        total_steps = max(1, steps_per_epoch * epochs)
        self.schedule = nn.WarmupSchedule(
            warmup_steps=int(round(config.warmup_fraction * total_steps)),
            total_steps=total_steps,
            peak_lr=config.lr,
        )
        self.optimizer = nn.AdamW(model.params, optimizer_config(config))
        self.rng = np.random.default_rng(config.seed)
        self.step = 0
        self.epoch = 0
        self.best_metric = -np.inf
        self.best_params = None
        self.history: list[dict] = []

    # -- persistence

    def _path(self, suffix):
        return os.path.join(self.out_dir, f"{self.stage}_{suffix}")

    def save(self, improved: bool):
        """Write ``last.npz``, ``best.npz`` (only when this epoch ``improved``
        the best metric) and ``state.npz``, each replaced atomically."""
        if self.out_dir is None:
            return
        save_model(self._path("last.npz"), self.stage, self.model,
                   extra={"epoch": self.epoch, "step": self.step})
        if improved:
            best = type(self.model)(self.model.config, params=self.best_params)
            save_model(self._path("best.npz"), self.stage, best,
                       extra={"val_metric": self.best_metric})
        meta = {
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

    def resume(self):
        """Continue from the saved files; refuses a schedule that differs from
        the saved one, and ``last.npz`` and ``state.npz`` of different epochs."""
        state_path = self._path("state.npz")
        if not os.path.exists(state_path):
            raise TrainingError(f"no trainer state at {state_path} to resume from")
        last_path = self._path("last.npz")
        _, last, extra = load_model(last_path)
        with np.load(state_path, allow_pickle=False) as data:
            meta = json.loads(str(data["__meta__"][()]))
            arrays = {k: data[k].copy() for k in data.files if k != "__meta__"}
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
        self.model.params.update(last.params)
        self.optimizer.load_state_arrays(arrays, meta["adam_t"])
        self.step = meta["step"]
        self.epoch = meta["epoch"]
        self.best_metric = meta["best_metric"]
        self.history = meta["history"]
        self.rng.bit_generator.state = meta["rng_state"]
        if os.path.exists(self._path("best.npz")):
            _, best, _ = load_model(self._path("best.npz"))
            self.best_params = best.params

    # -- the loop

    def run(self, log_fn=None, stop_epoch=None) -> list[dict]:
        """Train until the target epoch count (or ``stop_epoch``, for
        interruption tests); the schedule always spans the full target."""
        while self.epoch < self.epochs and (stop_epoch is None or self.epoch < stop_epoch):
            batches = self.batches_fn(self.rng)
            losses = []
            lr = 0.0
            for batch in batches:
                lr = nn.lr_at(self.schedule, min(self.step, self.schedule.total_steps))
                loss, grads = self.loss_fn(batch, self.rng)
                if not np.isfinite(loss):
                    raise TrainingError(
                        f"non-finite loss at stage {self.stage}, epoch {self.epoch},"
                        f" step {self.step}"
                    )
                self.optimizer.step(self.model.params, grads, lr)
                self.step += 1
                losses.append(loss)
            val_metric = self.eval_fn()
            self.epoch += 1
            record = EpochRecord(
                stage=self.stage,
                epoch=self.epoch,
                step=self.step,
                train_loss=float(np.mean(losses)) if losses else float("nan"),
                val_metric=float(val_metric),
                lr=float(lr),
            ).to_dict()
            self.history.append(record)
            if log_fn is not None:
                log_fn(record)
            improved = val_metric > self.best_metric
            if improved:
                self.best_metric = float(val_metric)
                self.best_params = {k: v.copy() for k, v in self.model.params.items()}
            self.save(improved)
        if self.best_params is None:
            self.best_params = {k: v.copy() for k, v in self.model.params.items()}
        return self.history

    def best_model(self):
        params = self.best_params or self.model.params
        return type(self.model)(self.model.config, params=params)


# ---------------------------------------------------------------------------
# stage data assembly


def conversation_tensors(dataset: Dataset, provider, label_fn):
    """List of (features (T,D), labels (T,)) per conversation."""
    items = []
    for conv in dataset.conversations:
        items.append((provider.conversation_features(conv), label_fn(conv)))
    return items


def _sequence_batching(items, config, loss_one):
    """Batches of whole conversations; loss/grads averaged over the group."""
    group = config.conversations_per_batch
    if group < 1:
        raise TrainingError(f"conversations_per_batch must be >= 1, got {group}")

    def batches_fn(rng):
        order = rng.permutation(len(items))
        return [
            [items[i] for i in order[j: j + group]]
            for j in range(0, len(order), group)
        ]

    def loss_fn(chunk, rng):
        total_loss = 0.0
        total_grads = None
        for item in chunk:
            loss, grads = loss_one(item, rng)
            total_loss += loss
            if total_grads is None:
                total_grads = grads
            else:
                for k in total_grads:
                    total_grads[k] += grads[k]
        n = len(chunk)
        if n > 1:
            for k in total_grads:
                total_grads[k] /= n
        return total_loss / n, total_grads

    steps = -(-len(items) // group)
    return batches_fn, loss_fn, steps


def _row_batching(n, config, loss_rows):
    """Shuffled batches of ``config.batch_size`` row indices."""
    size = config.batch_size

    def batches_fn(rng):
        order = rng.permutation(n)
        return [order[i: i + size] for i in range(0, n, size)]

    return batches_fn, loss_rows, -(-n // size)


def _fit(stage, config, model, epochs, batching, eval_fn, out_dir, resume,
         log_fn, stop_epoch) -> StageTrainer:
    batches_fn, loss_fn, steps = batching
    trainer = StageTrainer(stage, model, config, epochs, steps, batches_fn,
                           loss_fn, eval_fn, out_dir)
    if resume:
        trainer.resume()
    trainer.run(log_fn, stop_epoch)
    return trainer


def _evaluate_stage(model, items, n_classes: int) -> float:
    """Weighted F1 of ``model.predict`` over (features, labels) items."""
    predicted, gold = [], []
    for features, labels in items:
        predicted.extend(model.predict(features))
        gold.extend(labels)
    return stage_metrics(predicted, gold, n_classes).weighted_f1


def evaluate_emotion(model: EmotionModel, items) -> float:
    return _evaluate_stage(model, items, model.config.n_classes)


def evaluate_cause(model: CauseModel, items) -> float:
    return _evaluate_stage(model, items, 2)


def _train_stage(stage, config, model, train_ds, val_ds, provider, label_fn,
                 loss_args, evaluate, epochs, out_dir, resume, log_fn, stop_epoch):
    """Emotion or cause training: row batches for the dense variant, whole
    conversations for the recurrent ones; ``loss_args`` follow the labels in
    ``model.loss_and_grads``."""
    train_items = conversation_tensors(train_ds, provider, label_fn)
    val_items = conversation_tensors(val_ds, provider, label_fn)

    def loss(features, labels, rng):
        return model.loss_and_grads(features, labels, *loss_args, training=True, rng=rng)

    if model.config.variant == "dense":
        X = np.concatenate([features for features, _ in train_items])
        y = np.concatenate([labels for _, labels in train_items])
        batching = _row_batching(X.shape[0], config,
                                 lambda idx, rng: loss(X[idx], y[idx], rng))
    else:
        batching = _sequence_batching(train_items, config,
                                      lambda item, rng: loss(*item, rng))
    return _fit(stage, config, model, epochs, batching,
                lambda: evaluate(model, val_items), out_dir, resume, log_fn, stop_epoch)


def train_emotion_stage(config, model: EmotionModel, train_ds, val_ds, provider,
                        out_dir=None, resume=False, log_fn=None,
                        epochs=None, stop_epoch=None) -> StageTrainer:
    class_weights = emotion_class_weights(train_ds, config.class_weight_floor)
    epochs = config.epochs_emotion if epochs is None else epochs
    return _train_stage("emotion", config, model, train_ds, val_ds, provider,
                        emotion_label_vector, (class_weights,), evaluate_emotion,
                        epochs, out_dir, resume, log_fn, stop_epoch)


def train_cause_stage(config, model: CauseModel, train_ds, val_ds, provider,
                      out_dir=None, resume=False, log_fn=None,
                      epochs=None, stop_epoch=None) -> StageTrainer:
    epochs = config.epochs_cause if epochs is None else epochs
    return _train_stage("cause", config, model, train_ds, val_ds, provider,
                        derive_cause_labels, (), evaluate_cause,
                        epochs, out_dir, resume, log_fn, stop_epoch)


def pairing_tensors(config, dataset: Dataset, provider,
                    emotion_model: EmotionModel, cause_model: CauseModel,
                    sample_seed: int):
    """Frozen-stage pair rows: (E (N,Re), C (N,Rc), distances (N,), labels (N,)).

    The examples are built first, so E and C are allocated once at their final
    size and each conversation's rows are gathered straight into them.
    """
    batches = []  # (conversation, (n, 3) rows of emotion id, cause id, label)
    for conv in dataset.conversations:
        examples = build_pair_examples(conv, config.negative_ratio, sample_seed)
        if examples:
            batches.append((conv, np.array(
                [(ex.emotion_utterance_id, ex.cause_utterance_id, ex.label)
                 for ex in examples], dtype=np.int64)))
    if not batches:
        raise TrainingError("no pair examples could be built (no gold pairs?)")
    e_idx, c_idx, y = np.concatenate([rows for _, rows in batches]).T
    E = np.empty((y.size, emotion_model.rep_dim))
    C = np.empty((y.size, cause_model.rep_dim))
    start = 0
    for conv, rows in batches:
        features = provider.conversation_features(conv)
        block = slice(start, start + len(rows))
        E[block] = emotion_model.representations(features)[rows[:, 0] - 1]
        C[block] = cause_model.representations(features)[rows[:, 1] - 1]
        start = block.stop
    return E, C, c_idx - e_idx, y


def evaluate_pairing(model: PairingModel, tensors) -> float:
    E, C, d, y = tensors
    predicted = (model.probabilities(E, C, d) > model.config.threshold).astype(np.int64)
    return stage_metrics(predicted, y, 2).weighted_f1


def train_pairing_stage(config, model: PairingModel, train_ds, val_ds, provider,
                        emotion_model, cause_model, out_dir=None, resume=False,
                        log_fn=None, epochs=None, stop_epoch=None) -> StageTrainer:
    train_t = pairing_tensors(config, train_ds, provider, emotion_model,
                              cause_model, config.seed)
    val_t = pairing_tensors(config, val_ds, provider, emotion_model,
                            cause_model, config.seed + 1)
    E, C, d, y = train_t
    epochs = config.epochs_pairing if epochs is None else epochs
    batching = _row_batching(y.shape[0], config, lambda idx, rng: model.loss_and_grads(
        E[idx], C[idx], d[idx], y[idx], training=True, rng=rng))
    return _fit("pairing", config, model, epochs, batching,
                lambda: evaluate_pairing(model, val_t), out_dir, resume, log_fn, stop_epoch)
