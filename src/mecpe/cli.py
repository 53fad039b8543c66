"""Operator commands: prepare / train / predict / evaluate / selfcheck.

Every command is driven by a JSON config (all fields defaulted) with
one-to-one flag overrides, and emits line-delimited JSON records.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checkpoint import CheckpointError, load_stage_model, save_model
from .config import ConfigError, ExperimentConfig
from .corpus import (
    EMOTIONS,
    Dataset,
    DatasetError,
    derive_cause_labels,
    emotion_class_weights,
    emotion_counts,
    load_dataset,
    save_dataset,
    split_train_val,
)
from .embeddings import EmbeddingError
from .metrics import MetricsError, pair_metrics, pairs_by_conversation, stage_metrics
from .models import ModelError, predict_dataset
from .selfcheck import run_selfcheck
from .training import (
    STAGES,
    TrainingError,
    make_cause_model,
    make_emotion_model,
    make_pairing_model,
    make_provider,
    train_cause_stage,
    train_emotion_stage,
    train_pairing_stage,
)


def emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        overrides[key] = value
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "output_dir", None):
        overrides["output_dir"] = args.output_dir
    if getattr(args, "dataset", None):
        overrides["dataset_path"] = args.dataset
    if overrides:
        config = config.apply_overrides(overrides)
    return config


def _split_paths(config):
    return (
        os.path.join(config.output_dir, "train.json"),
        os.path.join(config.output_dir, "val.json"),
    )


def _merged(train: Dataset, val: Dataset) -> Dataset:
    return Dataset(conversations=train.conversations + val.conversations, split_tag="train")


def cmd_prepare(args) -> int:
    config = _load_config(args)
    if not config.dataset_path:
        raise ConfigError("config.dataset_path is required for prepare")
    emit({"event": "config", "command": "prepare", "config": config.to_dict()})
    dataset = load_dataset(config.dataset_path)
    train, val = split_train_val(dataset, config.val_fraction, config.seed)
    provider = make_provider(config, dataset)
    provider.validate_coverage(dataset)
    os.makedirs(config.output_dir, exist_ok=True)
    train_path, val_path = _split_paths(config)
    save_dataset(train, train_path)
    save_dataset(val, val_path)
    histogram = {
        e.label: int(c) for e, c in zip(EMOTIONS, emotion_counts(train))
    }
    weights = emotion_class_weights(train, config.class_weight_floor)
    report = {
        "event": "prepare",
        "train_conversations": len(train.conversations),
        "val_conversations": len(val.conversations),
        "train_utterances": train.n_utterances(),
        "val_utterances": val.n_utterances(),
        "emotion_histogram": histogram,
        "class_weights": {e.label: float(w) for e, w in zip(EMOTIONS, weights)},
        "train_path": train_path,
        "val_path": val_path,
    }
    with open(os.path.join(config.output_dir, "prepare_report.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    emit(report)
    return 0


def _load_split(config):
    train_path, val_path = _split_paths(config)
    for path in (train_path, val_path):
        if not os.path.exists(path):
            raise TrainingError(f"{path} not found; run `mecpe prepare` first")
    return load_dataset(train_path, "train"), load_dataset(val_path, "val")


def cmd_train(args) -> int:
    config = _load_config(args)
    stage = args.stage
    emit({"event": "config", "command": "train", "stage": stage,
          "config": config.to_dict()})
    train, val = _load_split(config)
    provider = make_provider(config, _merged(train, val))
    os.makedirs(config.output_dir, exist_ok=True)

    log_path = os.path.join(config.output_dir, f"{stage}_log.jsonl")
    mode = "a" if args.resume else "w"
    with open(log_path, mode, encoding="utf-8") as log_file:
        def log_fn(record):
            log_file.write(json.dumps(record, sort_keys=True) + "\n")
            log_file.flush()
            emit(record)

        if not args.resume:
            log_fn({"event": "config", "stage": stage, "config": config.to_dict()})

        init_rng = np.random.default_rng((config.seed, STAGES.index(stage)))
        if stage in ("emotion", "cause"):
            make_model, train_stage = {
                "emotion": (make_emotion_model, train_emotion_stage),
                "cause": (make_cause_model, train_cause_stage),
            }[stage]
            model = make_model(config, provider.feature_dim, init_rng, args.variant)
            trainer = train_stage(
                config, model, train, val, provider, config.output_dir,
                resume=args.resume, log_fn=log_fn, epochs=args.epochs,
                stop_epoch=args.stop_epoch,
            )
        elif stage == "pairing":
            emotion_path = args.emotion_checkpoint or os.path.join(
                config.output_dir, "emotion_best.npz")
            cause_path = args.cause_checkpoint or os.path.join(
                config.output_dir, "cause_best.npz")
            emotion_model, _ = load_stage_model(emotion_path, "emotion")
            cause_model, _ = load_stage_model(cause_path, "cause")
            model = make_pairing_model(
                config, emotion_model.rep_dim, cause_model.rep_dim, init_rng)
            trainer = train_pairing_stage(
                config, model, train, val, provider, emotion_model, cause_model,
                config.output_dir, resume=args.resume, log_fn=log_fn,
                epochs=args.epochs, stop_epoch=args.stop_epoch,
            )
        else:  # pragma: no cover - argparse restricts choices
            raise TrainingError(f"unknown stage {stage!r}")

    emit({
        "event": "trained",
        "stage": stage,
        "best_val_metric": trainer.best_metric,
        "checkpoint": os.path.join(config.output_dir, f"{stage}_best.npz"),
        "log": log_path,
    })
    return 0


def cmd_predict(args) -> int:
    config = _load_config(args)
    emit({"event": "config", "command": "predict", "config": config.to_dict()})
    input_path = args.input or config.dataset_path
    if not input_path:
        raise ConfigError("an input dataset is required (--input or config.dataset_path)")
    dataset = load_dataset(input_path, "test")
    provider = make_provider(config, dataset)
    provider.validate_coverage(dataset)

    def _checkpoint(flag, stage):
        return flag or os.path.join(config.output_dir, f"{stage}_best.npz")

    emotion_model, _ = load_stage_model(_checkpoint(args.emotion_checkpoint, "emotion"), "emotion")
    cause_model, _ = load_stage_model(_checkpoint(args.cause_checkpoint, "cause"), "cause")
    pairing_model, _ = load_stage_model(_checkpoint(args.pairing_checkpoint, "pairing"), "pairing")

    predicted = predict_dataset(emotion_model, cause_model, pairing_model, dataset, provider)
    output = args.output or os.path.join(config.output_dir, "predictions.json")
    os.makedirs(os.path.dirname(os.path.abspath(output)), exist_ok=True)
    save_dataset(predicted, output)
    emit({
        "event": "predict",
        "conversations": len(predicted.conversations),
        "pairs": sum(len(c.gold_pairs or ()) for c in predicted.conversations),
        "output": output,
    })
    return 0


def _fully_labeled(dataset: Dataset) -> bool:
    return all(
        u.gold_emotion is not None
        for conv in dataset.conversations
        for u in conv.utterances
    )


def cmd_evaluate(args) -> int:
    gold = load_dataset(args.gold, "test")
    predicted = load_dataset(args.pred, "test")
    gold_ids = [c.conversation_id for c in gold.conversations]
    pred_ids = [c.conversation_id for c in predicted.conversations]
    if sorted(gold_ids) != sorted(pred_ids):
        raise MetricsError(
            f"conversation ids differ between gold and predictions:"
            f" {sorted(set(gold_ids) ^ set(pred_ids))[:10]}"
        )
    pred_by_id = {c.conversation_id: c for c in predicted.conversations}
    report: dict = {"event": "evaluate", "gold": args.gold, "pred": args.pred}

    if _fully_labeled(gold) and _fully_labeled(predicted):
        gold_labels, pred_labels = [], []
        for conv in gold.conversations:
            twin = pred_by_id[conv.conversation_id]
            if len(twin.utterances) != len(conv.utterances):
                raise MetricsError(
                    f"conversation {conv.conversation_id}: utterance counts differ"
                )
            gold_labels.extend(int(u.gold_emotion) for u in conv.utterances)
            pred_labels.extend(int(u.gold_emotion) for u in twin.utterances)
        report["emotion"] = stage_metrics(pred_labels, gold_labels, 7).to_dict()

    if all(c.gold_pairs is not None for c in gold.conversations) and all(
        c.gold_pairs is not None for c in predicted.conversations
    ):
        gold_cause, pred_cause = [], []
        for conv in gold.conversations:
            twin = pred_by_id[conv.conversation_id]
            gold_cause.extend(derive_cause_labels(conv).tolist())
            pred_cause.extend(derive_cause_labels(twin).tolist())
        report["cause"] = stage_metrics(pred_cause, gold_cause, 2).to_dict()
        report["pairs"] = pair_metrics(
            pairs_by_conversation(predicted), pairs_by_conversation(gold)
        ).to_dict()

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    emit(report)
    return 0


def cmd_selfcheck(args) -> int:
    records = run_selfcheck()
    failed = 0
    for record in records:
        emit(record)
        if not record["passed"]:
            failed += 1
    emit({"event": "selfcheck", "checks": len(records), "failed": failed})
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecpe",
        description="Three-stage emotion-cause pair extraction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (all fields defaulted)")
        p.add_argument("--seed", type=int, help="override config.seed")
        p.add_argument("--output-dir", help="override config.output_dir")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config field, e.g. --set lr=0.01"
                            " or --set embeddings.planted=true")

    p = sub.add_parser("prepare", help="split the dataset and report class stats")
    common(p)
    p.add_argument("--dataset", help="override config.dataset_path")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train one stage model")
    common(p)
    p.add_argument("--stage", required=True, choices=STAGES)
    p.add_argument("--variant", help="model variant (dense, bilstm, bilstm_crf)")
    p.add_argument("--epochs", type=int, help="override the stage's epoch count")
    p.add_argument("--stop-epoch", type=int,
                   help="pause training after this epoch (resume later with --resume)")
    p.add_argument("--resume", action="store_true",
                   help="continue from the saved trainer state")
    p.add_argument("--emotion-checkpoint", help="emotion bundle for pairing reps")
    p.add_argument("--cause-checkpoint", help="cause bundle for pairing reps")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="run the full pipeline over a dataset")
    common(p)
    p.add_argument("--input", help="input dataset (defaults to config.dataset_path)")
    p.add_argument("--output", help="predictions file (defaults into output_dir)")
    p.add_argument("--emotion-checkpoint")
    p.add_argument("--cause-checkpoint")
    p.add_argument("--pairing-checkpoint")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    common(p)
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--output", help="write the metric report to this file")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("selfcheck", help="run built-in oracles and gradient checks")
    common(p)
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CheckpointError, ConfigError, DatasetError, EmbeddingError, ModelError,
            MetricsError, TrainingError, FileNotFoundError) as exc:
        emit({"event": "error", "error": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
