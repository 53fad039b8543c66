"""Operator commands: prepare / train / predict / evaluate / selfcheck.

Every command is driven by a JSON config (all fields defaulted) and
``--set`` overrides; the other flags name files or control the run.  Each
emits line-delimited JSON records, usage errors included.  ``main`` sets one
BLAS thread unless the user chose a count (see ``pin_blas``).
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import nn
from .checkpoint import CheckpointError, load_stage_model
from .config import ConfigError, ExperimentConfig
from .corpus import (
    EMOTIONS,
    N_EMOTIONS,
    Dataset,
    DatasetError,
    derive_cause_labels,
    emotion_class_weights,
    emotion_counts,
    emotion_label_vector,
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


# a user who sets any of these has chosen the BLAS thread count: main keeps it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (get, set) thread-count symbols, in the order they are looked for
_OPENBLAS_SYMBOLS = tuple((f"{name}_get_num_threads{suffix}", f"{name}_set_num_threads{suffix}")
                          for name, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                                               ("openblas", "")))


def emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS numpy has loaded,
    found in the libraries /proc/self/maps lists, once per process; None
    where there is no such file, library or function."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libraries:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put
    return None


def pin_blas() -> None:
    """One BLAS thread, unless one of ``THREAD_VARS`` is set; where no known
    set function exists, nothing changes.  The package's two-thread rules
    (``nn.LSTM_THREADS_MIN``, ``nn.ADAMW_THREADS_MIN``) were measured with one
    BLAS thread: with OpenBLAS's default of one per core a paper-shape
    emotion training step took 102-119 ms, pinned ~70 ms (2-CPU machine)."""
    blas = _openblas()
    if blas is not None and not any(var in os.environ for var in THREAD_VARS):
        blas[1](1)


def threads_record() -> dict:
    """The live BLAS thread count (None where it cannot be asked) and the
    CPUs this process may use."""
    blas = _openblas()
    return {"blas_threads": None if blas is None else blas[0](),
            "usable_cpus": nn._usable_cpus()}


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        overrides[key] = value
    if overrides:
        config = config.apply_overrides(overrides)
    # the path flags (--output-dir, prepare's --dataset, predict's --input),
    # taken as typed: a path is not parsed as a JSON literal
    paths = {key: getattr(args, key, None) for key in ("output_dir", "dataset_path")}
    return dataclasses.replace(config, **{key: path for key, path in paths.items() if path})


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
    emit({"event": "config", "command": "prepare", "config": config.to_dict(),
          **threads_record()})
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
    emit(report)
    return 0


def _load_split(config):
    train_path, val_path = _split_paths(config)
    for path in (train_path, val_path):
        if not os.path.exists(path):
            raise TrainingError(f"{path} not found; run `mecpe prepare` first")
    return load_dataset(train_path, "train"), load_dataset(val_path, "val")


def _bundle_path(config, path, stage) -> str:
    """``path``, by default ``<stage>_best.npz`` in the output dir."""
    return path or os.path.join(config.output_dir, f"{stage}_best.npz")


def _stage_bundle(config, path, stage):
    """The stage model in ``_bundle_path(config, path, stage)``."""
    return load_stage_model(_bundle_path(config, path, stage), stage)[0]


def _sha256(path) -> str:
    """The hex SHA-256 of the file's bytes."""
    import hashlib  # 3 ms of OpenSSL set-up that only a pairing run needs

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(functools.partial(fh.read, 1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _refuse_other_run(log_path, header: dict) -> None:
    """Refuse a resume under other features or loss settings, or (pairing)
    on other frozen bundles, than the run whose config record heads
    ``log_path``: ``state.npz`` records only the model config and
    ``training.RUN_FIELDS``."""
    try:
        with open(log_path, encoding="utf-8") as fh:
            logged = json.loads(fh.readline())
    except (OSError, ValueError):
        logged = None
    if not (isinstance(logged, dict) and logged.get("event") == "config"
            and isinstance(logged.get("config"), dict)):
        raise TrainingError(f"resume refused: {log_path} does not begin with a config record")
    config = header["config"]
    differ = [key for key in ("embeddings", "class_weight_floor", "negative_ratio")
              if json.dumps(logged["config"].get(key), sort_keys=True)
              != json.dumps(config[key], sort_keys=True)]
    if differ:
        raise TrainingError(f"resume refused: {log_path} records a run with other {differ}")
    logged_frozen = logged.get("frozen")
    for stage, bundle in header.get("frozen", {}).items():
        then = logged_frozen.get(stage) if isinstance(logged_frozen, dict) else None
        if not (isinstance(then, dict) and then.get("sha256") == bundle["sha256"]):
            raise TrainingError(f"resume refused: the {stage} bundle {bundle['path']} is not"
                                f" the one {log_path} records")


def cmd_train(args) -> int:
    if args.stop_epoch is not None and args.stop_epoch < 1:
        raise ConfigError(f"--stop-epoch must be >= 1, got {args.stop_epoch}")
    config = _load_config(args)
    stage = args.stage
    header = {"event": "config", "command": "train", "stage": stage,
              "config": config.to_dict(), **threads_record()}
    frozen = ()  # the trained stage models the pairing stage reads
    if stage == "pairing":
        paths = {name: _bundle_path(config, path, name)
                 for name, path in (("emotion", args.emotion_checkpoint),
                                    ("cause", args.cause_checkpoint))}
        frozen = tuple(_stage_bundle(config, path, name) for name, path in paths.items())
        header["frozen"] = {name: {"path": path, "sha256": _sha256(path)}
                            for name, path in paths.items()}
    emit(header)
    train, val = _load_split(config)
    provider = make_provider(config, _merged(train, val))
    init_rng = np.random.default_rng((config.seed, STAGES.index(stage)))
    if stage == "pairing":
        model = make_pairing_model(config, frozen[0].rep_dim, frozen[1].rep_dim, init_rng)
    else:
        make_model = make_emotion_model if stage == "emotion" else make_cause_model
        model = make_model(config, provider.feature_dim, init_rng)
    os.makedirs(config.output_dir, exist_ok=True)

    # the log is opened only once the run can start: a refused fresh run
    # leaves the previous run's log as it was
    log_path = os.path.join(config.output_dir, f"{stage}_log.jsonl")
    if args.resume:
        _refuse_other_run(log_path, header)
    with open(log_path, "a" if args.resume else "w", encoding="utf-8") as log_file:
        def log_fn(record):
            log_file.write(json.dumps(record, sort_keys=True) + "\n")
            log_file.flush()
            emit(record)

        if not args.resume:  # the log begins with the config record stdout has
            log_file.write(json.dumps(header, sort_keys=True) + "\n")

        train_stage = {"emotion": train_emotion_stage, "cause": train_cause_stage,
                       "pairing": train_pairing_stage}[stage]
        trainer = train_stage(config, model, train, val, provider, *frozen,
                              out_dir=config.output_dir, resume=args.resume, log_fn=log_fn,
                              stop_epoch=args.stop_epoch)

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
    emit({"event": "config", "command": "predict", "config": config.to_dict(),
          **threads_record()})
    if not config.dataset_path:
        raise ConfigError("an input dataset is required (--input or config.dataset_path)")
    dataset = load_dataset(config.dataset_path, "test")
    provider = make_provider(config, dataset)
    provider.validate_coverage(dataset)

    emotion_model = _stage_bundle(config, args.emotion_checkpoint, "emotion")
    cause_model = _stage_bundle(config, args.cause_checkpoint, "cause")
    pairing_model = _stage_bundle(config, args.pairing_checkpoint, "pairing")

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
    # each prediction in gold order, checked before any per-utterance metric
    twins = [pred_by_id[conv.conversation_id] for conv in gold.conversations]
    for conv, twin in zip(gold.conversations, twins):
        if len(twin.utterances) != len(conv.utterances):
            raise MetricsError(f"conversation {conv.conversation_id}: utterance counts differ")
    report: dict = {"event": "evaluate", "gold": args.gold, "pred": args.pred}
    both = gold.conversations + predicted.conversations

    def stage_report(label_fn, n_classes: int) -> dict:
        gold_labels = [y for conv in gold.conversations for y in label_fn(conv).tolist()]
        pred_labels = [y for twin in twins for y in label_fn(twin).tolist()]
        return stage_metrics(pred_labels, gold_labels, n_classes).to_dict()

    if all(u.gold_emotion is not None for conv in both for u in conv.utterances):
        report["emotion"] = stage_report(emotion_label_vector, N_EMOTIONS)
    if all(conv.gold_pairs is not None for conv in both):
        report["cause"] = stage_report(derive_cause_labels, 2)
        report["pairs"] = dataclasses.asdict(pair_metrics(
            pairs_by_conversation(predicted), pairs_by_conversation(gold)
        ))
    emit(report)
    return 0


def cmd_selfcheck(args) -> int:
    records = run_selfcheck(_load_config(args).hidden_size)
    failed = 0
    for record in records:
        emit(record)
        if not record["passed"]:
            failed += 1
    emit({"event": "selfcheck", "checks": len(records), "failed": failed,
          **threads_record()})
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """A parser, the subcommands' included, whose usage errors are JSON error
    records on stdout, exit code 2; ``--help`` is argparse's own."""

    def error(self, message):
        emit({"event": "error", "error": f"{self.prog}: {message}"})
        sys.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mecpe",
        description="Three-stage emotion-cause pair extraction pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(p):
        p.add_argument("--config", help="JSON config file (all fields defaulted)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config field, e.g. --set lr=0.01"
                            " or --set embeddings.planted=true")

    def common(p):
        config_flags(p)
        p.add_argument("--output-dir", help="override config.output_dir")

    p = sub.add_parser("prepare", help="split the dataset and report class stats")
    common(p)
    p.add_argument("--dataset", dest="dataset_path", help="override config.dataset_path")
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train one stage model")
    common(p)
    p.add_argument("--stage", required=True, choices=STAGES)
    p.add_argument("--stop-epoch", type=int,
                   help="pause training after this epoch (resume later with --resume)")
    p.add_argument("--resume", action="store_true",
                   help="continue from the saved trainer state")
    p.add_argument("--emotion-checkpoint", help="emotion bundle for pairing reps")
    p.add_argument("--cause-checkpoint", help="cause bundle for pairing reps")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="run the full pipeline over a dataset")
    common(p)
    p.add_argument("--input", dest="dataset_path",
                   help="input dataset: overrides config.dataset_path")
    p.add_argument("--output", help="predictions file (defaults into output_dir)")
    p.add_argument("--emotion-checkpoint")
    p.add_argument("--cause-checkpoint")
    p.add_argument("--pairing-checkpoint")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("selfcheck", help="run built-in oracles and gradient checks")
    config_flags(p)  # only hidden_size is read: the checks run on fixed seeds
    p.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    pin_blas()
    try:
        return args.fn(args)
    except (CheckpointError, ConfigError, DatasetError, EmbeddingError, ModelError,
            MetricsError, TrainingError, OSError, MemoryError) as exc:
        emit({"event": "error", "error": str(exc) or type(exc).__name__})
        return 2


if __name__ == "__main__":
    sys.exit(main())
