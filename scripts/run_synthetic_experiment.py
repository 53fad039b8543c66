#!/usr/bin/env python3
"""Train and score one pipeline variant end to end on planted synthetic data.

Runs the three stages at desk scale and reports stage metrics plus the final
pair weighted/macro F1 on the held-out split.

Example:
    python scripts/run_synthetic_experiment.py --variant bilstm_crf --epochs 10
"""

import argparse
import dataclasses
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from mecpe.config import EmbeddingSettings, ExperimentConfig
from mecpe.corpus import split_train_val
from mecpe.metrics import pair_metrics, pairs_by_conversation
from mecpe.models import predict_dataset
from mecpe.synthetic import synthetic_conversations
from mecpe.training import (
    make_cause_model,
    make_emotion_model,
    make_pairing_model,
    make_provider,
    train_cause_stage,
    train_emotion_stage,
    train_pairing_stage,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", default="dense",
                        choices=("dense", "bilstm", "bilstm_crf"))
    parser.add_argument("--conversations", type=int, default=200)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--hidden-size", type=int, default=48)
    parser.add_argument("--lr", type=float, default=None,
                        help="default: 0.01 for dense, 0.003 otherwise")
    parser.add_argument("--neutral-prob", type=float, default=0.3)
    parser.add_argument("--noise-scale", type=float, default=0.1)
    parser.add_argument("--dropout", type=float, default=0.0,
                        help="embedding and inter-layer dropout for the desk run")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    lr = args.lr if args.lr is not None else (0.01 if args.variant == "dense" else 0.003)
    config = ExperimentConfig(
        embeddings=EmbeddingSettings(
            kind="synthetic", seed=args.seed + 1, dims=(16, 8, 8),
            planted=True, noise_scale=args.noise_scale,
        ),
        emotion_variant=args.variant,
        cause_variant="dense" if args.variant == "dense" else "bilstm",
        hidden_size=args.hidden_size,
        embedding_dropout=args.dropout,
        inter_layer_dropout=args.dropout,
        lr=lr,
        epochs_emotion=args.epochs,
        epochs_cause=args.epochs,
        epochs_pairing=args.epochs,
        seed=args.seed,
    )

    t0 = time.time()
    data = synthetic_conversations(
        args.conversations, seed=args.seed + 2, neutral_prob=args.neutral_prob
    )
    train, val = split_train_val(data, config.val_fraction, config.seed)
    provider = make_provider(config, data)

    init_rng = np.random.default_rng(config.seed)
    emotion = make_emotion_model(config, provider.feature_dim, init_rng)
    trainer = train_emotion_stage(config, emotion, train, val, provider)
    emotion = trainer.best_model()
    print(f"[{time.time()-t0:6.1f}s] emotion ({args.variant}): "
          f"best val weighted F1 = {trainer.best_metric:.4f}")

    cause = make_cause_model(config, provider.feature_dim, init_rng)
    trainer = train_cause_stage(config, cause, train, val, provider)
    cause = trainer.best_model()
    print(f"[{time.time()-t0:6.1f}s] cause ({config.cause_variant}): "
          f"best val weighted F1 = {trainer.best_metric:.4f}")

    pairing = make_pairing_model(config, emotion.rep_dim, cause.rep_dim, init_rng)
    trainer = train_pairing_stage(config, pairing, train, val, provider, emotion, cause)
    pairing = trainer.best_model()
    print(f"[{time.time()-t0:6.1f}s] pairing: best val weighted F1 = {trainer.best_metric:.4f}")

    predictions = predict_dataset(emotion, cause, pairing, val, provider)
    result = pair_metrics(
        pairs_by_conversation(predictions), pairs_by_conversation(val)
    )
    print(f"[{time.time()-t0:6.1f}s] held-out pairs:")
    print(json.dumps(dataclasses.asdict(result), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
