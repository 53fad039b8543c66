#!/usr/bin/env python3
"""Materialize a synthetic conversation dataset (and optionally embedding
files in the precomputed text format) for CLI experiments.

Example:
    python scripts/make_synthetic_data.py --out data/synth.json \
        --conversations 200 --seed 11 --neutral-prob 0.3 \
        --embeddings-dir data/emb --planted
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mecpe.corpus import DatasetError, save_dataset
from mecpe.embeddings import PlantedRule, save_embedding_file, synthetic_provider
from mecpe.synthetic import synthetic_conversations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="dataset JSON path")
    parser.add_argument("--conversations", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--min-length", type=int, default=5)
    parser.add_argument("--max-length", type=int, default=15)
    parser.add_argument("--neutral-prob", type=float, default=0.3)
    parser.add_argument("--cause-offsets", type=int, nargs="+", default=[0])
    parser.add_argument("--embeddings-dir",
                        help="also write text/audio/video embedding files here")
    parser.add_argument("--dims", type=int, nargs=3, default=[16, 8, 8])
    parser.add_argument("--planted", action="store_true",
                        help="plant the gold emotion in the text block")
    parser.add_argument("--noise-scale", type=float, default=0.1)
    args = parser.parse_args()

    try:
        dataset = synthetic_conversations(
            args.conversations,
            seed=args.seed,
            min_length=args.min_length,
            max_length=args.max_length,
            neutral_prob=args.neutral_prob,
            cause_offsets=tuple(args.cause_offsets),
        )
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    save_dataset(dataset, args.out)
    print(f"wrote {args.out}: {len(dataset.conversations)} conversations,"
          f" {dataset.n_utterances()} utterances")

    if args.embeddings_dir:
        rule = PlantedRule(args.noise_scale) if args.planted else None
        provider = synthetic_provider(args.seed, tuple(args.dims), dataset, rule)
        os.makedirs(args.embeddings_dir, exist_ok=True)
        for modality, table in provider.tables.items():
            path = os.path.join(args.embeddings_dir, f"{modality}.emb")
            save_embedding_file(path, table)
            print(f"wrote {path}: dim={table.dim}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
