#!/usr/bin/env python3
"""Time the forward-only passes at paper shape and report their memory peaks.

Builds untrained paper-shape models (hidden 256, a 4-layer bilstm_crf emotion
and a 3-layer bilstm cause BiLSTM, features 16/8/8) over
``synthetic_conversations(1344, seed=1)`` and measures two calls:

- ``training.pairing_tensors`` over every conversation: those that yield pair
  examples go forward-only through both stage models.  It runs ``REPEATS``
  times untraced for its wall time, then once under ``tracemalloc``.
- ``models.predict_dataset`` over the first n conversations for each n in
  ``PREDICT_SIZES``: once untraced for its wall time, then once under
  ``tracemalloc``.  ``sha256`` digests the predicted conversations, so two
  versions of the code can be checked to predict the same.

A peak is what the call allocates on top of its inputs.  Prints one JSON
record.  At hidden 256 both calls run each layer's two directions on two
threads when the process may use two CPUs, so its wall times depend on
``usable_cpus`` and ``blas_threads``, which the record holds.  It takes about two minutes and a few
hundred MB, so it is kept off the test suite.

Example:
    python scripts/probe_forward_memory.py
"""

import hashlib
import json
import os
import statistics
import sys
import time
import tracemalloc

# BLAS is pinned to one thread before numpy loads, as in perfbench/run.py: at
# hidden 256 the two directions of a layer already run on two threads, and a
# BLAS thread per core under each of them oversubscribes a 2-CPU machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from mecpe import cli
from mecpe.config import EmbeddingSettings, ExperimentConfig
from mecpe.corpus import Dataset
from mecpe.models import predict_dataset
from mecpe.synthetic import synthetic_conversations
from mecpe.training import (make_cause_model, make_emotion_model, make_pairing_model,
                            make_provider, pairing_tensors)

CONVERSATIONS = 1344
HIDDEN = 256
REPEATS = 3
PREDICT_SIZES = (168, 336, 672, 1344)


def traced_peak_mb(fn):
    """``fn()`` and the tracemalloc peak, in MB, of what it allocated."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, round(peak / 2 ** 20, 1)


def main() -> int:
    config = ExperimentConfig(
        embeddings=EmbeddingSettings(kind="synthetic", seed=2, dims=(16, 8, 8),
                                     planted=True, noise_scale=0.1),
        emotion_variant="bilstm_crf", cause_variant="bilstm",
        hidden_size=HIDDEN, emotion_layers=4, cause_layers=3, seed=1,
    )
    data = synthetic_conversations(CONVERSATIONS, seed=1)
    provider = make_provider(config, data)
    emotion = make_emotion_model(config, provider.feature_dim, np.random.default_rng(0))
    cause = make_cause_model(config, provider.feature_dim, np.random.default_rng(1))
    pairing = make_pairing_model(config, emotion.rep_dim, cause.rep_dim,
                                 np.random.default_rng(2))
    splits = [(data, config.seed)]

    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        E, _, _ = pairing_tensors(config, splits, provider, emotion, cause)
        seconds.append(time.perf_counter() - start)
        del E
    (E, _, _), peak = traced_peak_mb(
        lambda: pairing_tensors(config, splits, provider, emotion, cause))
    rows = int(E.shape[0])
    del E

    predict = []
    for size in PREDICT_SIZES:
        subset = Dataset(conversations=data.conversations[:size], split_tag="test")
        start = time.perf_counter()
        predicted = predict_dataset(emotion, cause, pairing, subset, provider)
        wall = time.perf_counter() - start
        del predicted
        predicted, predict_peak = traced_peak_mb(
            lambda: predict_dataset(emotion, cause, pairing, subset, provider))
        predict.append({
            "conversations": size,
            "rows": subset.n_utterances(),
            "wall_s": round(wall, 3),
            "tracemalloc_peak_mb": predict_peak,
            "sha256": hashlib.sha256(repr(predicted.conversations).encode()).hexdigest(),
        })
        del predicted
    print(json.dumps({
        "conversations": len(data.conversations),
        "rows": rows,
        "hidden_size": HIDDEN,
        **cli.threads_record(),  # BLAS threads and usable CPUs: the wall times rest on both
        "wall_s": [round(s, 3) for s in seconds],
        "wall_s_median": round(statistics.median(seconds), 3),
        "tracemalloc_peak_mb": peak,
        "predict": predict,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
