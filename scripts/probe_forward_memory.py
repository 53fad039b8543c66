#!/usr/bin/env python3
"""Time one pairing-stage input pass at paper shape and report its memory peak.

Builds untrained paper-shape stage models (hidden 256, a 4-layer bilstm_crf
emotion and a 3-layer bilstm cause BiLSTM, features 16/8/8) and runs
``training.pairing_tensors`` over ``synthetic_conversations(1344, seed=1)``:
every conversation that yields pair examples goes forward-only through both
stage models.  The pass runs ``REPEATS`` times untraced for its wall time,
then once under ``tracemalloc`` for the peak of what it allocates on top of
the inputs.  Prints one JSON record.  It takes about half a minute and a few
hundred MB, so it is kept off the test suite.

Example:
    python scripts/probe_forward_memory.py
"""

import json
import os
import statistics
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from mecpe.config import EmbeddingSettings, ExperimentConfig
from mecpe.synthetic import synthetic_conversations
from mecpe.training import make_cause_model, make_emotion_model, make_provider, pairing_tensors

CONVERSATIONS = 1344
HIDDEN = 256
REPEATS = 3


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
    splits = [(data, config.seed)]

    seconds = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        E, _, _ = pairing_tensors(config, splits, provider, emotion, cause)
        seconds.append(time.perf_counter() - start)
        del E
    tracemalloc.start()
    try:
        E, _, _ = pairing_tensors(config, splits, provider, emotion, cause)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(json.dumps({
        "conversations": len(data.conversations),
        "rows": int(E.shape[0]),
        "hidden_size": HIDDEN,
        "wall_s": [round(s, 3) for s in seconds],
        "wall_s_median": round(statistics.median(seconds), 3),
        "tracemalloc_peak_mb": round(peak / 2 ** 20, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
