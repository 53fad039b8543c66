"""The npz container of model bundles and trainer states: named arrays plus a
JSON meta block.  Write/read round-trips bit-exactly, and every write replaces
the previous file atomically.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zipfile

import numpy as np

from .models import (
    CauseModel,
    CauseModelConfig,
    EmotionModel,
    EmotionModelConfig,
    PairingModel,
    PairingModelConfig,
)

STAGE_MODELS = {
    "emotion": (EmotionModel, EmotionModelConfig),
    "cause": (CauseModel, CauseModelConfig),
    "pairing": (PairingModel, PairingModelConfig),
}


class CheckpointError(Exception):
    pass


def savez_atomic(path, **arrays) -> None:
    """``np.savez`` into a temp file next to ``path``, then ``os.replace`` it
    into place: ``path`` holds the old or the new file, never part of one,
    and a failed write leaves no temp file behind."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_model(path, stage: str, model, extra: dict | None = None) -> None:
    if stage not in STAGE_MODELS:
        raise CheckpointError(f"unknown stage {stage!r}")
    meta = {
        "stage": stage,
        "config": dataclasses.asdict(model.config),
        "fusion_order": "text|audio|video",  # fixed; recorded for portability
        "extra": extra or {},
    }
    arrays = {f"param:{k}": np.asarray(v, dtype=np.float64) for k, v in model.params.items()}
    savez_atomic(path, __meta__=json.dumps(meta, sort_keys=True), **arrays)


def read_npz(path, what: str):
    """(meta, arrays) of an npz container with a JSON ``__meta__`` member:
    the decoded meta block and every other member as its own C-contiguous
    array.  Raises CheckpointError naming ``path`` for a file that is not an
    npz archive or has no meta block, or whose meta block is not JSON."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if "__meta__" not in data.files:
                raise CheckpointError(f"{path}: not a {what} (missing meta block)")
            meta = json.loads(str(data["__meta__"][()]))
            # each member is read into its own array: copy only a Fortran-ordered one
            arrays = {k: np.asarray(data[k], order="C") for k in data.files if k != "__meta__"}
    except (EOFError, OSError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # TypeError: np.load returned a bare .npy array, not an npz archive
        raise CheckpointError(f"{path}: cannot read a {what} ({exc})") from None
    return meta, arrays


def check_arrays(path, expected: dict, arrays: dict) -> None:
    """Refuses, with a CheckpointError naming ``path`` and the array,
    ``arrays`` unless they hold one array of each ``expected`` name -> shape
    and nothing else."""
    for name in sorted(expected.keys() | arrays.keys()):
        if name not in arrays:
            raise CheckpointError(f"{path}: lacks {name!r}")
        if name not in expected:
            raise CheckpointError(f"{path}: holds an unexpected {name!r}")
        if arrays[name].shape != expected[name]:
            raise CheckpointError(f"{path}: {name!r} has shape {arrays[name].shape},"
                                  f" expected {expected[name]}")


def load_model(path):
    """Returns (stage, model, extra).

    Raises CheckpointError naming ``path`` for a file that ``read_npz`` or
    ``check_arrays`` refuses (against the shapes the config needs), an
    unknown stage or an unknown config field.  Emotion bundles written before
    the decoder was fixed to Viterbi record ``crf_decode``; "viterbi" is
    dropped, any other value refused.
    """
    meta, arrays = read_npz(path, "model bundle")
    params = {k[len("param:"):]: v for k, v in arrays.items() if k.startswith("param:")}
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"{path}: not a model bundle (meta block has no config object)")
    stage = meta.get("stage")
    if stage not in STAGE_MODELS:
        raise CheckpointError(f"{path}: unknown stage {stage!r}")
    model_cls, config_cls = STAGE_MODELS[stage]
    config = meta["config"]
    decode = config.pop("crf_decode", "viterbi") if stage == "emotion" else "viterbi"
    if decode != "viterbi":
        raise CheckpointError(f"{path}: crf_decode {decode!r} is not supported (Viterbi only)")
    unknown = sorted(config.keys() - {f.name for f in dataclasses.fields(config_cls)})
    if unknown:
        raise CheckpointError(f"{path}: unknown {stage} config field(s) {unknown}")
    model = model_cls(config_cls(**config), params=params)
    check_arrays(path, model.param_shapes(), params)
    return stage, model, meta.get("extra", {})


def load_stage_model(path, expected_stage: str):
    stage, model, extra = load_model(path)
    if stage != expected_stage:
        raise CheckpointError(
            f"{path}: bundle holds a {stage!r} model, expected {expected_stage!r}"
        )
    return model, extra
