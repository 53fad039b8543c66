"""Model bundle files: named float64 parameter arrays plus a JSON config block
inside one npz container.  Write/read round-trips bit-exactly, and every write
replaces the previous file atomically.
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

_STAGES = {
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
    if stage not in _STAGES:
        raise CheckpointError(f"unknown stage {stage!r}")
    meta = {
        "stage": stage,
        "config": dataclasses.asdict(model.config),
        "fusion_order": "text|audio|video",  # fixed; recorded for portability
        "extra": extra or {},
    }
    arrays = {f"param:{k}": np.asarray(v, dtype=np.float64) for k, v in model.params.items()}
    savez_atomic(path, __meta__=json.dumps(meta, sort_keys=True), **arrays)


def load_model(path):
    """Returns (stage, model, extra).

    Raises CheckpointError naming ``path`` for a file that is not a readable
    bundle, an unknown stage or config field, or a parameter that is missing,
    unexpected or not the shape the config needs.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if "__meta__" not in data.files:
                raise CheckpointError(f"{path}: not a model bundle (missing meta block)")
            meta = json.loads(str(data["__meta__"][()]))
            params = {
                k[len("param:"):]: data[k].copy()
                for k in data.files
                if k.startswith("param:")
            }
    except (EOFError, OSError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # TypeError: np.load returned a bare .npy array, not an npz archive
        raise CheckpointError(f"{path}: cannot read a model bundle ({exc})") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("config"), dict):
        raise CheckpointError(f"{path}: not a model bundle (meta block has no config object)")
    stage = meta.get("stage")
    if stage not in _STAGES:
        raise CheckpointError(f"{path}: unknown stage {stage!r}")
    model_cls, config_cls = _STAGES[stage]
    config = meta["config"]
    unknown = sorted(config.keys() - {f.name for f in dataclasses.fields(config_cls)})
    if unknown:
        raise CheckpointError(f"{path}: unknown {stage} config field(s) {unknown}")
    model = model_cls(config_cls(**config), params=params)
    expected = model.param_shapes()
    for name in sorted(expected.keys() | params.keys()):
        if name not in params:
            raise CheckpointError(f"{path}: parameter {name!r} missing")
        if name not in expected:
            raise CheckpointError(f"{path}: unexpected parameter {name!r}")
        if params[name].shape != expected[name]:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {params[name].shape},"
                f" the config needs {expected[name]}")
    return stage, model, meta.get("extra", {})


def load_stage_model(path, expected_stage: str):
    stage, model, extra = load_model(path)
    if stage != expected_stage:
        raise CheckpointError(
            f"{path}: bundle holds a {stage!r} model, expected {expected_stage!r}"
        )
    return model, extra
