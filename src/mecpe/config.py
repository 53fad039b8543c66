"""Experiment configuration: one JSON document with full defaulting.

Defaults mirror the reference training setup: embedding dropout 0.3, emotion
BiLSTM 4 layers, cause BiLSTM 3 layers, inter-layer dropout 0.3, epochs
60/40/40, negative ratio 1:5, 90-10 train/val split, AdamW with warmup-linear
schedule.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .corpus import read_json
from .models import CAUSE_VARIANTS, EMOTION_VARIANTS


class ConfigError(Exception):
    pass


EMBEDDING_KINDS = ("synthetic", "files")


@dataclass
class EmbeddingSettings:
    kind: str = "synthetic"            # one of EMBEDDING_KINDS
    seed: int = 0
    dims: tuple[int, int, int] = (16, 8, 8)
    planted: bool = False
    noise_scale: float = 0.1
    text_path: str | None = None
    audio_path: str | None = None
    video_path: str | None = None


@dataclass
class ExperimentConfig:
    # paths
    dataset_path: str | None = None
    output_dir: str = "runs/default"
    embeddings: EmbeddingSettings = field(default_factory=EmbeddingSettings)

    # model selection and architecture
    emotion_variant: str = "dense"
    cause_variant: str = "dense"
    emotion_layers: int = 4
    cause_layers: int = 3
    hidden_size: int = 256
    embedding_dropout: float = 0.3
    inter_layer_dropout: float = 0.3

    # pairing
    negative_ratio: int = 5
    max_distance: int = 12
    distance_dim: int = 32
    threshold: float = 0.5

    # optimization
    epochs_emotion: int = 60
    epochs_cause: int = 40
    epochs_pairing: int = 40
    lr: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    warmup_fraction: float = 0.1
    batch_size: int = 64              # utterance/pair rows per step for dense/pairing models
    conversations_per_batch: int = 1  # whole conversations per step for sequence models

    # data
    val_fraction: float = 0.1
    class_weight_floor: int | None = None
    seed: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from a JSON object; raises ConfigError naming the
        field for an unknown field or a value of the wrong type."""
        data = dict(_checked(cls, data))
        emb = dict(_checked(EmbeddingSettings, data.pop("embeddings", {}), "embeddings"))
        if "dims" in emb:
            emb["dims"] = tuple(emb["dims"])
        return cls(embeddings=EmbeddingSettings(**emb), **data)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path, ConfigError))

    def apply_overrides(self, overrides: dict) -> "ExperimentConfig":
        """New config with flat key=value overrides (embeddings.* reaches the
        nested block); string values are parsed by the field's type."""
        data = self.to_dict()
        types = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
        types.update({f"embeddings.{f.name}": f.type
                      for f in dataclasses.fields(EmbeddingSettings)})
        for key, value in overrides.items():
            if key not in types:
                raise ConfigError(f"unknown config field {key!r}")
            block, _, leaf = key.rpartition(".")
            (data[block] if block else data)[leaf] = _parse(value, types[key])
        return ExperimentConfig.from_dict(data)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# value checks by field annotation (``from __future__ import annotations``
# keeps these as strings)
_VALID = {
    "int": _is_int,
    "float": lambda v: _is_int(v) or isinstance(v, float),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "str | None": lambda v: v is None or isinstance(v, str),
    "int | None": lambda v: v is None or _is_int(v),
    "tuple[int, int, int]": lambda v: (
        isinstance(v, (list, tuple)) and len(v) == 3 and all(map(_is_int, v))),
    "EmbeddingSettings": lambda v: True,  # checked as its own block
}


# allowed values of the fields whose type admits values the pipeline cannot
# run, as (description, check); checked after the type
_AT_LEAST_ONE = (">= 1", lambda v: v >= 1)
_RATE = ("in [0, 1)", lambda v: 0 <= v < 1)
_RANGES = {
    **dict.fromkeys(("emotion_layers", "cause_layers", "hidden_size", "batch_size",
                     "conversations_per_batch", "negative_ratio", "epochs_emotion",
                     "epochs_cause", "epochs_pairing"), _AT_LEAST_ONE),
    **dict.fromkeys(("embedding_dropout", "inter_layer_dropout", "beta1", "beta2"), _RATE),
    **dict.fromkeys(("seed", "embeddings.seed", "max_distance", "distance_dim"),
                    (">= 0", lambda v: v >= 0)),
    "lr": ("> 0", lambda v: v > 0),
    "warmup_fraction": ("in [0, 1]", lambda v: 0 <= v <= 1),
    "emotion_variant": (f"one of {EMOTION_VARIANTS}", EMOTION_VARIANTS.__contains__),
    "cause_variant": (f"one of {CAUSE_VARIANTS}", CAUSE_VARIANTS.__contains__),
    "embeddings.kind": (f"one of {EMBEDDING_KINDS}", EMBEDDING_KINDS.__contains__),
}


def _checked(cls, data, block: str | None = None) -> dict:
    """``data`` after checking it is an object whose fields ``cls`` declares,
    each holding a value of the declared type within ``_RANGES``; ``block``
    names a nested one."""
    if not isinstance(data, dict):
        where = f"config field {block!r}" if block else "config"
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {block or 'config'} field(s): {sorted(unknown)}")
    for name, value in data.items():
        field_name = f"{block}.{name}" if block else name
        if not _VALID[fields[name]](value):
            raise ConfigError(
                f"config field {field_name!r} must be {fields[name]}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config field {field_name!r} must be finite, got {value!r}")
        allowed, ok = _RANGES.get(field_name, (None, None))
        if ok is not None and not ok(value):
            raise ConfigError(f"config field {field_name!r} must be {allowed}, got {value!r}")
    return data


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse(value, annotation: str):
    """A string override as a value of the field's type: int(), float(), a
    boolean word, the raw string for str fields, else a JSON literal.  What
    does not parse stays a string, for ``from_dict`` to reject."""
    if not isinstance(value, str) or annotation == "str":
        return value
    try:
        if annotation == "bool":
            return _BOOLS[value.lower()]
        return {"int": int, "float": float}.get(annotation, json.loads)(value)
    except (KeyError, ValueError):
        return value
