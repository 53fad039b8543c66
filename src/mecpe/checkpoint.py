"""The npz container of model bundles and trainer states: named arrays plus a
JSON meta block.  Write/read round-trips bit-exactly, and every write replaces
the previous file atomically.  The writer gives ``np.savez``'s bytes without
its staging copy of each array, and the reader reads each member once, so
neither holds a second copy of a large array.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import tokenize
import zipfile
import zlib

import numpy as np
from numpy.lib import format as npy_format

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
    """The npz file ``np.savez`` writes, byte for byte, into a temp file next
    to ``path``, then ``os.replace``d into place: ``path`` holds the old or
    the new file, never part of one, and a failed write leaves no temp file
    behind.  A C-contiguous array of numbers is written from its own memory,
    its npy header and then one view of its bytes, so the CRC-32 and the file
    write run outside the GIL with no staging copy; any other array (Fortran
    order, strided, strings, objects) goes through ``np.lib.format``."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh, \
                zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
            for key, value in arrays.items():
                value = np.asanyarray(value)
                # zip64 always, as np.savez writes it
                with archive.open(key + ".npy", "w", force_zip64=True) as member:
                    if value.flags.c_contiguous and value.dtype.kind in "biufc":
                        npy_format.write_array_header_1_0(
                            member, npy_format.header_data_from_array_1_0(value))
                        member.write(value.reshape(-1).view(np.uint8))
                    else:
                        npy_format.write_array(member, value)
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


def _read_member(fh, archive, info, headers: dict) -> np.ndarray:
    """The array in one npz member, read into memory of its own: a stored
    member straight from ``fh`` at the data offset its local header gives, a
    deflated one from ``zipfile``'s inflated bytes.  The npy header is parsed
    only once the CRC-32 of the header and data matches the zip directory's,
    and only if ``headers`` (npy header bytes -> (shape, fortran order,
    dtype)) does not hold it yet: the members of one shape share a header."""
    if info.flag_bits & 1:  # zipfile would ask for a password
        raise ValueError(f"member {info.filename!r} is encrypted")
    if info.compress_type == zipfile.ZIP_STORED:
        fh.seek(info.header_offset)
        local = fh.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise zipfile.BadZipFile(f"bad local header of member {info.filename!r}")
        start = info.header_offset + 30 + int.from_bytes(local[26:28], "little") \
            + int.from_bytes(local[28:30], "little")
        stream, available = fh, os.fstat(fh.fileno()).st_size - start
    elif info.compress_type == zipfile.ZIP_DEFLATED:
        inflated = archive.read(info)
        start, stream, available = 0, io.BytesIO(inflated), len(inflated)
    else:
        raise ValueError(f"member {info.filename!r} uses compression method"
                         f" {info.compress_type}")
    stream.seek(start)
    version = npy_format.read_magic(stream)
    readers = {(1, 0): (npy_format.read_array_header_1_0, 2),
               (2, 0): (npy_format.read_array_header_2_0, 4)}
    if version not in readers:
        raise ValueError(f"member {info.filename!r} has npy format version {version}")
    read_header, length_size = readers[version]
    header_size = stream.tell() - start + length_size \
        + int.from_bytes(stream.read(length_size), "little")
    if not header_size <= info.file_size <= available:
        raise ValueError(f"member {info.filename!r} is cut short")
    stream.seek(start)
    header = stream.read(header_size)
    data = np.empty(info.file_size - header_size, dtype=np.uint8)
    if stream.readinto(data) != data.size:
        raise EOFError(f"member {info.filename!r} is cut short")
    if zlib.crc32(data, zlib.crc32(header)) != info.CRC:
        raise zipfile.BadZipFile(f"bad CRC-32 for member {info.filename!r}")
    if header not in headers:
        stream = io.BytesIO(header)
        npy_format.read_magic(stream)
        headers[header] = read_header(stream)
    shape, fortran, dtype = headers[header]
    if dtype.hasobject:
        raise ValueError(f"member {info.filename!r} holds Python objects")
    if math.prod(shape) * dtype.itemsize != data.size:
        raise ValueError(f"member {info.filename!r} holds {data.size} bytes of data,"
                         f" not the {math.prod(shape) * dtype.itemsize} of its npy header")
    array = data.view(dtype).reshape(shape, order="F" if fortran else "C")
    return np.ascontiguousarray(array) if fortran else array


def read_npz(path, what: str):
    """(meta, arrays) of an npz container with a JSON ``__meta__`` member:
    the decoded meta block and every other member as its own C-contiguous
    array.

    Each member costs one allocation and one read: a stored member is read
    straight into its array, a deflated one (``np.savez_compressed``) is
    inflated by ``zipfile`` and copied once, and only a Fortran-ordered member
    is copied again, into C order.  The CRC-32 of every member is checked,
    and each distinct npy header is parsed once.
    Raises CheckpointError naming ``path`` for a file that is not an npz
    archive, has no meta block, holds a member that is not a plain npy array
    (Python objects included) or fails its CRC, or whose meta block is not
    JSON."""
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as archive:
            # np.savez names each member "<name>.npy"
            members = {(info.filename[:-4] if info.filename.endswith(".npy")
                        else info.filename): info for info in archive.infolist()}
            if "__meta__" not in members:
                raise CheckpointError(f"{path}: not a {what} (missing meta block)")
            headers: dict = {}
            arrays = {name: _read_member(fh, archive, info, headers)
                      for name, info in members.items()}
        meta = json.loads(str(arrays.pop("__meta__")[()]))
    except (EOFError, NotImplementedError, OSError, OverflowError, TypeError, ValueError,
            tokenize.TokenError, zipfile.BadZipFile, zlib.error) as exc:
        # NotImplementedError: zipfile refuses a zip version or feature;
        # TypeError and TokenError: numpy's parser on an npy header of the
        # right CRC-32 but no valid literal
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
