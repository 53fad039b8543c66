"""The npz container of model bundles and trainer states: named arrays plus a
JSON meta block.  There is one format, the one ``np.savez`` writes for
C-contiguous arrays of plain data: stored zip64 members, each an npy 1.0
header and then the array's bytes in C order.  ``savez_atomic`` writes it,
without ``np.savez``'s staging copy of each array, and replaces the previous
file atomically; ``read_npz`` reads it, a file's members once, into one
buffer, and refuses any other member.  Write/read round-trips bit-exactly.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import queue
import tokenize
import zipfile
import zlib

import numpy as np
from numpy.lib import format as npy_format

from . import nn
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
    behind.  Every member, the ``__meta__`` string included, is its npy 1.0
    header and then one view of the array's own memory, so the CRC-32 and the
    file write run outside the GIL with no staging copy.  An array that is
    not C-contiguous (Fortran order, strided) or holds Python objects is
    refused with a CheckpointError before the temp file is made."""
    arrays = {key: np.asanyarray(value) for key, value in arrays.items()}
    for key, value in arrays.items():
        if not value.flags.c_contiguous or value.dtype.hasobject:
            raise CheckpointError(f"{path}: cannot write {key!r}, which is not a"
                                  f" C-contiguous array of plain data")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh, \
                zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED, allowZip64=True) as archive:
            for key, value in arrays.items():
                # zip64 always, as np.savez writes it
                with archive.open(key + ".npy", "w", force_zip64=True) as member:
                    npy_format.write_array_header_1_0(
                        member, npy_format.header_data_from_array_1_0(value))
                    member.write(value.reshape(-1).view(np.uint8))
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


def _stored_span(fh, info, file_size: int) -> tuple[int, int]:
    """(data start in the file, npy header size) of a member, once its span
    is checked against the file's ``file_size``.  Refuses a member that is
    encrypted or not stored (``np.savez_compressed`` deflates), whose npy
    version is not 1.0, or whose directory size is smaller than its npy
    header or reaches past the end of the file."""
    if info.flag_bits & 1:  # zipfile would ask for a password
        raise ValueError(f"member {info.filename!r} is encrypted")
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"member {info.filename!r} is compressed (method"
                         f" {info.compress_type}), not stored")
    fh.seek(info.header_offset)
    local = fh.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise zipfile.BadZipFile(f"bad local header of member {info.filename!r}")
    start = info.header_offset + 30 + int.from_bytes(local[26:28], "little") \
        + int.from_bytes(local[28:30], "little")
    fh.seek(start)
    version = npy_format.read_magic(fh)
    if version != (1, 0):
        raise ValueError(f"member {info.filename!r} has npy format version {version}, not 1.0")
    # magic and version, then the header's 2-byte length and the header
    header_size = 10 + int.from_bytes(fh.read(2), "little")
    if not header_size <= info.file_size <= file_size - start:
        raise ValueError(f"member {info.filename!r} is cut short")
    return start, header_size


def _array(info, header: bytes, data: np.ndarray, headers: dict) -> np.ndarray:
    """The array of a member whose npy ``header`` and ``data`` have passed
    the CRC-32, as a view of ``data``.  Refuses a Fortran-ordered member and
    one of Python objects.  Each distinct header is parsed once, into
    ``headers``."""
    if header not in headers:
        stream = io.BytesIO(header)
        npy_format.read_magic(stream)
        headers[header] = npy_format.read_array_header_1_0(stream)
    shape, fortran, dtype = headers[header]
    if fortran:
        raise ValueError(f"member {info.filename!r} is in Fortran order")
    if dtype.hasobject:
        raise ValueError(f"member {info.filename!r} holds Python objects")
    if math.prod(shape) * dtype.itemsize != data.size:
        raise ValueError(f"member {info.filename!r} holds {data.size} bytes of data,"
                         f" not the {math.prod(shape) * dtype.itemsize} of its npy header")
    return data.view(dtype).reshape(shape)


def _read_members(fh, infos: list) -> list:
    """The arrays of ``infos``' members, in their order.  Checks every
    member's span, then reads the members, header and data, into one buffer,
    each array's data at an ``nn.ALIGN_BYTES`` boundary; from
    ``nn.NPZ_THREADS_MIN`` bytes the helper thread computes each member's
    CRC-32 as soon as it has been read.  An error raised at a member comes
    after those of the members before it, as if each were read and checked
    in turn."""
    failed, failure = len(infos), None  # the first member that failed, and why
    spans, end = [], 0  # (data start in the file, npy header size, start in the buffer)
    file_size = os.fstat(fh.fileno()).st_size
    try:
        for info in infos:
            start, header_size = _stored_span(fh, info, file_size)
            # the data starts on a line, its npy header just before
            end = -(-(end + header_size) // nn.ALIGN_BYTES) * nn.ALIGN_BYTES - header_size
            spans.append((start, header_size, end))
            end += info.file_size
    except Exception as exc:
        failed, failure = len(spans), exc
    raw = np.empty(end + nn.ALIGN_BYTES, dtype=np.uint8)
    buffer = raw[-raw.ctypes.data % nn.ALIGN_BYTES:][:end]
    slots = [buffer[offset:offset + info.file_size] for info, (_, _, offset) in zip(infos, spans)]
    ready = queue.SimpleQueue()  # the indices of members read, then None

    def reads():
        k = None
        try:
            for k, slot in enumerate(slots):
                fh.seek(spans[k][0])
                if fh.readinto(slot) != slot.size:
                    raise EOFError(f"member {infos[k].filename!r} is cut short")
                ready.put(k)
        except Exception as exc:
            return k, exc
        finally:
            ready.put(None)  # the CRC loop ends however the reads do
        return None

    def crcs():
        return {k: zlib.crc32(slots[k]) for k in iter(ready.get, None)}

    pool = nn._helper() if end >= nn.NPZ_THREADS_MIN else None
    read_failure, sums = nn._pair(pool, reads, crcs)
    if read_failure is not None:
        failed, failure = read_failure
    headers: dict = {}  # npy header bytes -> (shape, fortran order, dtype)
    arrays = []
    for k in range(failed):
        if sums[k] != infos[k].CRC:
            raise zipfile.BadZipFile(f"bad CRC-32 for member {infos[k].filename!r}")
        header_size = spans[k][1]
        arrays.append(_array(infos[k], slots[k][:header_size].tobytes(),
                             slots[k][header_size:], headers))
    if failure is not None:
        raise failure
    return arrays


def read_npz(path, what: str):
    """(meta, arrays) of an npz container with a JSON ``__meta__`` member:
    the decoded meta block and every other member as a C-contiguous array.

    Reads only what ``savez_atomic`` writes: stored members, each an npy 1.0
    header and C-order data of no Python objects.  The members are read into
    one buffer per file, and each array is a view of its own slot of it,
    starting ``nn.ALIGN_BYTES``-aligned: holding any one of a file's arrays
    keeps the whole buffer alive.  The CRC-32 of every member is checked
    before its npy header is parsed, and each distinct header is parsed once.
    Raises CheckpointError naming ``path`` for a file that is not an npz
    archive, has no meta block or two members of one name, fails a CRC or
    whose meta block is not JSON, and naming ``path`` and the member for one
    that is deflated, of another npy version, Fortran-ordered or of Python
    objects."""
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as archive:
            members = {}
            for info in archive.infolist():
                # np.savez names each member "<name>.npy"
                name = info.filename[:-4] if info.filename.endswith(".npy") else info.filename
                if name in members:
                    raise CheckpointError(f"{path}: not a {what} (two members named"
                                          f" {name!r}: {members[name].filename!r} and"
                                          f" {info.filename!r})")
                members[name] = info
            if "__meta__" not in members:
                raise CheckpointError(f"{path}: not a {what} (missing meta block)")
            arrays = dict(zip(members, _read_members(fh, list(members.values()))))
        meta = json.loads(str(arrays.pop("__meta__")[()]))
    except (EOFError, NotImplementedError, OSError, OverflowError, TypeError, ValueError,
            tokenize.TokenError, zipfile.BadZipFile) as exc:
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
    unknown stage, an unknown config field or an ``extra`` that is not an
    object.  Emotion bundles written before
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
    extra = meta.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path}: not a model bundle (meta extra is not an object)")
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
    return stage, model, extra


def load_stage_model(path, expected_stage: str):
    stage, model, extra = load_model(path)
    if stage != expected_stage:
        raise CheckpointError(
            f"{path}: bundle holds a {stage!r} model, expected {expected_stage!r}"
        )
    return model, extra
