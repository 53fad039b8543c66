"""The npz container of model bundles and trainer states: named arrays plus a
JSON meta block.  Write/read round-trips bit-exactly, and every write replaces
the previous file atomically.  The writer gives ``np.savez``'s bytes without
its staging copy of each array, and the reader reads a file's members once,
into one buffer, so neither holds a second copy of a large array.
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


def _header_size(stream, info, start: int, available: int):
    """(npy header size, header reader) of the member whose npy data starts
    at ``start`` of ``stream``, which holds ``available`` bytes from there.
    Refuses an npy version other than 1.0 and 2.0 and a member whose
    directory size is smaller than its header or larger than ``available``."""
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
    return header_size, read_header


def _array(info, header: bytes, data: np.ndarray, read_header, headers: dict) -> np.ndarray:
    """The array of a member whose npy ``header`` and ``data`` have passed
    the CRC-32: a view of ``data``, or a C-order copy of a Fortran-ordered
    one.  Each distinct header is parsed once, into ``headers``."""
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


def _stored_span(fh, info, file_size: int):
    """(data start in the file, npy header size, header reader) of a stored
    member, None for a deflated one, once its span is checked against the
    file's ``file_size``."""
    if info.flag_bits & 1:  # zipfile would ask for a password
        raise ValueError(f"member {info.filename!r} is encrypted")
    if info.compress_type == zipfile.ZIP_DEFLATED:
        return None
    if info.compress_type != zipfile.ZIP_STORED:
        raise ValueError(f"member {info.filename!r} uses compression method"
                         f" {info.compress_type}")
    fh.seek(info.header_offset)
    local = fh.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise zipfile.BadZipFile(f"bad local header of member {info.filename!r}")
    start = info.header_offset + 30 + int.from_bytes(local[26:28], "little") \
        + int.from_bytes(local[28:30], "little")
    return (start, *_header_size(fh, info, start, file_size - start))


def _read_members(fh, archive, infos: list) -> list:
    """The arrays of ``infos``' members, in their order.  Checks every stored
    member's span, then reads the stored members, header and data, into one
    buffer, each array's data at an ``nn.ALIGN_BYTES`` boundary; from
    ``nn.NPZ_THREADS_MIN`` bytes the helper thread computes each member's
    CRC-32 as soon as it has been read.  An error raised at a member comes
    after those of the members before it, as if each were read and checked
    in turn."""
    failed, failure = len(infos), None  # the first member that failed, and why
    spans, end = [], 0
    file_size = os.fstat(fh.fileno()).st_size
    try:
        for info in infos:
            span = _stored_span(fh, info, file_size)
            if span is not None:  # the data starts on a line, its npy header just before
                start, header_size, _ = span
                end = -(-(end + header_size) // nn.ALIGN_BYTES) * nn.ALIGN_BYTES - header_size
                span, end = (*span, end), end + info.file_size
            spans.append(span)
    except Exception as exc:
        failed, failure = len(spans), exc
    raw = np.empty(end + nn.ALIGN_BYTES, dtype=np.uint8)
    buffer = raw[-raw.ctypes.data % nn.ALIGN_BYTES:][:end]
    slots = {k: buffer[span[3]:span[3] + infos[k].file_size]
             for k, span in enumerate(spans) if span is not None}
    ready = queue.SimpleQueue()  # the indices of members read, then None

    def reads():
        k = None
        try:
            for k, slot in slots.items():
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
        info = infos[k]
        if spans[k] is None:  # zipfile inflates the member and checks its CRC-32
            inflated = archive.read(info)
            header_size, read_header = _header_size(io.BytesIO(inflated), info, 0, len(inflated))
            header = inflated[:header_size]
            data = np.frombuffer(inflated, np.uint8, info.file_size - header_size,
                                 header_size).copy()
        else:
            if sums[k] != info.CRC:
                raise zipfile.BadZipFile(f"bad CRC-32 for member {info.filename!r}")
            header_size, read_header = spans[k][1:3]
            header, data = slots[k][:header_size].tobytes(), slots[k][header_size:]
        arrays.append(_array(info, header, data, read_header, headers))
    if failure is not None:
        raise failure
    return arrays


def read_npz(path, what: str):
    """(meta, arrays) of an npz container with a JSON ``__meta__`` member:
    the decoded meta block and every other member as a C-contiguous array.

    The stored members are read into one buffer per file, and each array is a
    view of its own slot of it, starting ``nn.ALIGN_BYTES``-aligned: holding
    any one of a file's arrays keeps the whole buffer alive.  A deflated
    member (``np.savez_compressed``) is inflated by ``zipfile`` and copied
    once into memory of its own, and a Fortran-ordered member is copied into
    C order.  The CRC-32 of every member is checked before its npy header is
    parsed, and each distinct header is parsed once.
    Raises CheckpointError naming ``path`` for a file that is not an npz
    archive, has no meta block or two members of one name, holds a member
    that is not a plain npy array (Python objects included) or fails its
    CRC, or whose meta block is not JSON."""
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
            arrays = dict(zip(members, _read_members(fh, archive, list(members.values()))))
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
