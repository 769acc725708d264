"""Deterministic tensor container for checkpoints.

Layout: magic line, 8-byte big-endian header length, UTF-8 JSON header
{"kind", "meta", "tensors": [{"name", "dtype", "shape"}, ...]}, then each
tensor's raw bytes in header order (C-contiguous, little-endian). The bytes
written are a pure function of the payload, so identical state produces
identical files; npz would embed zip timestamps. Both sides stream: the
writer writes each tensor from its own memory, and the reader reads each
one from the file straight into its own array, checking every length
against the file's size first, so neither holds the whole file in memory.
check_tensors holds what a reader got to the exact names, shapes and dtype
that its format declares.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointFormatError

_MAGIC = b"SSRVCKPT1\n"

# dtype tags stored in headers; little-endian on disk regardless of host.
_DTYPES = {"float64": "<f8", "float32": "<f4", "int64": "<i8"}


def write_checkpoint(path: str | Path, kind: str, meta: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write a container, each tensor straight from its own memory.

    A tensor is copied only when it is not C-contiguous little-endian
    already, and then as it is written, one tensor at a time.
    """
    arrays = []
    entries = []
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if not arr.flags.c_contiguous:  # a 0-d tensor keeps its shape ()
            arr = np.ascontiguousarray(arr)
        dtype = str(arr.dtype)
        if dtype not in _DTYPES:
            raise CheckpointFormatError(f"unsupported dtype {dtype} for tensor {name!r}")
        arrays.append(arr)
        entries.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
    header = json.dumps({"kind": kind, "meta": meta, "tensors": entries},
                        sort_keys=True, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(">Q", len(header)))
        fh.write(header)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype=_DTYPES[str(arr.dtype)]).data)


def read_checkpoint(path: str | Path, expect_kind: str | None = None) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Read a container; raises CheckpointFormatError on any malformation.

    The file is streamed: each tensor is read straight from it into a fresh
    array of its dtype, so a read holds no whole-file buffer. Every length
    is checked against the file's size before anything is allocated.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint: {exc}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise CheckpointFormatError("bad magic: not a checkpoint file")
        off = len(_MAGIC)
        if size < off + 8:
            raise CheckpointFormatError("truncated header length")
        (hlen,) = struct.unpack(">Q", fh.read(8))
        off += 8
        if size < off + hlen:
            raise CheckpointFormatError("truncated header")
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointFormatError(f"unparseable header: {exc}") from exc
        off += hlen
        if not isinstance(header, dict):
            raise CheckpointFormatError("header is not a JSON object")
        kind = header.get("kind")
        if expect_kind is not None and kind != expect_kind:
            raise CheckpointFormatError(f"expected kind {expect_kind!r}, found {kind!r}")
        entries = header.get("tensors", [])
        if not isinstance(entries, list):
            raise CheckpointFormatError("header tensors is not a list")
        tensors: dict[str, np.ndarray] = {}
        for entry in entries:
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise CheckpointFormatError(f"malformed tensor entry {entry!r}")
            name, dtype, shape = entry["name"], entry.get("dtype"), entry.get("shape")
            if name in tensors:
                raise CheckpointFormatError(f"duplicate tensor name {name!r}")
            if not isinstance(dtype, str) or dtype not in _DTYPES:
                raise CheckpointFormatError(f"unsupported dtype {dtype} for tensor {name!r}")
            # bool is a subclass of int; a dim must be a plain non-negative int
            if not isinstance(shape, list) or not all(type(dim) is int and dim >= 0 for dim in shape):
                raise CheckpointFormatError(f"malformed shape {shape!r} for tensor {name!r}")
            nbytes = math.prod(shape) * np.dtype(_DTYPES[dtype]).itemsize  # Python ints cannot wrap around
            if size < off + nbytes:
                raise CheckpointFormatError(f"truncated tensor payload for {name!r}")
            # the one copy: out of the file, into a writable array of the on-disk dtype
            arr = np.empty(shape, _DTYPES[dtype])
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise CheckpointFormatError(f"truncated tensor payload for {name!r}")
            tensors[name] = arr.astype(dtype, copy=False)  # a copy only on a big-endian host
            off += nbytes
        if off != size:
            raise CheckpointFormatError("trailing bytes after last tensor")
        return kind, header.get("meta", {}), tensors


def check_tensors(tensors: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]], dtype: str) -> None:
    """Raise CheckpointFormatError unless tensors are exactly the named shapes, all of dtype."""
    if set(tensors) != set(shapes):
        raise CheckpointFormatError(f"checkpoint tensor set mismatch: {sorted(set(shapes) ^ set(tensors))}")
    for name, shape in shapes.items():
        arr = tensors[name]
        if arr.shape != shape or arr.dtype != dtype:
            raise CheckpointFormatError(f"tensor {name!r} is {arr.dtype} {arr.shape}, expected {dtype} {shape}")
