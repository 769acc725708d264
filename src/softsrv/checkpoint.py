"""Deterministic tensor container for checkpoints.

Layout: magic line, 8-byte big-endian header length, UTF-8 JSON header
{"kind", "meta", "tensors": [{"name", "dtype", "shape"}, ...]}, then each
tensor's raw bytes in header order (C-contiguous, little-endian). The bytes
written are a pure function of the payload, so identical state produces
identical files; npz would embed zip timestamps. Both sides stream: the
writer writes each tensor from its own memory, and the reader reads each
one from the file straight into an array, so neither holds the whole file
in memory. read_checkpoint is the one reader. It checks the header and
every payload's length against the file's size, asks the loader's layout
for the arrays the meta declares, holds the header's tensors to exactly
their names, shapes and dtypes, and only then reads each payload into its
array.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .errors import CheckpointFormatError

_MAGIC = b"SSRVCKPT1\n"

# dtype tags stored in headers; little-endian on disk regardless of host.
_DTYPES = {"float64": "<f8", "float32": "<f4"}

_Value = TypeVar("_Value")


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


def _read_header(fh, kind: str) -> tuple[object, dict[str, tuple[str, tuple[int, ...]]]]:
    """The meta of an open file and its tensors' (dtype, shape) by name, in header order, all checked.

    Raises CheckpointFormatError on any malformation of the magic, the
    header or its entries, a kind other than kind, or a file whose size is
    not the header's end plus every payload's length.
    """
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
    if header.get("kind") != kind:
        raise CheckpointFormatError(f"expected kind {kind!r}, found {header.get('kind')!r}")
    raw = header.get("tensors", [])
    if not isinstance(raw, list):
        raise CheckpointFormatError("header tensors is not a list")
    entries: dict[str, tuple[str, tuple[int, ...]]] = {}
    for entry in raw:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CheckpointFormatError(f"malformed tensor entry {entry!r}")
        name, dtype, shape = entry["name"], entry.get("dtype"), entry.get("shape")
        if name in entries:
            raise CheckpointFormatError(f"duplicate tensor name {name!r}")
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise CheckpointFormatError(f"unsupported dtype {dtype} for tensor {name!r}")
        # bool is a subclass of int; a dim must be a plain non-negative int
        if not isinstance(shape, list) or not all(type(dim) is int and dim >= 0 for dim in shape):
            raise CheckpointFormatError(f"malformed shape {shape!r} for tensor {name!r}")
        off += math.prod(shape) * np.dtype(_DTYPES[dtype]).itemsize  # Python ints cannot wrap around
        if size < off:
            raise CheckpointFormatError(f"truncated tensor payload for {name!r}")
        entries[name] = dtype, tuple(shape)
    if off != size:
        raise CheckpointFormatError("trailing bytes after last tensor")
    return header.get("meta", {}), entries


def read_checkpoint(path: str | Path, kind: str,
                    layout: Callable[[object], tuple[_Value, dict[str, np.ndarray]]]) -> _Value:
    """Read a container of kind into the arrays that layout declares; raises CheckpointFormatError.

    layout(meta) checks the meta and returns (value, arrays): arrays maps
    each tensor's name to the writable C-contiguous array its payload fills.
    The header's tensors must be exactly those names, each of its array's
    shape and dtype, before any payload is read; then each payload goes
    from the file straight into its array, so a read holds one copy of the
    tensors, and value is returned.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointFormatError(f"cannot read checkpoint: {exc}") from exc
    with fh:
        meta, entries = _read_header(fh, kind)
        value, arrays = layout(meta)
        if set(entries) != set(arrays):
            raise CheckpointFormatError(f"checkpoint tensor set mismatch: {sorted(set(entries) ^ set(arrays))}")
        for name, (dtype, shape) in entries.items():
            out = arrays[name]
            if out.shape != shape or out.dtype != dtype:
                raise CheckpointFormatError(f"tensor {name!r} is {dtype} {shape}, "
                                            f"expected {out.dtype} {out.shape}")
        for name, (dtype, _) in entries.items():  # the payloads follow the header in its order
            out = arrays[name]
            if fh.readinto(out.data) != out.nbytes:
                raise CheckpointFormatError(f"truncated tensor payload for {name!r}")
            if not np.dtype(_DTYPES[dtype]).isnative:  # the file is little-endian
                out.byteswap(inplace=True)
    return value
