"""Deterministic tensor container for checkpoints.

Layout: magic line, 8-byte big-endian header length, UTF-8 JSON header
{"kind", "meta", "tensors": [{"name", "dtype", "shape"}, ...]}, then each
tensor's raw bytes in header order (C-contiguous, little-endian). The bytes
written are a pure function of the payload, so identical state produces
identical files; npz would embed zip timestamps. Both sides stream: the
writer writes each tensor from its own memory, and the reader reads each
one from the file straight into an array, so neither holds the whole file
in memory. CheckpointReader is the one header parser: it checks the header
and every payload's length against the file's size before any payload is
read. read_checkpoint reads every tensor into a fresh array; a loader that
owns its destination arrays checks the header's entries against them and
reads each payload into its place. check_tensors holds what a reader got,
arrays or entries, to the exact names, shapes and dtype that its format
declares.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import CheckpointFormatError, ValidationError

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


class TensorEntry(NamedTuple):
    """One header entry: a payload's dtype, its shape and where it starts."""

    dtype: str
    shape: tuple[int, ...]
    offset: int


class CheckpointReader:
    """An open checkpoint whose header is read and checked, and no payload yet.

    Opening reads the magic and the header, checks every tensor entry and
    each payload's length against the file's size, and raises
    CheckpointFormatError on any malformation; entries maps each tensor's
    name to its TensorEntry in header order. read_into then copies one
    payload from the file straight into an array the caller owns.
    """

    def __init__(self, path: str | Path, expect_kind: str | None = None):
        try:
            self._fh = open(path, "rb")
        except OSError as exc:
            raise CheckpointFormatError(f"cannot read checkpoint: {exc}") from exc
        try:
            self.kind, self.meta, self.entries = self._read_header(expect_kind)
        except BaseException:
            self._fh.close()
            raise

    def _read_header(self, expect_kind: str | None) -> tuple[str, dict, dict[str, TensorEntry]]:
        fh = self._fh
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
        raw = header.get("tensors", [])
        if not isinstance(raw, list):
            raise CheckpointFormatError("header tensors is not a list")
        entries: dict[str, TensorEntry] = {}
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
            nbytes = math.prod(shape) * np.dtype(_DTYPES[dtype]).itemsize  # Python ints cannot wrap around
            if size < off + nbytes:
                raise CheckpointFormatError(f"truncated tensor payload for {name!r}")
            entries[name] = TensorEntry(dtype, tuple(shape), off)
            off += nbytes
        if off != size:
            raise CheckpointFormatError("trailing bytes after last tensor")
        return kind, header.get("meta", {}), entries

    def read_into(self, name: str, out: np.ndarray) -> None:
        """Fill out, a writable C-contiguous array of the entry's dtype and shape, from the file."""
        entry = self.entries[name]
        if out.dtype != entry.dtype or out.shape != entry.shape or not out.flags.c_contiguous:
            raise ValidationError(f"tensor {name!r} is {entry.dtype} {entry.shape}, "
                                  f"not a C-contiguous {out.dtype} {out.shape} array")
        self._fh.seek(entry.offset)
        if self._fh.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
            raise CheckpointFormatError(f"truncated tensor payload for {name!r}")
        if not np.dtype(_DTYPES[entry.dtype]).isnative:  # the file is little-endian
            out.byteswap(inplace=True)

    def __enter__(self) -> "CheckpointReader":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


def read_checkpoint(path: str | Path, expect_kind: str | None = None) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Read a container; raises CheckpointFormatError on any malformation.

    Each tensor is read straight from the file into a fresh array of its
    dtype, so a read holds no whole-file buffer.
    """
    with CheckpointReader(path, expect_kind) as ckpt:
        tensors = {}
        for name, entry in ckpt.entries.items():
            tensors[name] = np.empty(entry.shape, entry.dtype)
            ckpt.read_into(name, tensors[name])
        return ckpt.kind, ckpt.meta, tensors


def check_tensors(tensors: dict, shapes: dict[str, tuple[int, ...]], dtype: str) -> None:
    """Raise CheckpointFormatError unless tensors are exactly the named shapes, all of dtype.

    tensors maps names to arrays, or to a reader's TensorEntry values.
    """
    if set(tensors) != set(shapes):
        raise CheckpointFormatError(f"checkpoint tensor set mismatch: {sorted(set(shapes) ^ set(tensors))}")
    for name, shape in shapes.items():
        arr = tensors[name]
        if arr.shape != shape or arr.dtype != dtype:
            raise CheckpointFormatError(f"tensor {name!r} is {arr.dtype} {arr.shape}, expected {dtype} {shape}")
