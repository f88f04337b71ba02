"""The on-disk segment format: one ndarray per file, mmap-read zero-copy.

A segment is the durable form of exactly one array the engines already
ship to workers through :mod:`repro.engines.payload` - bitmap words,
rank/select acceleration tables (cumulative popcounts), materialized
population values, the deduped NEEDLETAIL row-store value column.  The
layout mirrors the payload packing: a raw little-endian C-contiguous buffer, preceded by a small
self-describing header so a file is verifiable without its catalog row::

    offset 0   magic  b"RPSG"
    offset 4   u16    format version (little-endian)
    offset 6   u16    reserved (zero)
    offset 8   u32    metadata length in bytes (little-endian)
    offset 12  meta   UTF-8 JSON: {"dtype", "shape", "nbytes", "crc32"}
    ...        pad    zero bytes up to the payload alignment (64)
    aligned    data   the array bytes, C-order

Writes are crash-safe: bytes go to a ``.tmp`` sibling, are fsynced, and
reach the final name through one atomic ``os.replace`` - a reader can never
observe a half-written segment, and a process killed mid-write leaves only
a temp orphan for ``Store.gc()``.  Reads return a *read-only*
``np.memmap`` view (``mmap=True``, the default): opening a segment touches
the header page only, and untouched index pages are never paged in - the
lifecycle difference from a pool's payload files, which are fully resident
copies.

Every structural problem - bad magic, unsupported version, truncated
payload, dtype/shape drift from the catalog row - raises
:class:`~repro.errors.StorageError`; full-payload checksum verification
(``verify_segment``) backs ``repro store verify``.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from repro.errors import StorageError
from repro.resilience.faults import fault_at

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "SegmentInfo",
    "write_segment",
    "read_segment",
    "verify_segment",
]

MAGIC = b"RPSG"
FORMAT_VERSION = 1

#: Payload alignment: dtype-safe for every numpy itemsize and cache-line
#: friendly for the mapped word arrays.
_ALIGN = 64

_FIXED = struct.Struct("<4sHHI")  # magic, version, reserved, meta length


class SegmentInfo:
    """Parsed header of one segment file (plus its data offset)."""

    __slots__ = ("dtype", "shape", "nbytes", "crc32", "data_offset")

    def __init__(self, dtype: str, shape: tuple[int, ...], nbytes: int,
                 crc32: int, data_offset: int) -> None:
        self.dtype = dtype
        self.shape = shape
        self.nbytes = int(nbytes)
        self.crc32 = int(crc32)
        self.data_offset = int(data_offset)


def _header_bytes(array: np.ndarray, crc: int) -> bytes:
    meta = json.dumps(
        {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "nbytes": int(array.nbytes),
            "crc32": int(crc),
        },
        sort_keys=True,
    ).encode("utf-8")
    head = _FIXED.pack(MAGIC, FORMAT_VERSION, 0, len(meta)) + meta
    pad = (-len(head)) % _ALIGN
    return head + b"\x00" * pad


def write_segment(path: str | os.PathLike, array: np.ndarray, *, index: int = 0) -> SegmentInfo:
    """Write ``array`` to ``path`` atomically; returns its parsed header.

    ``index`` is the store's monotonically increasing segment-write counter,
    the trigger coordinate of the ``storage.write_segment`` fault site (an
    injected ``fail_segment_write`` raises a ``TransientError`` here,
    before any byte exists on disk).  The write lands in ``path + ".tmp"``
    first and is renamed into place only after an fsync, so a crash at any
    point leaves either the old segment or no segment - never a torn one.
    """
    fault_at("storage.write_segment", shard=None, index=index)
    fault_at("storage.segment_write", shard=None, index=index)  # ENOSPC shape
    path = os.fspath(path)
    array = np.ascontiguousarray(array)
    if array.dtype.hasobject:
        raise StorageError(f"{path}: object-dtype arrays cannot be stored")
    data = array.tobytes()
    crc = zlib.crc32(data)
    header = _header_bytes(array, crc)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(header)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return SegmentInfo(array.dtype.str, tuple(array.shape), array.nbytes, crc,
                       len(header))


def _read_header(path: str) -> SegmentInfo:
    try:
        with open(path, "rb") as fh:
            fixed = fh.read(_FIXED.size)
            if len(fixed) < _FIXED.size:
                raise StorageError(f"{path}: truncated segment header")
            magic, version, _reserved, meta_len = _FIXED.unpack(fixed)
            if magic != MAGIC:
                raise StorageError(f"{path}: not a repro segment (bad magic {magic!r})")
            if version != FORMAT_VERSION:
                raise StorageError(
                    f"{path}: unsupported segment format version {version} "
                    f"(this build reads version {FORMAT_VERSION})"
                )
            meta_raw = fh.read(meta_len)
            if len(meta_raw) < meta_len:
                raise StorageError(f"{path}: truncated segment metadata")
    except OSError as exc:
        raise StorageError(f"{path}: cannot read segment ({exc})") from exc
    try:
        meta = json.loads(meta_raw.decode("utf-8"))
        dtype, shape = str(meta["dtype"]), tuple(int(n) for n in meta["shape"])
        nbytes, crc = int(meta["nbytes"]), int(meta["crc32"])
    except (ValueError, KeyError, TypeError) as exc:
        raise StorageError(f"{path}: corrupt segment metadata ({exc})") from exc
    head_len = _FIXED.size + meta_len
    data_offset = head_len + ((-head_len) % _ALIGN)
    info = SegmentInfo(dtype, shape, nbytes, crc, data_offset)
    expected = int(np.prod(shape)) * np.dtype(dtype).itemsize if shape else np.dtype(dtype).itemsize
    if expected != nbytes:
        raise StorageError(
            f"{path}: metadata disagrees with itself "
            f"(dtype {dtype} x shape {shape} != {nbytes} bytes)"
        )
    if os.path.getsize(path) != data_offset + nbytes:
        raise StorageError(
            f"{path}: truncated segment payload "
            f"(file is {os.path.getsize(path)} bytes, "
            f"need {data_offset + nbytes})"
        )
    return info


def _flip_payload_byte(path: str, data_offset: int) -> None:
    """XOR the first payload byte on disk - the ``flip_segment_bit`` fault.

    The flip is persistent (real rot, not a transient read error): every
    later read of the same file sees the corruption until a self-healing
    load quarantines the build and re-persists it from source.
    """
    with open(path, "r+b") as fh:
        fh.seek(data_offset)
        byte = fh.read(1)
        if not byte:
            return
        fh.seek(data_offset)
        fh.write(bytes([byte[0] ^ 0x01]))


def read_segment(
    path: str | os.PathLike, *, mmap: bool = True, index: int = 0
) -> np.ndarray:
    """Map (or load) a segment's array; structural checks always run.

    With ``mmap=True`` (the default) the returned array is a *read-only*
    ``np.memmap`` view - zero-copy, paged in on demand.  ``mmap=False``
    reads the payload into a fresh in-memory array (still returned
    read-only, so both modes behave identically downstream).

    ``index`` is the store's monotonically increasing segment-read counter,
    the trigger coordinate of the ``storage.segment_read`` fault site: an
    injected ``flip_segment_bit`` corrupts one payload byte on disk here,
    before the map, so checksum verification deterministically fails.
    """
    path = os.fspath(path)
    fault = fault_at("storage.segment_read", shard=None, index=index)
    info = _read_header(path)
    if fault is not None and fault.kind == "flip_segment_bit":
        _flip_payload_byte(path, info.data_offset)
    if mmap:
        return np.memmap(path, dtype=np.dtype(info.dtype), mode="r",
                         offset=info.data_offset, shape=info.shape)
    with open(path, "rb") as fh:
        fh.seek(info.data_offset)
        array = np.frombuffer(fh.read(info.nbytes), dtype=np.dtype(info.dtype))
    array = array.reshape(info.shape)
    array.flags.writeable = False
    return array


def verify_segment(path: str | os.PathLike) -> SegmentInfo:
    """Full verification: structure plus the crc32 of every payload byte.

    Raises :class:`StorageError` naming the file on any mismatch - the
    guarantee behind ``repro store verify``: a flipped bit in a mapped
    index surfaces as a clear error, never as silently wrong query results.
    """
    path = os.fspath(path)
    info = _read_header(path)
    crc = 0
    with open(path, "rb") as fh:
        fh.seek(info.data_offset)
        while True:
            block = fh.read(1 << 20)
            if not block:
                break
            crc = zlib.crc32(block, crc)
    if crc != info.crc32:
        raise StorageError(
            f"{path}: checksum mismatch (stored {info.crc32:#010x}, "
            f"payload is {crc:#010x}) - the segment is corrupt; "
            "run `repro store gc` after rebuilding"
        )
    return info
