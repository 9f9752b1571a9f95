"""On-disk format of the simulated HDF4 Scientific Data Set files.

Real HDF4 stores a magic number and a linked list of data descriptors (DDs)
pointing at named objects.  We keep the same skeleton, simplified: a fixed
header, datasets appended contiguously, and a DD table appended at ``end()``
with its offset patched into the header.  All numbers are little-endian.

Layout::

    0        : magic "SDF4", version u32, dd_offset u64, ndatasets u32
    20       : dataset payloads, back to back (in creation order)
    dd_offset: DD entries, one per dataset

DD entry::

    name_len u16, name bytes, dtype_code u8, rank u8,
    dims u64 * rank, data_offset u64, data_nbytes u64
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["MAGIC", "HEADER_SIZE", "DDEntry", "pack_header", "unpack_header",
           "pack_dd", "unpack_dds", "DTYPE_CODES", "CODE_DTYPES"]

MAGIC = b"SDF4"
VERSION = 1
_HEADER = struct.Struct("<4sIQI")
HEADER_SIZE = _HEADER.size

DTYPE_CODES = {
    np.dtype(np.float64): 0,
    np.dtype(np.float32): 1,
    np.dtype(np.int64): 2,
    np.dtype(np.int32): 3,
    np.dtype(np.uint8): 4,
}
CODE_DTYPES = {v: k for k, v in DTYPE_CODES.items()}


@dataclass
class DDEntry:
    """One data descriptor: a named n-D array somewhere in the file."""

    name: str
    dtype: np.dtype
    shape: tuple[int, ...]
    data_offset: int
    data_nbytes: int

    def __post_init__(self) -> None:
        self.dtype = np.dtype(self.dtype)
        self.shape = tuple(int(s) for s in self.shape)
        if self.dtype not in DTYPE_CODES:
            raise TypeError(f"unsupported dtype {self.dtype}")


def pack_header(dd_offset: int, ndatasets: int) -> bytes:
    return _HEADER.pack(MAGIC, VERSION, dd_offset, ndatasets)


def unpack_header(raw: bytes) -> tuple[int, int, int]:
    """Returns ``(version, dd_offset, ndatasets)``; raises on bad magic."""
    magic, version, dd_offset, ndd = _HEADER.unpack(raw[:HEADER_SIZE])
    if magic != MAGIC:
        raise ValueError(f"not an SDF4 file (magic {magic!r})")
    return version, dd_offset, ndd


def pack_dd(entry: DDEntry) -> bytes:
    name_b = entry.name.encode("utf-8")
    if len(name_b) > 0xFFFF:
        raise ValueError("dataset name too long")
    parts = [struct.pack("<H", len(name_b)), name_b]
    parts.append(
        struct.pack("<BB", DTYPE_CODES[entry.dtype], len(entry.shape))
    )
    parts.append(struct.pack(f"<{len(entry.shape)}Q", *entry.shape))
    parts.append(struct.pack("<QQ", entry.data_offset, entry.data_nbytes))
    return b"".join(parts)


def unpack_dds(raw: bytes, count: int) -> list[DDEntry]:
    """Parse ``count`` DD entries from ``raw``."""
    out: list[DDEntry] = []
    pos = 0
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        name = raw[pos : pos + name_len].decode("utf-8")
        pos += name_len
        code, rank = struct.unpack_from("<BB", raw, pos)
        pos += 2
        shape = struct.unpack_from(f"<{rank}Q", raw, pos)
        pos += 8 * rank
        data_offset, data_nbytes = struct.unpack_from("<QQ", raw, pos)
        pos += 16
        out.append(DDEntry(name, CODE_DTYPES[code], shape, data_offset, data_nbytes))
    return out
