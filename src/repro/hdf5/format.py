"""On-disk format of the simulated HDF5 files.

Deliberately mirrors the property of real HDF5 the paper criticises:
**metadata and array data live interleaved in the same file**.  Every
dataset's object header is allocated inline right before its data, so data
offsets are not aligned to any file-system boundary ("the real data ill
alignment on appropriate boundaries"), and small metadata writes land
between large data writes.

Layout::

    0          : superblock -- magic(8) "\\x89SDF5\\r\\n", version u32,
                 root table offset u64, root entry count u32
    ...        : per dataset: object header (fixed capacity), then data
    root table : at close, (name -> header offset) entries

Object header (capacity ``HEADER_CAPACITY`` bytes, updated in place)::

    used u32, name_len u16, name, dtype_code u8, rank u8, dims u64*rank,
    data_offset u64, data_nbytes u64, nattrs u16,
    then per attribute: name_len u16, name, value_len u16, value(pickle)
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field

import numpy as np

from ..hdf4.format import CODE_DTYPES, DTYPE_CODES

__all__ = [
    "MAGIC",
    "SUPERBLOCK_SIZE",
    "HEADER_CAPACITY",
    "ObjectHeader",
    "pack_superblock",
    "unpack_superblock",
    "pack_root_table",
    "unpack_root_table",
]

MAGIC = b"\x89SDF5\r\n\x00"
VERSION = 1
_SUPER = struct.Struct("<8sIQI")
SUPERBLOCK_SIZE = _SUPER.size
HEADER_CAPACITY = 512


def pack_superblock(root_offset: int, root_count: int) -> bytes:
    return _SUPER.pack(MAGIC, VERSION, root_offset, root_count)


def unpack_superblock(raw: bytes) -> tuple[int, int, int]:
    magic, version, root_offset, root_count = _SUPER.unpack(raw[:SUPERBLOCK_SIZE])
    if magic != MAGIC:
        raise ValueError(f"not an SDF5 file (magic {magic!r})")
    return version, root_offset, root_count


def pack_root_table(entries: list[tuple[str, int]]) -> bytes:
    parts = []
    for name, offset in entries:
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<Q", offset))
    return b"".join(parts)


def unpack_root_table(raw: bytes, count: int) -> list[tuple[str, int]]:
    out = []
    pos = 0
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        name = raw[pos : pos + nlen].decode("utf-8")
        pos += nlen
        (offset,) = struct.unpack_from("<Q", raw, pos)
        pos += 8
        out.append((name, offset))
    return out


@dataclass
class ObjectHeader:
    """A dataset's header: identity, layout, attributes."""

    name: str
    dtype: np.dtype
    shape: tuple[int, ...]
    data_offset: int
    data_nbytes: int
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.dtype = np.dtype(self.dtype)
        self.shape = tuple(int(s) for s in self.shape)
        if self.dtype not in DTYPE_CODES:
            raise TypeError(f"unsupported dtype {self.dtype}")

    def pack(self) -> bytes:
        nb = self.name.encode("utf-8")
        parts = [
            struct.pack("<H", len(nb)),
            nb,
            struct.pack("<BB", DTYPE_CODES[self.dtype], len(self.shape)),
            struct.pack(f"<{len(self.shape)}Q", *self.shape),
            struct.pack("<QQ", self.data_offset, self.data_nbytes),
            struct.pack("<H", len(self.attrs)),
        ]
        for aname, avalue in self.attrs.items():
            ab = aname.encode("utf-8")
            vb = pickle.dumps(avalue, protocol=pickle.HIGHEST_PROTOCOL)
            parts.append(struct.pack("<H", len(ab)))
            parts.append(ab)
            parts.append(struct.pack("<H", len(vb)))
            parts.append(vb)
        body = b"".join(parts)
        blob = struct.pack("<I", len(body)) + body
        if len(blob) > HEADER_CAPACITY:
            raise ValueError(
                f"object header for {self.name!r} exceeds capacity "
                f"({len(blob)} > {HEADER_CAPACITY}); too many/large attributes"
            )
        return blob + b"\0" * (HEADER_CAPACITY - len(blob))

    @classmethod
    def unpack(cls, raw: bytes) -> "ObjectHeader":
        (used,) = struct.unpack_from("<I", raw, 0)
        pos = 4
        (nlen,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        name = raw[pos : pos + nlen].decode("utf-8")
        pos += nlen
        code, rank = struct.unpack_from("<BB", raw, pos)
        pos += 2
        shape = struct.unpack_from(f"<{rank}Q", raw, pos)
        pos += 8 * rank
        data_offset, data_nbytes = struct.unpack_from("<QQ", raw, pos)
        pos += 16
        (nattrs,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        attrs = {}
        for _ in range(nattrs):
            (alen,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            aname = raw[pos : pos + alen].decode("utf-8")
            pos += alen
            (vlen,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            attrs[aname] = pickle.loads(raw[pos : pos + vlen])
            pos += vlen
        if pos != used + 4:
            raise ValueError("corrupt object header")
        return cls(name, CODE_DTYPES[code], shape, data_offset, data_nbytes, attrs)
