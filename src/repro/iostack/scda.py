"""scda: a minimal serial-equivalent checkpoint format.

Following Griesbach & Burstedde's scda design, the file a parallel run
commits is **byte-identical for every processor count**: fixed-width
human-readable headers written by rank 0, array sections at offsets
derived from the replicated hierarchy metadata, and zero padding aligning
every section to a declared block size.  Nothing in the file depends on
which rank wrote which piece, so the golden digest of an scda checkpoint
is a partition-invariant -- the property the regress gate pins.

Layout (byte offsets ascending, ``B`` = ``block_size``)::

    [  0 .. 128)            file header   "scda-file version=1 ..."
    [align_up(128, B) .. )  section 0:    96-byte section header, then data
    ... zero padding to the next multiple of B ...
    [next aligned .. )      section 1:    header, data
    ...

Sections follow the canonical :class:`~repro.enzo.layout.CheckpointLayout`
order (top-grid fields, top-grid particles, then per-subgrid arrays).

Manifest entries are also serial-equivalent: instead of the per-rank
entries the raw format records, the scda session gathers each rank's
``(offset, nbytes, crc32)`` write pieces at close and rank 0 merges them
into ONE entry per section, combining the piece CRCs arithmetically
(:func:`crc32_combine`) -- so the manifest bytes, like the file bytes,
are identical for every P.  The merge costs one modular product per
piece: the shift operator ``x^(8n) mod p`` is cached per piece length
``n``, and a section's pieces share their row length.
"""

from __future__ import annotations

import zlib
from functools import lru_cache

import numpy as np

from ..enzo.layout import ArrayExtent
from ..mpi import collectives as coll
from ..mpiio.hints import Hints
from ..resilience.manifest import ManifestEntry, entry_for_segments
from .formats import _RawSession, section_name

__all__ = [
    "FILE_HEADER_NBYTES",
    "SECTION_HEADER_NBYTES",
    "ScdaFormat",
    "ScdaHeaderError",
    "ScdaLayout",
    "crc32_combine",
]

FILE_HEADER_NBYTES = 128
#: section alignment of the files ``ScdaFormat`` writes
BLOCK_SIZE = 4096
SECTION_HEADER_NBYTES = 96


class ScdaHeaderError(ValueError):
    """A scda header is malformed or disagrees with the derived layout."""


# -- CRC32 combination --------------------------------------------------------


#: The CRC-32 polynomial, bit-reflected as zlib stores it: bit 31 is x^0.
_POLY = 0xEDB88320


def _multmodp(a: int, b: int) -> int:
    """``a(x) * b(x) mod p(x)`` over GF(2), both operands reflected."""
    product = 0
    bit = 0x80000000
    while a:
        if a & bit:
            product ^= b
            a ^= bit
        bit >>= 1
        b = (b >> 1) ^ _POLY if b & 1 else b >> 1
    return product


@lru_cache(maxsize=4096)
def _shift_operator(nbytes: int) -> int:
    """``x^(8*nbytes) mod p``: advances a CRC through ``nbytes`` zero bytes.

    Square-and-multiply, at most ``2 * nbytes.bit_length()`` products --
    paid once per distinct length: every piece of a section shares its
    row length, so a merge hits the cache after the first fold.
    """
    operator = 0x80000000  # x^0
    square = 0x00800000  # x^8, one byte
    while nbytes:
        if nbytes & 1:
            operator = _multmodp(square, operator)
        nbytes >>= 1
        if nbytes:
            square = _multmodp(square, square)
    return operator


def crc32_combine(crc1: int, crc2: int, len2: int) -> int:
    """``crc32(A+B)`` from ``crc32(A)``, ``crc32(B)`` and ``len(B)``.

    The polynomial form zlib adopted in 1.2.12: ``crc32(A+B) =
    x^(8*len(B)) * crc32(A) + crc32(B) mod p`` -- one cached operator
    lookup and one 32-step product per call.  Lets rank 0 checksum a
    section nobody holds in one piece without re-reading a single byte.
    """
    if len2 < 0:
        raise ValueError(f"crc32_combine: len2 must be >= 0, got {len2}")
    if len2 == 0:
        return crc1
    return _multmodp(_shift_operator(len2), crc1) ^ crc2


# -- layout -------------------------------------------------------------------


def _align_up(value: int, align: int) -> int:
    return -(-value // align) * align


class ScdaLayout:
    """A :class:`CheckpointLayout` re-addressed with headers and padding.

    Wraps the dense shared-file layout: every array keeps its canonical
    order but moves to ``align_up(cursor, block_size)`` with a 96-byte
    section header in front of the data.  A pure function of the inner
    layout and ``block_size`` -- every rank derives identical offsets.
    """

    def __init__(self, inner, block_size: int):
        if block_size < FILE_HEADER_NBYTES:
            raise ValueError("block_size must be >= the 128-byte file header")
        self.inner = inner
        self.block_size = block_size
        self._extents: dict[tuple, ArrayExtent] = {}
        #: canonical (section name, header offset, data extent) triples.
        self.sections: list[tuple[str, int, ArrayExtent]] = []
        cursor = _align_up(FILE_HEADER_NBYTES, block_size)
        for key in inner.keys():
            src = inner._extents[key]
            header_offset = cursor
            ext = ArrayExtent(cursor + SECTION_HEADER_NBYTES, src.dtype, src.shape)
            self._extents[key] = ext
            self.sections.append((section_name(*key), header_offset, ext))
            cursor = _align_up(ext.end, block_size)
        self.total_nbytes = cursor

    def extent(self, grid_key, array_name: str, kind: str = "field"):
        return self._extents[(grid_key, kind, array_name)]

    def keys(self):
        return self._extents.keys()

    def __len__(self) -> int:
        return len(self._extents)

    # -- header/padding geometry ------------------------------------------

    def header_segments(self) -> list[tuple[int, int]]:
        """(offset, nbytes) of the file header and every section header."""
        segs = [(0, FILE_HEADER_NBYTES)]
        segs.extend((h, SECTION_HEADER_NBYTES) for _, h, _ in self.sections)
        return segs

    def padding_segments(self) -> list[tuple[int, int]]:
        """The alignment gaps that must hold zeros."""
        gaps: list[tuple[int, int]] = []
        pos = FILE_HEADER_NBYTES
        for _, header_offset, ext in self.sections:
            if header_offset > pos:
                gaps.append((pos, header_offset - pos))
            pos = ext.end
        return gaps

    # -- header bytes ------------------------------------------------------

    @staticmethod
    def _pad(line: str, width: int) -> bytes:
        raw = line.encode("ascii")
        if len(raw) >= width:
            raise ScdaHeaderError(
                f"scda header line overflows its fixed width ({len(raw)} >= {width}):"
                f" {line!r}"
            )
        return raw + b" " * (width - len(raw) - 1) + b"\n"

    def file_header(self) -> bytes:
        return self._pad(
            f"scda-file version=1 block={self.block_size} "
            f"nsections={len(self.sections)} nbytes={self.total_nbytes}",
            FILE_HEADER_NBYTES,
        )

    def section_header(self, name: str, ext) -> bytes:
        shape = "x".join(str(s) for s in ext.shape)
        return self._pad(
            f"scda-section {name} dtype={ext.dtype.str} shape={shape} "
            f"nbytes={ext.nbytes}",
            SECTION_HEADER_NBYTES,
        )

    def header_blob(self) -> bytes:
        parts = [self.file_header()]
        parts.extend(self.section_header(name, ext) for name, _, ext in self.sections)
        return b"".join(parts)

    def validate_headers(self, blob: bytes) -> None:
        """Raise :class:`ScdaHeaderError` unless ``blob`` matches exactly.

        A torn header write or padding corruption must be *detected*,
        never silently parsed: the expected header bytes are a pure
        function of the replicated metadata, so anything else is damage.
        """
        expect = self.header_blob()
        if blob == expect:
            return
        # Name the first divergent header for the error message.
        labels = ["file header"] + [f"section {name!r}" for name, _, _ in self.sections]
        pos = 0
        for i, width in enumerate(
            [FILE_HEADER_NBYTES] + [SECTION_HEADER_NBYTES] * len(self.sections)
        ):
            if blob[pos:pos + width] != expect[pos:pos + width]:
                raise ScdaHeaderError(
                    f"scda {labels[i]} is torn or does not match the derived "
                    f"layout: {bytes(blob[pos:pos + width])[:40]!r}..."
                )
            pos += width
        raise ScdaHeaderError("scda headers have trailing divergence")


# -- format + session ---------------------------------------------------------


class ScdaFormat:
    """Serial-equivalent shared file: headers + aligned zero-padded sections."""

    name = "scda"
    session_kind = "shared-file"
    takes_hints = True

    def __init__(self, hints: Hints | None = None):
        self.hints = hints or Hints()

    def _wrap(self, layout) -> ScdaLayout:
        cached = getattr(layout, "_scda_cache", None)
        if cached is None:
            cached = ScdaLayout(layout, BLOCK_SIZE)
            try:
                layout._scda_cache = cached
            except (AttributeError, TypeError):
                pass
        return cached

    def open_write(self, ctx, meta, layout):
        return _ScdaSession(self, ctx, self._wrap(layout), "w")

    def open_read(self, ctx, meta, layout):
        return _ScdaSession(self, ctx, self._wrap(layout), "r")


class _ScdaSession(_RawSession):
    """The raw session's exact I/O flow, plus headers and merged manifest.

    Only the manifest hook differs: instead of per-rank entries, ``_commit``
    records per-rank write pieces that ``close`` gathers and merges into
    one serial-equivalent entry per section.
    """

    def __init__(self, fmt: ScdaFormat, ctx, layout: ScdaLayout, mode: str):
        super().__init__(fmt, ctx, layout, mode)
        self._mode = mode
        #: section name -> [(file offset, nbytes, crc32 of the piece)].
        self._pieces: dict[str, list[tuple[int, int, int]]] = {}
        if ctx.comm.rank == 0:
            if mode == "w":
                self._write_headers()
            else:
                self._validate_headers()

    # -- headers -----------------------------------------------------------

    def _write_headers(self) -> None:
        lay = self.layout
        self.fh.adio.write_list(lay.header_segments(), lay.header_blob())

    def _validate_headers(self) -> None:
        lay = self.layout
        blob = self.fh.adio.read_list(lay.header_segments())
        lay.validate_headers(blob)

    # -- piece recording ---------------------------------------------------

    def _commit(self, key, kind, name, segments, arr) -> None:
        buf = memoryview(np.ascontiguousarray(arr)).cast("B")
        pieces = self._pieces.setdefault(section_name(key, kind, name), [])
        pos = 0
        for offset, nbytes in segments:
            if nbytes > 0:
                crc = zlib.crc32(buf[pos:pos + nbytes])
                pieces.append((int(offset), int(nbytes), crc))
            pos += nbytes

    # -- close: gather pieces, emit serial-equivalent entries --------------

    def close(self) -> None:
        super().close()
        if self._mode != "w":
            return
        comm = self.ctx.comm
        gathered = coll.gather(comm, self._pieces, root=0)
        if comm.rank != 0:
            return
        merged: dict[str, list[tuple[int, int, int]]] = {}
        for per_rank in gathered:
            for section, pieces in per_rank.items():
                merged.setdefault(section, []).extend(pieces)
        lay = self.layout
        entries = self.ctx.entries
        entries.append(entry_for_segments(
            "scda/headers", self.ctx.base, lay.header_segments(), lay.header_blob()
        ))
        gaps = lay.padding_segments()
        if gaps:
            entries.append(entry_for_segments(
                "scda/padding", self.ctx.base, gaps,
                bytes(sum(n for _, n in gaps)),
            ))
        for name, _, ext in lay.sections:
            pieces = sorted(merged.get(name, ()))
            if ext.nbytes == 0 and not pieces:
                continue
            crc = 0
            pos = ext.offset
            for offset, nbytes, piece_crc in pieces:
                if offset != pos:
                    fault = "a coverage gap" if offset > pos else "an overlap"
                    raise ScdaHeaderError(
                        f"scda section {name!r} has {fault}: expected a piece at"
                        f" offset {pos}, found {nbytes} bytes at offset {offset}"
                    )
                crc = crc32_combine(crc, piece_crc, nbytes)
                pos += nbytes
            if pos != ext.end:
                raise ScdaHeaderError(
                    f"scda section {name!r} covered to {pos}, expected {ext.end}"
                )
            entries.append(ManifestEntry(
                name=name, path=self.ctx.base,
                segments=((ext.offset, ext.nbytes),), checksum=crc,
            ))
