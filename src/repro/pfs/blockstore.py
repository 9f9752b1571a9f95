"""In-memory byte storage backing every simulated file system.

The performance models in this package decide *when* an operation completes;
the :class:`BlockStore` decides *what* the bytes are.  Keeping real bytes --
instead of only tracking sizes -- means every simulated experiment doubles
as a correctness test: a checkpoint written through any I/O stack can be
re-read and compared bit-for-bit.

Files are sparse: reads from never-written ranges return zeros, like POSIX.
"""

from __future__ import annotations

import zlib

__all__ = ["StoredFile", "BlockStore", "FileNotFound", "FileExists"]


class FileNotFound(OSError):
    """The named file does not exist in the store."""


class FileExists(OSError):
    """Exclusive creation failed because the file already exists."""


#: Page size of a :class:`StoredFile`.  Bulk writes are one ``memcpy`` per
#: page, so it has to be large against the per-page Python overhead; it is
#: kept under the allocator's mmap threshold (128 KiB in glibc) so that the
#: pages of a deleted file are recycled from the heap and not faulted in
#: afresh (funnel-hdf4 pass: 0.59 s at 64 KiB, 0.66 s at 1 MiB, 0.71 s at 4).
_PAGE = 1 << 16


def _page_ranges(offset: int, end: int):
    """``(page index, lo, hi)`` for each page the bytes ``[offset, end)`` touch."""
    while offset < end:
        index, lo = divmod(offset, _PAGE)
        hi = min(_PAGE, lo + end - offset)
        yield index, lo, hi
        offset += hi - lo


class StoredFile:
    """A single file: zero-on-demand pages plus a logical size.

    ``_pages`` maps a page index to a ``bytearray`` of *at most*
    :data:`_PAGE` bytes; a missing page, and every byte of a page past its
    ``bytearray``'s length, reads as zero.  Holes therefore cost nothing,
    a whole-page write is one copy with no zero fill, and a page written
    piecemeal grows geometrically up to the page size -- so a file of
    logical size S holds at most S plus one page, a sub-page file at most
    2 S.  Invariant: no page holds a non-zero byte at or past ``size``.
    """

    __slots__ = ("path", "_pages", "size")

    def __init__(self, path: str):
        self.path = path
        self._pages: dict[int, bytearray] = {}
        self.size = 0

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> int:
        """Write ``data`` at ``offset``, growing the file as needed."""
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        data = memoryview(data).cast("B")
        end = offset + len(data)
        pages = self._pages
        done = 0
        for index, lo, hi in _page_ranges(offset, end):
            chunk = data[done : done + hi - lo]
            done += hi - lo
            page = pages.get(index)
            if page is None and lo == 0:
                pages[index] = bytearray(chunk)
            else:
                if page is None or hi > len(page):
                    # Calloc'd, exactly sized; only a part-written page is
                    # ever copied, and at most log2(_PAGE) times.
                    grown = bytearray(
                        hi if page is None else min(_PAGE, max(hi, 2 * len(page)))
                    )
                    if page:
                        grown[: len(page)] = page
                    page = pages[index] = grown
                page[lo:hi] = chunk
        if end > self.size:
            self.size = end
        return len(data)

    def _spans(self, offset: int, nbytes: int):
        """``read(offset, nbytes)`` as buffers: views of the stored bytes,
        zeros (at most a page at a time) for everything else."""
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if nbytes < 0:
            raise ValueError(f"negative read size: {nbytes}")
        pages = self._pages
        for index, lo, hi in _page_ranges(offset, offset + nbytes):
            page = pages.get(index)
            stored = lo if page is None else max(lo, min(hi, len(page)))
            if stored > lo:
                yield memoryview(page)[lo:stored]
            if stored < hi:
                yield bytes(hi - stored)

    def read(self, offset: int, nbytes: int) -> bytes:
        """Read ``nbytes`` at ``offset``; ranges past EOF read as zeros.

        POSIX would short-read at EOF; zero-filling instead keeps the layers
        above simple (they always know the file size and never read past the
        data they wrote) while still being deterministic if they do.
        """
        return b"".join(self._spans(offset, nbytes))

    def readinto(self, offset: int, out: memoryview) -> None:
        """``read(offset, len(out))`` written into the writable byte view
        ``out``: each stored byte is copied once, with no ``bytes`` between
        the pages and their destination."""
        pos = 0
        for span in self._spans(offset, len(out)):
            end = pos + len(span)
            out[pos:end] = span
            pos = end

    def checksum(self, runs) -> int:
        """CRC32 of the concatenated ``read(offset, nbytes)`` of every
        ``(offset, nbytes)`` in ``runs``, without materializing a copy.

        Manifest verification scans every recorded array, one call per
        entry; feeding ``zlib.crc32`` views of the live pages avoids one
        full checkpoint-sized allocation per verify.
        """
        pages = self._pages
        crc32 = zlib.crc32
        crc = 0
        for offset, nbytes in runs:
            index, lo = divmod(offset, _PAGE)
            page = pages.get(index)
            if page is not None and lo <= lo + nbytes <= len(page):
                # One stored page holds the run: the common, small case.
                crc = crc32(memoryview(page)[lo : lo + nbytes], crc)
                continue
            for span in self._spans(offset, nbytes):
                crc = crc32(span, crc)
        return crc

    def truncate(self, size: int) -> None:
        """Set the logical size; shrinking discards bytes."""
        if size < 0:
            raise ValueError(f"negative size: {size}")
        if size < self.size:
            last, keep = divmod(size, _PAGE)
            pages = self._pages
            for index in [i for i in pages if i >= last]:
                if index > last or not keep:
                    del pages[index]
                else:
                    # A shortened page reads as zeros past its length.
                    del pages[index][keep:]
        self.size = size


class BlockStore:
    """A flat namespace of :class:`StoredFile` objects."""

    def __init__(self) -> None:
        self._files: dict[str, StoredFile] = {}

    def create(self, path: str, *, exclusive: bool = False) -> StoredFile:
        """Create (or truncate-open) ``path``."""
        if path in self._files:
            if exclusive:
                raise FileExists(path)
            f = self._files[path]
            f.truncate(0)
            return f
        f = StoredFile(path)
        self._files[path] = f
        return f

    def open(self, path: str, *, create: bool = False) -> StoredFile:
        """Return the file at ``path``; optionally create it if missing."""
        f = self._files.get(path)
        if f is None:
            if not create:
                raise FileNotFound(path)
            f = StoredFile(path)
            self._files[path] = f
        return f

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise FileNotFound(path)
        del self._files[path]

    def listdir(self) -> list[str]:
        """All file paths, sorted (the namespace is flat)."""
        return sorted(self._files)
