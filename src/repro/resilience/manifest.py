"""Checkpoint manifest: per-dataset checksums for crash-consistent restart.

Every checkpoint strategy writes a ``<base>.manifest`` sidecar after the
data phase: one :class:`ManifestEntry` per array actually persisted, with
the file path, the exact byte segments the array occupies, and a CRC32 of
those bytes.  On restart the manifest is the commit record -- a dump that
crashed before writing it is detectably incomplete, and a dump whose data
was torn mid-write fails the checksum scan.  Either way restart raises
:class:`ManifestVerificationError` instead of silently reconstructing a
corrupt hierarchy.

The format follows the ``<base>.hierarchy`` sidecar convention: a pickled
payload with an explicit version field, written through the same simulated
file-system path as the data (so manifest writes are timed, counted and
fault-injectable like any other I/O).
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass

__all__ = [
    "CheckpointManifest",
    "ManifestEntry",
    "ManifestVerificationError",
    "manifest_path",
]

MANIFEST_VERSION = 1
MANIFEST_SUFFIX = ".manifest"


def manifest_path(base: str) -> str:
    """The manifest sidecar path for checkpoint ``base``."""
    return base + MANIFEST_SUFFIX


class ManifestVerificationError(RuntimeError):
    """The checkpoint failed integrity verification at restart.

    Raised when the manifest sidecar is missing (the dump never committed),
    unreadable, or when any entry's on-disk bytes no longer match the
    checksum recorded at write time (torn or lost writes).
    """


def checksum_bytes(*chunks) -> int:
    """CRC32 over the concatenation of ``chunks`` (bytes-like objects)."""
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    return crc


@dataclass(frozen=True)
class ManifestEntry:
    """One persisted array: where its bytes live and what they hash to.

    ``segments`` is a tuple of ``(offset, nbytes)`` pairs in the order the
    array's linear bytes map onto the file (a contiguous array is a single
    segment; a collective subarray write is the rank's row segments).
    """

    name: str
    path: str
    segments: tuple
    checksum: int

    @property
    def nbytes(self) -> int:
        return sum(n for _, n in self.segments)


def entry_for_bytes(name: str, path: str, offset: int, data) -> ManifestEntry:
    """A single-segment entry for a contiguous write of ``data``."""
    buf = memoryview(data).cast("B")
    return ManifestEntry(
        name=name,
        path=path,
        segments=((int(offset), len(buf)),),
        checksum=checksum_bytes(buf),
    )


def entry_for_segments(name: str, path: str, segments, data) -> ManifestEntry:
    """An entry for ``data`` scattered over ``(offset, nbytes)`` segments."""
    buf = memoryview(data).cast("B")
    segs = tuple((int(off), int(n)) for off, n in segments if n > 0)
    total = sum(n for _, n in segs)
    if len(buf) != total:
        raise ValueError(f"data has {len(buf)} bytes, segments cover {total}")
    return ManifestEntry(
        name=name, path=path, segments=segs, checksum=checksum_bytes(buf)
    )


class CheckpointManifest:
    """The full set of entries for one checkpoint dump."""

    def __init__(self, strategy: str = "", entries=None):
        self.strategy = strategy
        self.entries: dict[str, ManifestEntry] = {}
        for e in entries or ():
            self.add(e)

    def add(self, entry: ManifestEntry) -> None:
        if entry.nbytes == 0:
            return  # empty slices carry no corruptible bytes
        if entry.name in self.entries:
            raise ValueError(f"duplicate manifest entry {entry.name!r}")
        self.entries[entry.name] = entry

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries.values())

    # -- serialisation ------------------------------------------------------

    def to_bytes(self) -> bytes:
        payload = {
            "version": MANIFEST_VERSION,
            "strategy": self.strategy,
            "entries": [
                (e.name, e.path, e.segments, e.checksum)
                for e in sorted(self.entries.values(), key=lambda e: e.name)
            ],
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CheckpointManifest":
        try:
            payload = pickle.loads(raw)
            version = payload["version"]
            if version != MANIFEST_VERSION:
                raise ValueError(f"unsupported manifest version {version}")
            manifest = cls(strategy=payload.get("strategy", ""))
            for name, path, segments, checksum in payload["entries"]:
                manifest.add(ManifestEntry(name, path, tuple(segments), checksum))
        except ManifestVerificationError:
            raise
        except Exception as exc:
            raise ManifestVerificationError(
                f"corrupt checkpoint manifest: {exc}"
            ) from exc
        return manifest

    # -- verification -------------------------------------------------------

    def verify(self, store) -> list[str]:
        """Integrity-scan the checkpoint against a BlockStore.

        Reads every entry's segments straight from the store (an untimed
        scan -- the caller charges whatever service time it wants) and
        returns a list of human-readable problems, empty when clean.
        Reads past a file's end zero-fill, so a torn write that shortened
        a file is caught by the checksum rather than an exception.
        """
        problems: list[str] = []
        for entry in sorted(self.entries.values(), key=lambda e: e.name):
            if not store.exists(entry.path):
                problems.append(f"{entry.name}: file {entry.path!r} is missing")
                continue
            # One zero-copy scan over the store's live pages per entry.
            crc = store.open(entry.path).checksum(entry.segments)
            if crc != entry.checksum:
                problems.append(
                    f"{entry.name}: checksum mismatch in {entry.path!r} "
                    f"(expected {entry.checksum:#010x}, read {crc:#010x})"
                )
        return problems

    def verify_or_raise(self, store, base: str) -> None:
        problems = self.verify(store)
        if problems:
            detail = "; ".join(problems[:5])
            more = f" (+{len(problems) - 5} more)" if len(problems) > 5 else ""
            raise ManifestVerificationError(
                f"checkpoint {base!r} failed verification: {detail}{more}"
            )
