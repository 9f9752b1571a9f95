"""Striping layout arithmetic.

Parallel file systems in this study (GPFS, PVFS) stripe each file round-robin
over their I/O servers in fixed-size units chosen at configuration time;
Lustre chooses the unit, the number of servers and the first server per file.
The paper's central file-system observation is the *mismatch* between these
fixed physical patterns and the application's logical access patterns: a
logically contiguous request can shatter into chunks on many servers, and
logically disjoint requests from different processors can collide on one
server.

:class:`StripeLayout` is the pure arithmetic: file offset <-> (server, local
offset), and decomposition of byte ranges into per-server chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StripeLayout", "Chunk"]


@dataclass(frozen=True)
class Chunk:
    """A piece of a file request that lands on one server.

    ``local_offset`` is the position inside the server's backing store for
    this file (stripes a server owns are packed densely, like PVFS does).
    """

    server: int
    file_offset: int
    local_offset: int
    size: int

    @property
    def file_end(self) -> int:
        return self.file_offset + self.size


@dataclass(frozen=True)
class StripeLayout:
    """Round-robin striping of a file across ``nservers`` servers.

    A file may use only ``stripe_count`` of them (default: all), starting
    at server ``start`` -- the Lustre per-file layout.  Byte arithmetic is
    round-robin over ``stripe_count`` virtual servers; virtual index ``i``
    is the physical server ``(start + i) % nservers``.
    """

    stripe_size: int
    nservers: int
    stripe_count: int | None = None
    start: int = 0

    def __post_init__(self) -> None:
        if self.stripe_size < 1:
            raise ValueError("stripe_size must be >= 1")
        if self.nservers < 1:
            raise ValueError("nservers must be >= 1")
        if self.stripe_count is None:
            object.__setattr__(self, "stripe_count", self.nservers)
        if not 1 <= self.stripe_count <= self.nservers:
            raise ValueError("stripe_count must be in [1, nservers]")
        if not 0 <= self.start < self.nservers:
            raise ValueError("start must be in [0, nservers)")

    def _server(self, stripe: int) -> int:
        return (self.start + stripe % self.stripe_count) % self.nservers

    def server_of(self, offset: int) -> int:
        """The server holding the byte at ``offset``."""
        if offset < 0:
            raise ValueError("negative offset")
        return self._server(offset // self.stripe_size)

    def local_offset(self, offset: int) -> int:
        """Position of ``offset`` inside its server's dense local store."""
        stripe = offset // self.stripe_size
        return (
            (stripe // self.stripe_count) * self.stripe_size
            + offset % self.stripe_size
        )

    def decompose(self, offset: int, nbytes: int) -> list[Chunk]:
        """Split ``[offset, offset + nbytes)`` into per-server chunks.

        Chunks are returned in file-offset order; consecutive stripes on the
        same server are *not* merged (each stripe crossing is a separate
        chunk), mirroring how stripe-unit requests hit the wire.
        """
        if nbytes < 0:
            raise ValueError("negative size")
        chunks: list[Chunk] = []
        pos = offset
        end = offset + nbytes
        while pos < end:
            stripe = pos // self.stripe_size
            stripe_end = (stripe + 1) * self.stripe_size
            size = min(end, stripe_end) - pos
            chunks.append(
                Chunk(
                    server=self._server(stripe),
                    file_offset=pos,
                    local_offset=self.local_offset(pos),
                    size=size,
                )
            )
            pos += size
        return chunks

    def server_runs(self, offset: int, nbytes: int) -> list[tuple[int, int, int]]:
        """Per-server coalesced ``(server, local_offset, size)`` runs.

        Closed form for what ``coalesce_runs(decompose(offset, nbytes))``
        computes by walking every stripe: within one contiguous request a
        server's stripes are consecutive in its dense local store, so each
        touched server contributes exactly one run.  Runs are returned in
        first-touched-stripe order (the dict insertion order the chunk walk
        produces), because the timing code books egress/disk/cache in that
        order.  Cost is O(servers touched), not O(stripes).
        """
        if nbytes < 0:
            raise ValueError("negative size")
        if nbytes == 0:
            return []
        if offset < 0:
            raise ValueError("negative offset")
        ss = self.stripe_size
        n = self.stripe_count
        start, nservers = self.start, self.nservers
        end = offset + nbytes
        first = offset // ss
        last = (end - 1) // ss
        head = offset - first * ss  # bytes skipped in the first stripe
        tail = (last + 1) * ss - end  # bytes unused in the last stripe
        runs: list[tuple[int, int, int]] = []
        for k in range(first, min(first + n, last + 1)):
            m = (last - k) // n + 1  # stripes this server owns in-range
            trim_head = head if k == first else 0
            trim_tail = tail if k + (m - 1) * n == last else 0
            runs.append((
                (start + k % n) % nservers,
                (k // n) * ss + trim_head,
                m * ss - trim_head - trim_tail,
            ))
        return runs

    def stripe_span(self, offset: int, nbytes: int) -> tuple[int, int]:
        """``(first_stripe, last_stripe)`` of a non-empty byte range."""
        return offset // self.stripe_size, (offset + nbytes - 1) // self.stripe_size

    def servers_touched(self, offset: int, nbytes: int) -> set[int]:
        """The set of servers a request lands on."""
        if nbytes <= 0:
            return set()
        first, last = self.stripe_span(offset, nbytes)
        last = min(last, first + self.stripe_count - 1)
        return {self._server(s) for s in range(first, last + 1)}
