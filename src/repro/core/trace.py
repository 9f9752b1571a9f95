"""I/O tracing and request statistics (Pablo-style, ref [20]).

The paper's analysis started from traces of the ENZO code's I/O activity.
:class:`IOTrace` records every file-system request of a simulated run --
operation, offset, size, issue/finish virtual times, rank -- and computes
the aggregate statistics the analysis rests on: request-size distribution,
sequential fraction, per-rank skew, and achieved bandwidth.

Attach with :func:`trace_filesystem` (subscribes to a FileSystem's request
stream), or record manually.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["IOEvent", "IOTrace", "trace_filesystem"]


@dataclass(frozen=True)
class IOEvent:
    """One traced request."""

    op: str  # "read" | "write" | "meta" | "recovery"
    path: str
    offset: int
    nbytes: int
    start: float
    end: float
    node: int
    #: metadata sub-operation ("open" | "create" | "delete") for op="meta",
    #: recovery kind ("retry" | "recovered" | "degraded" | "giveup" |
    #: "slow-op") for op="recovery"; empty for data requests; optional so
    #: pre-existing traces still load.
    kind: str = ""
    #: retry attempt number for op="recovery" events (0 otherwise).
    attempt: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class IOTrace:
    """An append-only request log with derived statistics."""

    events: list = field(default_factory=list)
    #: ends the subscription of a trace made by :func:`trace_filesystem`
    _unsubscribe: object = field(default=None, repr=False, compare=False)

    def record(self, **kw) -> None:
        self.events.append(IOEvent(**kw))

    def detach(self) -> None:
        """Stop recording from the file system (no-op on a detached trace).

        Also drops the trace's reference to the file system, so a kept
        trace does not keep a machine's stored bytes alive.
        """
        unsubscribe, self._unsubscribe = self._unsubscribe, None
        if unsubscribe is not None:
            unsubscribe()

    def __enter__(self) -> "IOTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # -- selections ---------------------------------------------------------

    def ops(self, op: str) -> list:
        return [e for e in self.events if e.op == op]

    def recoveries(self, kind: str | None = None) -> list:
        """Recovery events (retry/recovered/degraded/giveup/slow-op)."""
        events = self.ops("recovery")
        if kind is None:
            return events
        return [e for e in events if e.kind == kind]

    def recovery_summary(self) -> dict[str, int]:
        """Recovery-event counts by kind."""
        out: dict[str, int] = {}
        for e in self.ops("recovery"):
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    # -- statistics -----------------------------------------------------------

    def request_sizes(self, op: str) -> np.ndarray:
        return np.array([e.nbytes for e in self.ops(op)], dtype=np.int64)

    def total_bytes(self, op: str) -> int:
        return int(self.request_sizes(op).sum()) if self.ops(op) else 0

    def sequential_fraction(self, op: str) -> float:
        """Fraction of requests starting where the previous one (per file)
        ended -- the metric that exposes small-strided access patterns."""
        events = self.ops(op)
        if not events:
            return 0.0
        last_end: dict[str, int] = {}
        sequential = 0
        for e in events:
            if last_end.get(e.path) == e.offset:
                sequential += 1
            last_end[e.path] = e.offset + e.nbytes
        return sequential / len(events)

    def size_histogram(self, op: str, edges=None) -> dict[str, int]:
        """Requests bucketed by size decade."""
        if edges is None:
            edges = [0, 1 << 10, 1 << 14, 1 << 17, 1 << 20, 1 << 62]
            labels = ["<1K", "1K-16K", "16K-128K", "128K-1M", ">=1M"]
        else:
            labels = [f"[{a},{b})" for a, b in zip(edges, edges[1:])]
        sizes = self.request_sizes(op)
        counts, _ = np.histogram(sizes, bins=edges)
        return dict(zip(labels, counts.tolist()))

    def elapsed(self, op: str | None = None) -> float:
        events = self.events if op is None else self.ops(op)
        if not events:
            return 0.0
        return max(e.end for e in events) - min(e.start for e in events)

    def bandwidth(self, op: str) -> float:
        """Aggregate achieved bytes/second over the op's active interval."""
        t = self.elapsed(op)
        return self.total_bytes(op) / t if t > 0 else 0.0

    def alignment_fraction(self, op: str, boundary: int) -> float:
        """Fraction of ``op`` requests whose file offset falls on a
        ``boundary``-byte boundary (stripe / file-system block).

        Misaligned requests straddle stripe units and pay extra server
        visits and lock traffic; 1.0 is returned for an empty selection so
        "no requests" never reads as "misaligned requests".
        """
        if boundary < 1:
            raise ValueError("boundary must be >= 1")
        events = self.ops(op)
        if not events:
            return 1.0
        aligned = sum(1 for e in events if e.offset % boundary == 0)
        return aligned / len(events)

    def metadata_ratio(self) -> float:
        """Metadata operations (open/create/delete) per data request.

        The paper attributes HDF5's slowdown to exactly this interleaving
        of metadata and data traffic; a high ratio means the run spends its
        requests on namespace churn rather than payload.  Returns 0.0 for
        a trace with no data requests (all-metadata traces are reported as
        ratio = number of metadata ops).
        """
        meta = len(self.ops("meta"))
        data = len(self.ops("read")) + len(self.ops("write"))
        if data == 0:
            return float(meta)
        return meta / data

    def paths(self, op: str | None = None) -> list[str]:
        """Distinct file paths touched, in first-seen order."""
        events = self.events if op is None else self.ops(op)
        seen: dict[str, None] = {}
        for e in events:
            seen.setdefault(e.path, None)
        return list(seen)

    def per_node_bytes(self, op: str) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.ops(op):
            out[e.node] = out.get(e.node, 0) + e.nbytes
        return out

    def __len__(self) -> int:
        return len(self.events)

    # -- canonical form / golden digests ------------------------------------

    def canonical_events(self) -> list[tuple]:
        """The event stream as plain tuples, in recorded order.

        One tuple per event: ``(op, path, offset, nbytes, start, end, node,
        kind, attempt)`` with times rendered by ``repr`` (full float
        precision, no locale or formatting ambiguity).  Recorded order is
        deliberately preserved rather than sorted: the simulated run is
        supposed to be deterministic, so any reordering between two runs of
        the same program (dict/set iteration order, scheduling drift) is a
        bug this form must expose, not mask.
        """
        return [
            (
                e.op, e.path, int(e.offset), int(e.nbytes),
                repr(float(e.start)), repr(float(e.end)),
                int(e.node), e.kind, int(e.attempt),
            )
            for e in self.events
        ]

    def digest(self) -> str:
        """SHA-256 over the canonical event stream (``"sha256:<hex>"``).

        Two runs of the same SPMD program on the same machine model must
        produce equal digests -- this is the golden-trace determinism gate
        the regression harness compares across runs and against the
        committed baseline.
        """
        h = hashlib.sha256()
        for ev in self.canonical_events():
            h.update(json.dumps(ev, separators=(",", ":")).encode())
            h.update(b"\n")
        return f"sha256:{h.hexdigest()}"

    # -- serialisation ------------------------------------------------------

    def to_json(self) -> str:
        """Export as JSON (one event object per entry, Pablo-SDDF-like)."""
        return json.dumps([asdict(e) for e in self.events])

    @classmethod
    def from_json(cls, raw: str) -> "IOTrace":
        trace = cls()
        for entry in json.loads(raw):
            trace.record(**entry)
        return trace

    def save(self, path) -> None:
        """Write the JSON export to a real (host) file."""
        with open(path, "w") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path) -> "IOTrace":
        with open(path) as f:
            return cls.from_json(f.read())


def trace_filesystem(fs, *, include_meta: bool = False) -> IOTrace:
    """Subscribe a new trace to ``fs``'s request stream; returns it live.

    Every read/write lands in the trace with its virtual start/finish
    times, list-I/O as one event per segment sharing the request's times,
    recovery notices as ``op="recovery"``.  With ``include_meta=True``,
    namespace operations (open/create/delete) are recorded as ``op="meta"``
    events too -- the raw material for metadata-churn diagnosis.

    ``trace.detach()`` ends the subscription, so a file system can be
    traced for one phase only; ``with trace_filesystem(fs) as trace:``
    detaches on exit.
    """
    trace = IOTrace()

    def observe(op, path, offset, nbytes, start, end, node, kind, attempt):
        if include_meta or op != "meta":
            trace.events.append(
                IOEvent(op, path, offset, nbytes, start, end, node, kind, attempt)
            )

    fs.subscribe(observe)
    trace._unsubscribe = lambda: fs.unsubscribe(observe)
    return trace
