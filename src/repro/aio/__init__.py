"""``repro.aio`` -- asynchronous I/O: nonblocking writes + background flush.

The paper's remedies all attack *synchronous* write cost; this package
models the orthogonal fix of hiding it.  Each rank owns a simulated
I/O-progress thread (:class:`ProgressEngine`) with its own timeline inside
the deterministic event engine: a write is *posted* -- the rank pays only
the staging memcpy into a bounded staging-buffer queue -- and the progress
timeline drains it in the background while the rank's own clock advances
through compute or further posts.  The engine retires its
:class:`AioRequest` queue in post order -- under backpressure, before a
read, and at the end of a dump -- surfacing deferred I/O errors
oldest-first so crash-consistency stays recover-or-fail-loudly (the
manifest commit waits on a full drain).

Data lands in the simulated file system *eagerly at post time* (only the
completion time is deferred to the progress timeline), so draining never
depends on buffers the application may have mutated since, and restart
bytes are identical to the synchronous path's.
"""

from .core import AioConfig, AioRequest, ProgressEngine, drain_all, progress_engine

__all__ = [
    "AioConfig",
    "AioRequest",
    "ProgressEngine",
    "drain_all",
    "progress_engine",
]
