"""Nonblocking point-to-point operations (isend/irecv + requests).

The engine's eager-send model makes ``isend`` naturally cheap (the send is
posted immediately; the request completes at once).  ``irecv`` returns a
request that completes when a matching message has arrived; ``wait`` blocks
the caller until then, ``test`` polls.  ``waitall`` completes a batch --
enough to express the overlap patterns ROMIO-era codes used (post receives,
do work, wait).
"""

from __future__ import annotations

from typing import Any, Optional

from .comm import ANY_SOURCE, ANY_TAG, Comm

__all__ = ["Request", "isend", "irecv", "waitall"]


class Request:
    """Handle for an outstanding nonblocking operation."""

    def __init__(self, comm: Comm):
        self._comm = comm
        self._done = False
        self._value: Any = None

    # -- state ------------------------------------------------------------

    @property
    def completed(self) -> bool:
        return self._done

    def _complete(self, value: Any = None) -> None:
        self._done = True
        self._value = value

    # -- completion --------------------------------------------------------

    def wait(self) -> Any:
        """Block until the operation completes; returns its value."""
        while not self._done:
            self._try_progress(blocking=True)
        return self._value

    def test(self) -> tuple[bool, Any]:
        """Poll: ``(completed, value_or_None)`` without blocking."""
        if not self._done:
            self._try_progress(blocking=False)
        return self._done, self._value

    def _try_progress(self, *, blocking: bool) -> None:  # pragma: no cover
        raise NotImplementedError


class _SendRequest(Request):
    """Eager sends complete immediately at post time."""

    def __init__(self, comm: Comm):
        super().__init__(comm)
        self._complete(None)

    def _try_progress(self, *, blocking: bool) -> None:
        return None


class _RecvRequest(Request):
    def __init__(self, comm: Comm, source: int, tag: int):
        super().__init__(comm)
        self._source = source
        self._tag = tag

    def _try_progress(self, *, blocking: bool) -> None:
        comm = self._comm
        # A poll's hit-or-miss is observable, so it takes its place in the
        # global order; a blocking named-source wait commutes (see comm.py).
        match = comm._take(
            self._source,
            self._tag,
            yield_first=not blocking or self._source == ANY_SOURCE,
        )
        if match is not None:
            self._complete(match.payload)
        elif blocking:
            comm._park(self._source, self._tag)


def isend(comm: Comm, obj: Any, dest: int, tag: int = 0) -> Request:
    """Nonblocking (eager) send; the returned request is already complete."""
    comm.send(obj, dest, tag)
    return _SendRequest(comm)


def irecv(comm: Comm, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
    """Nonblocking receive; ``wait()``/``test()`` yield the payload."""
    req = _RecvRequest(comm, source, tag)
    req._try_progress(blocking=False)  # complete immediately if queued
    return req


def waitall(requests: list[Request]) -> list[Any]:
    """Complete every request; returns their values in order."""
    return [r.wait() for r in requests]
