"""Nonblocking point-to-point operations (isend/irecv + requests).

A request is a thunk.  Sends are eager, so ``isend`` posts at once and its
request is already complete; ``irecv`` only records its source and tag and
receives at ``wait()``, exactly as :meth:`Comm.recv` would there.  A receive
takes no schedule point, so this is indistinguishable from matching at post
time unless a blocking receive of the same ``(source, tag)`` runs between
the post and the wait (it then takes the older message).  ``waitall``
completes a batch -- enough to express the overlap pattern ROMIO-era codes
used (post receives, do work, wait).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .comm import Comm

__all__ = ["Request", "isend", "irecv", "waitall"]


class Request:
    """Handle for a nonblocking operation; ``wait()`` completes it."""

    __slots__ = ("_receive", "_value")

    def __init__(self, receive: Optional[Callable[[], Any]] = None):
        self._receive = receive
        self._value: Any = None

    def wait(self) -> Any:
        """Complete the operation (once); returns its value."""
        if self._receive is not None:
            self._value, self._receive = self._receive(), None
        return self._value


def isend(comm: Comm, obj: Any, dest: int, tag: int = 0) -> Request:
    """Nonblocking (eager) send; the returned request is already complete."""
    comm.send(obj, dest, tag)
    return Request()


def irecv(comm: Comm, source: int, tag: int = 0) -> Request:
    """Nonblocking receive from ``source``; ``wait()`` yields the payload."""
    return Request(lambda: comm.recv(source, tag))


def waitall(requests: list[Request]) -> list[Any]:
    """Complete every request; returns their values in order."""
    return [r.wait() for r in requests]
