"""Counted resources with FIFO queuing.

:class:`Resource` models a facility with ``capacity`` concurrent slots
(links, DMA engines, barrier hardware ports).  Processes ``yield
resource.request()``, do their work, then call ``release(req)``.  The
request queue is FIFO, which keeps contention deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment


class Request(Event):
    """A pending or granted claim on a resource slot."""

    __slots__ = ()


class Resource:
    """A facility with a fixed number of concurrent usage slots."""

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: List[Request] = []
        self._waiters: List[Request] = []

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when the claim is granted."""
        req = Request(self.env)
        if len(self._users) < self.capacity:
            self._users.append(req)
            req.succeed(req)
        else:
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        if request not in self._users:
            raise ValueError("releasing a request that does not hold a slot")
        self._users.remove(request)
        if self._waiters:
            nxt = self._waiters.pop(0)
            self._users.append(nxt)
            nxt.succeed(nxt)
