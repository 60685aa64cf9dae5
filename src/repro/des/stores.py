"""Message queues for the DES engine.

:class:`Store` is an unbounded FIFO of items with event-returning
``put``/``get``; it is the building block for processor receive queues
in both simulators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List

from repro.des.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.engine import Environment


class StorePut(Event):
    """Put request; fires once the item has been stored."""

    __slots__ = ()


class StoreGet(Event):
    """Get request; fires with the retrieved item as value."""

    __slots__ = ()


class Store:
    """Unbounded FIFO item store.

    ``put`` returns an event that fires at the current time (a put never
    blocks); ``get`` returns an event that fires with an item once one is
    available.  Getters are served in FIFO order.  At most one of
    ``items`` and the getter queue is non-empty at any time.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self.items: List[Any] = []
        self._get_waiters: List[StoreGet] = []

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Add ``item`` (or hand it to the oldest getter); returns the
        completion event."""
        ev = StorePut(self.env)
        ev.succeed()
        if self._get_waiters:
            self._get_waiters.pop(0).succeed(item)
        else:
            self.items.append(item)
        return ev

    def get(self) -> StoreGet:
        """Request to remove the oldest item; returns the retrieval event."""
        ev = StoreGet(self.env)
        if self.items:
            ev.succeed(self.items.pop(0))
        else:
            self._get_waiters.append(ev)
        return ev

    def cancel(self, get_ev: StoreGet) -> None:
        """Withdraw a get request that has not been served yet.

        Needed by waiters that race a get against another event (e.g. a
        compute timeout vs. message arrival): the loser must be cancelled
        or it would silently steal a later item.  No-op if already served.
        """
        try:
            self._get_waiters.remove(get_ev)
        except ValueError:
            pass
