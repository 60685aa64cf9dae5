"""The simulation environment: clock + event queue + run loop.

The run loop has two tiers:

* :meth:`Environment.step` — the readable one-event reference path;
* :meth:`Environment.run` — the one drain entry point every driver
  uses.  It drains the heap in same-time batches with the
  event-dispatch inlined (no per-event method calls), processing
  events in exactly the order repeated ``step()`` calls would.

Profiling (:meth:`Environment.enable_profiling`) attaches an
:class:`~repro.perf.counters.EngineCounters` block; while it is on,
``run`` routes through its instrumented twin (built on ``step``) so
events are histogrammed by type and the heap peak is tracked.  The fast
path pays nothing for the feature when it is off (one ``is None`` test
per drain).
"""

from __future__ import annotations

import math
import time
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.des.events import PROCESSED, AllOf, AnyOf, Event, Timeout
from repro.des.process import Process
from repro.perf.counters import EngineCounters


class StopSimulation(Exception):
    """Raised by :meth:`Environment.step` on an empty event queue."""


class Deadlock(RuntimeError):
    """Raised when the queue drains before an awaited event fires."""


class SimulationStalled(RuntimeError):
    """The simulation stopped making progress (watchdog diagnosis).

    Raised instead of hanging (or dying with a bare :class:`Deadlock`)
    when a run cannot complete — e.g. a fault plan dropped a message
    nobody retransmits, or the wall-clock budget ran out.  The message
    is a one-line diagnosis; ``blocked`` carries ``(pid, reason)``
    pairs for the processes that never finished and
    ``pending_barriers`` the barrier episodes still waiting on
    arrivals, so callers can render richer reports.
    """

    def __init__(
        self,
        message: str,
        *,
        blocked: Sequence[Tuple[int, str]] = (),
        pending_barriers: Sequence[Tuple[int, str]] = (),
    ):
        super().__init__(message)
        self.blocked = tuple(blocked)
        self.pending_barriers = tuple(pending_barriers)


class Watchdog:
    """Wall-clock budget + no-progress stall detection for run loops.

    The driving loop calls :meth:`check` every ``check_interval``
    processed events with an opaque *progress token* (any value that
    changes whenever the simulation did real work — the simulator uses
    ``(processors finished, actions completed)``).  If the token stops
    changing for ``stall_event_window`` events while events keep
    flowing, or the optional wall-clock budget is exhausted, ``check``
    returns a one-line reason string; the caller turns it into a
    :class:`SimulationStalled` with whatever model-level diagnosis it
    can add.  Healthy runs pay one comparison per interval.
    """

    def __init__(
        self,
        *,
        wall_clock_budget: Optional[float] = None,
        stall_event_window: int = 2_000_000,
        check_interval: int = 250_000,
    ):
        if wall_clock_budget is not None and not (
            math.isfinite(wall_clock_budget) and wall_clock_budget > 0
        ):
            raise ValueError(
                f"wall_clock_budget must be finite and > 0, got "
                f"{wall_clock_budget}"
            )
        if stall_event_window <= 0 or check_interval <= 0:
            raise ValueError("watchdog windows must be > 0")
        self.wall_clock_budget = wall_clock_budget
        self.stall_event_window = stall_event_window
        self.check_interval = check_interval
        self._started = time.monotonic()
        self._last_progress: Any = None
        self._events_at_progress = 0

    def check(self, event_count: int, progress: Any) -> Optional[str]:
        """Return a stall reason, or None while the run looks healthy."""
        if progress != self._last_progress:
            self._last_progress = progress
            self._events_at_progress = event_count
        elif event_count - self._events_at_progress >= self.stall_event_window:
            return (
                f"no forward progress in the last "
                f"{event_count - self._events_at_progress} events "
                "(messages may be circulating without completing any work)"
            )
        if self.wall_clock_budget is not None:
            elapsed = time.monotonic() - self._started
            if elapsed > self.wall_clock_budget:
                return (
                    f"wall-clock budget of {self.wall_clock_budget:g}s "
                    f"exceeded ({elapsed:.1f}s elapsed, "
                    f"{event_count} events processed)"
                )
        return None


class Environment:
    """Discrete-event simulation environment.

    Time is a float in whatever unit the caller chooses; the rest of this
    library uses microseconds (see :mod:`repro.util.units`).

    Events scheduled for the same time fire in FIFO order of scheduling,
    with an integer ``priority`` tie-break below that (lower fires first;
    process-start events use priority -1 so a freshly spawned process gets
    its first step before same-time ordinary events).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._seq = 0
        self._event_count = 0
        self._profile: Optional[EngineCounters] = None
        #: Observability hook slot (see :mod:`repro.obs`).  A simulator
        #: that wants a recorded timeline attaches its
        #: :class:`~repro.obs.recorder.TimelineRecorder` here *before*
        #: building its model components; each component captures the
        #: slot at construction and guards every hook call with a single
        #: ``is None`` test.  The engine itself never touches it, so the
        #: event loop pays nothing for the feature.
        self.obs: Optional[Any] = None
        #: Fault-injection hook slot (see :mod:`repro.faults`), wired
        #: exactly like ``obs``: the simulator attaches a
        #: :class:`~repro.faults.injector.FaultInjector` here *before*
        #: building its model components; each component captures the
        #: slot at construction.  ``None`` (the default, and always for
        #: a null fault plan) keeps every code path byte-identical to a
        #: fault-free build.
        self.faults: Optional[Any] = None

    # -- introspection ------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed_event_count(self) -> int:
        """Total number of events processed so far (profiling aid)."""
        return self._event_count

    @property
    def profile(self) -> Optional[EngineCounters]:
        """The counter block, or None while profiling is off."""
        return self._profile

    def enable_profiling(self) -> EngineCounters:
        """Attach (or return the already-attached) engine counters.

        While enabled, processed events are histogrammed by type and the
        event-queue peak is tracked; the run loop uses its instrumented
        path, which is measurably slower than the default fast path.
        """
        if self._profile is None:
            self._profile = EngineCounters()
        return self._profile

    # -- factories ------------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` after the current time."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Spawn a new process from a generator."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` fires."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling / run loop ----------------------------------------------

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 0) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._seq += 1
        queue = self._queue
        heappush(queue, (self._now + delay, priority, self._seq, event))
        profile = self._profile
        if profile is not None:
            profile.scheduled_total += 1
            if len(queue) > profile.heap_peak:
                profile.heap_peak = len(queue)

    def step(self) -> Event:
        """Process exactly one event (advancing the clock to it).

        Returns the processed event.  This is the reference path; bulk
        draining goes through :meth:`run`, which behaves exactly like
        repeated ``step()`` calls.
        """
        if not self._queue:
            raise StopSimulation("event queue is empty")
        t, _prio, _seq, event = heappop(self._queue)
        self._now = t
        self._event_count += 1
        if self._profile is not None:
            self._profile.count(event)
        event._process()
        return event

    def run(
        self,
        until: Event | None = None,
        *,
        max_events: int | None = None,
    ) -> bool:
        """Drain the event queue (the engine's fast path).

        Events are processed in exactly the order repeated :meth:`step`
        calls would produce (the documented FIFO/priority contract), but
        the pop/dispatch sequence is inlined and same-time runs are
        drained in batches so the clock is written once per timestamp.

        Parameters
        ----------
        until:
            Stop right after this event has been processed.  Raises
            :class:`Deadlock` if the queue drains first.
        max_events:
            Process at most this many events, then return ``False``.

        Returns ``True`` when finished (queue drained, or ``until``
        processed), ``False`` when the ``max_events`` budget ran out.  A
        failed event nobody waits on (``until`` included) raises its
        exception out of the loop.
        """
        if until is not None and until._state == PROCESSED:
            return True
        if self._profile is not None:
            return self._run_instrumented(until, max_events)

        queue = self._queue
        pop = heappop
        budget = -1 if max_events is None else max_events
        if budget == 0:
            return until is None and not queue
        count = 0
        try:
            while queue:
                t = queue[0][0]
                self._now = t
                # Drain everything scheduled for exactly t.  Callbacks may
                # push new time-t entries; the peek re-checks pick those up
                # in (priority, seq) order, same as step() would.
                while queue and queue[0][0] == t:
                    event = pop(queue)[3]
                    count += 1
                    # Inlined Event._process (do not override _process in
                    # Event subclasses; the loop bypasses the method).
                    event._state = PROCESSED
                    callbacks = event.callbacks
                    if callbacks:
                        event.callbacks = []
                        for cb in callbacks:
                            cb(event)
                    elif not event._ok and not event.defused:
                        # A failure nobody waited on: surface it.
                        raise event._value
                    if event is until:
                        return True
                    if count == budget:
                        return False
        finally:
            self._event_count += count
        if until is not None:
            raise Deadlock(
                "simulation ran out of events before the awaited "
                f"event fired ({until!r}); deadlock?"
            )
        return True

    def _run_instrumented(
        self, until: Event | None, max_events: int | None
    ) -> bool:
        """Profiling twin of :meth:`run`, built on :meth:`step`."""
        budget = -1 if max_events is None else max_events
        if budget == 0:
            return until is None and not self._queue
        count = 0
        while self._queue:
            event = self.step()
            count += 1
            if event is until:
                return True
            if count == budget:
                return False
        if until is not None:
            raise Deadlock(
                "simulation ran out of events before the awaited "
                f"event fired ({until!r}); deadlock?"
            )
        return True
