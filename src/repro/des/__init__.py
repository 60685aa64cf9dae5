"""A small SimPy-style discrete-event simulation (DES) engine.

This is the substrate underneath both the ExtraP trace-driven simulator
(:mod:`repro.sim`) and the reference target-machine simulator
(:mod:`repro.machine`).  It provides:

* :class:`Environment` — the simulation clock and event loop, drained
  by one entry point, :meth:`Environment.run`;
* generator-based :class:`Process`\\ es that ``yield`` events to wait on;
* :class:`Event` / :class:`Timeout` / :class:`AnyOf` / :class:`AllOf`
  synchronisation primitives (the *interrupt* remote-access service
  policy races a :meth:`Store.get` against a :class:`Timeout` with
  :class:`AnyOf`);
* a FIFO :class:`Store` message queue and a counted :class:`Resource`
  (used for receive queues and link/port contention).

The engine is deterministic: simultaneous events fire in FIFO order of
scheduling (stable tie-break on a monotone sequence number).
"""

from repro.des.events import AllOf, AnyOf, Event, Timeout
from repro.des.engine import (
    Deadlock,
    Environment,
    SimulationStalled,
    StopSimulation,
    Watchdog,
)
from repro.des.process import Process
from repro.des.stores import Store
from repro.des.resources import Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Deadlock",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "SimulationStalled",
    "StopSimulation",
    "Store",
    "Timeout",
    "Watchdog",
]
