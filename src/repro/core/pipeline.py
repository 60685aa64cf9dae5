"""End-to-end extrapolation pipeline (paper Figure 2).

:func:`measure` runs a program under the 1-processor tracing runtime;
:func:`extrapolate` takes the resulting trace through translation and
simulation and returns an :class:`ExtrapolationOutcome` bundling
everything a performance-debugging session needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.parameters import SimulationParameters
from repro.core.translation import TranslatedProgram, translate
from repro.pcxx.runtime import SUN4_MFLOPS, ThreadBody, TracingRuntime
from repro.sim.result import SimulationResult
from repro.sim.simulator import simulate
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.trace import Trace

#: A program is a factory: given a tracing runtime, it builds collections
#: and returns the per-thread bodies to run.  The factory shape lets the
#: same program be measured at different thread counts and size modes.
ProgramFactory = Callable[[TracingRuntime], "Sequence[ThreadBody] | ThreadBody"]


class Outcome:
    """The interface reports and result records read, full or sampled."""

    trace: Trace
    trace_stats: TraceStats
    result: SimulationResult

    @property
    def predicted_time(self) -> float:
        """Predicted n-processor execution time (microseconds)."""
        return self.result.execution_time

    @property
    def ideal_time(self) -> float:
        """Execution time under zero-cost communication/synchronisation."""
        raise NotImplementedError


@dataclass
class ExtrapolationOutcome(Outcome):
    """Everything produced by one extrapolation run."""

    #: merged trace measured in the 1-processor environment (PI1)
    trace: Trace
    #: statistics of the measured trace
    trace_stats: TraceStats
    #: translated ideal-parallel per-thread traces
    translated: TranslatedProgram
    #: simulation result: predicted performance information (PI2p)
    result: SimulationResult

    @property
    def ideal_time(self) -> float:
        return self.translated.ideal_execution_time()


def measure(
    program: ProgramFactory,
    n_threads: int,
    *,
    name: str = "",
    trace_mflops: float = SUN4_MFLOPS,
    size_mode: str = "compiler",
    event_overhead: float = 0.0,
    switch_overhead: float = 0.0,
    flush_every: int = 0,
    flush_overhead: float = 0.0,
    compute_noise: float = 0.0,
    noise_seed: Optional[int] = None,
    problem: Optional[Dict[str, Any]] = None,
) -> Trace:
    """Run ``program`` with ``n_threads`` on one virtual processor.

    Returns the merged high-level event trace (PI1).
    """
    rt = TracingRuntime(
        n_threads,
        name,
        trace_mflops=trace_mflops,
        size_mode=size_mode,
        event_overhead=event_overhead,
        switch_overhead=switch_overhead,
        flush_every=flush_every,
        flush_overhead=flush_overhead,
        compute_noise=compute_noise,
        noise_seed=noise_seed,
        problem=problem,
    )
    bodies = program(rt)
    return rt.run(bodies)


def extrapolate(
    trace: Trace,
    params: SimulationParameters,
    *,
    compensate_overhead: float = 0.0,
    profile: bool = False,
    observe: bool = False,
    wall_clock_budget: Optional[float] = None,
) -> ExtrapolationOutcome:
    """Translate a measured trace and simulate it in environment ``params``.

    Parameters
    ----------
    trace:
        Merged 1-processor trace from :func:`measure`.
    params:
        Target-environment description (see :mod:`repro.core.presets`).
        When ``params.faults`` is a non-null fault plan, the simulation
        runs on the modelled *unreliable* machine (see
        :mod:`repro.faults`).
    compensate_overhead:
        Per-event instrumentation overhead to subtract during translation.
    profile:
        Collect engine counters and phase timers on the simulation; the
        outcome's ``result.profile`` carries them (slower run, identical
        simulation results).
    observe:
        Record an event-level timeline of the simulated execution; the
        outcome's ``result.timeline`` carries it (see :mod:`repro.obs`;
        identical simulation results).
    wall_clock_budget:
        Real-seconds watchdog budget for the simulation (None =
        unlimited); exceeded budgets raise
        :class:`~repro.des.engine.SimulationStalled`.
    """
    translated = translate(trace, event_overhead=compensate_overhead)
    result = simulate(
        translated,
        params,
        profile=profile,
        observe=observe,
        wall_clock_budget=wall_clock_budget,
    )
    return ExtrapolationOutcome(
        trace=trace,
        trace_stats=compute_stats(trace),
        translated=translated,
        result=result,
    )


def measure_and_extrapolate(
    program: ProgramFactory,
    n_threads: int,
    params: SimulationParameters,
    **measure_kwargs,
) -> ExtrapolationOutcome:
    """measure + extrapolate in one call."""
    trace = measure(program, n_threads, **measure_kwargs)
    return extrapolate(trace, params)
