"""Performance-debugging reports.

The paper positions extrapolation inside a *performance debugging*
system: predicted performance information must support diagnosis, not
just a headline number.  This module renders an
:class:`~repro.core.pipeline.ExtrapolationOutcome` into the artefacts a
debugging session needs:

* a per-processor **breakdown table** (compute / overheads / waits);
* an ASCII **timeline** (Gantt-style) of the extrapolated execution,
  showing barrier episodes and remote-access positions per thread;
* a **bottleneck summary** naming the dominant cost and the processors
  most idle.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.pipeline import ExtrapolationOutcome, Outcome
from repro.sim.result import SimulationResult
from repro.trace.events import EventKind
from repro.trace.trace import ThreadTrace
from repro.util.tables import format_table


def breakdown_table(result: SimulationResult) -> str:
    """Per-processor time breakdown (all values in microseconds)."""
    headers = [
        "proc",
        "compute",
        "comm ovh",
        "service",
        "comm wait",
        "barr ovh",
        "barr wait",
        "end",
    ]
    return format_table(
        headers,
        result.breakdown_rows(),
        float_fmt=".1f",
        title="per-processor breakdown (us)",
    )


def timeline(
    threads: Sequence[ThreadTrace],
    *,
    width: int = 72,
    end_time: float | None = None,
) -> str:
    """ASCII Gantt of extrapolated per-thread executions.

    Per thread, one lane of ``width`` characters covering [0, end]:

    * ``=`` compute / busy span,
    * ``B`` inside a barrier (entry to exit),
    * ``r`` a remote access issue,
    * ``.`` after the thread ended.
    """
    if not threads:
        return "(no threads)"
    end = end_time or max((tt.end_time for tt in threads), default=0.0)
    if end <= 0:
        return "(empty timeline)"

    def col(t: float) -> int:
        return min(width - 1, int(t / end * width))

    lines = [f"timeline 0 .. {end:.0f} us ('=' busy, 'B' barrier, 'r' remote access)"]
    for tt in threads:
        lane = ["="] * width
        # Mark the post-END tail.
        for c in range(col(tt.end_time) + 1, width):
            lane[c] = "."
        # Barrier spans.
        entry_at = {}
        for ev in tt.events:
            if ev.kind == EventKind.BARRIER_ENTER:
                entry_at[ev.barrier_id] = ev.time
            elif ev.kind == EventKind.BARRIER_EXIT:
                start = entry_at.pop(ev.barrier_id, ev.time)
                for c in range(col(start), col(ev.time) + 1):
                    lane[c] = "B"
        # Remote accesses (drawn last so they stay visible).
        for ev in tt.events:
            if ev.kind in (EventKind.REMOTE_READ, EventKind.REMOTE_WRITE):
                lane[col(ev.time)] = "r"
        lines.append(f"  t{tt.thread:<3d} |{''.join(lane)}|")
    return "\n".join(lines)


def bottleneck_summary(result: SimulationResult) -> str:
    """Name the dominant cost category and the most idle processors."""
    total_busy = {
        "compute": result.total_compute_time(),
        "communication": result.total_comm_time(),
        "barriers": result.total_barrier_time(),
    }
    dominant = max(total_busy, key=total_busy.get)
    lines = [
        "bottleneck summary:",
        "  totals across processors: "
        + ", ".join(f"{k} {v:.0f} us" for k, v in total_busy.items()),
        f"  dominant non-idle cost: {dominant}",
    ]
    idle = sorted(
        result.processors, key=lambda p: p.idle_fraction, reverse=True
    )[:3]
    for p in idle:
        if p.idle_fraction > 0:
            lines.append(
                f"  proc {p.pid}: {p.idle_fraction:.0%} idle "
                f"(comm wait {p.comm_wait:.0f} us, "
                f"barrier wait {p.barrier_wait:.0f} us)"
            )
    if result.execution_time > 0:
        lines.append(f"  mean utilisation: {result.utilization():.1%}")
    return "\n".join(lines)


def fault_section(result: SimulationResult) -> str:
    """The injected-faults block for a result, if a fault plan ran.

    Empty string for a fault-free simulation — callers can append it
    unconditionally, like :func:`profile_section`.
    """
    if result.faults is None:
        return ""
    totals = result.fault_totals()
    fs = result.faults
    net = result.network
    lines = [
        "fault model:",
        f"  {result.params.faults.describe()}"
        if result.params.faults is not None
        else "  (plan unavailable)",
        f"  network: {net.dropped} dropped / {net.duplicated} duplicated "
        f"of {net.messages} messages, "
        f"{fs.jitter_messages} jittered (+{net.total_jitter:.0f} us total)",
        f"  protocol: {totals['timeouts']} timeouts, {totals['retries']} "
        f"retries, {totals['late_replies']} late replies, "
        f"{totals['retry_giveups']} give-ups",
    ]
    if fs.dropped_by_kind:
        by_kind = ", ".join(
            f"{kind}={count}" for kind, count in sorted(fs.dropped_by_kind.items())
        )
        lines.append(f"  drops by kind: {by_kind}")
    if fs.stragglers:
        lines.append(
            f"  stragglers: {fs.stragglers} slowed compute actions "
            f"(+{fs.straggler_extra_time:.0f} us busy time)"
        )
    if fs.barrier_delays:
        lines.append(
            f"  barrier delays: {fs.barrier_delays} late arrivals "
            f"(+{fs.barrier_delay_time:.0f} us)"
        )
    return "\n".join(lines)


def profile_section(result: SimulationResult) -> str:
    """The engine-profile block for a result, if one was collected.

    Empty string when the simulation ran without ``profile=True`` —
    callers can unconditionally append it.
    """
    if result.profile is None:
        return ""
    return result.profile.format()


def predict_summary(params, outcome: Outcome) -> str:
    """The canonical ``extrap predict`` report.

    Single source of the prediction text: the CLI prints exactly this,
    and the serve API returns it as the ``report`` field, so the two
    surfaces can never drift apart.
    """
    lines = [
        params.describe(),
        f"measured trace: {outcome.trace_stats.summary()}",
        f"ideal execution time:     {outcome.ideal_time:12.1f} us",
        f"predicted execution time: {outcome.predicted_time:12.1f} us",
        outcome.result.summary(),
    ]
    if outcome.result.faults is not None:
        lines.append(fault_section(outcome.result))
    if outcome.result.profile is not None:
        lines.append(profile_section(outcome.result))
    return "\n".join(lines)


def full_report(outcome: ExtrapolationOutcome, *, width: int = 72) -> str:
    """Everything a debugging session wants on one screen."""
    from repro.metrics.phases import phase_stats, phase_table

    res = outcome.result
    parts = [
        f"=== extrapolation report: {res.meta.program or 'program'} "
        f"on {res.n_processors} processors ({res.params.name}) ===",
        f"measured trace : {outcome.trace_stats.summary()}",
        f"ideal time     : {outcome.ideal_time:.1f} us (zero-cost environment)",
        f"predicted time : {outcome.predicted_time:.1f} us",
        "",
        breakdown_table(res),
        "",
        timeline(res.threads, width=width, end_time=res.execution_time),
        "",
        bottleneck_summary(res),
    ]
    if phase_stats(res.threads):
        parts += ["", phase_table(res.threads)]
    if res.faults is not None:
        parts += ["", fault_section(res)]
    if res.profile is not None:
        parts += ["", profile_section(res)]
    return "\n".join(parts)
