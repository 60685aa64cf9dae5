"""The ``sweep_sampled`` regime: full against sampled design sweeps.

For each trace of :data:`TRACES`, one grid over the presets
distributed_memory and cm5 is swept twice through
``repro.sweep.run_sweep``: once with full simulation and once with the
spec's ``"sample"`` field, whose seed is the workload seed.  Each sweep
runs with ``jobs = nproc`` into a cold cache, then is replayed warm
:data:`WARM_REPLAYS` times.  The executor, cache writes then reads,
and sampling do the work; HTTP does none.  Each cycle of a run makes
one such *round*, with a fresh cache, as one slice per trace.

The sampled answers are set against the full ones: the largest
relative error of ``predicted_time_us`` and the share of points whose
reported error bar covers the true error.  Both are deterministic for a
seed.

In a traced run the first round also makes every point's full and
sampled prediction in-process, with spans around the sampling stages, which
gives the serial cost of a point (for the executor's parallel
efficiency) and the split / plan / simulate self times.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from common import DEFAULT_SEED, PRESETS, Setup, Tally, Tracer, describe, nproc, pair_key

TRACES = ("cyclic-32", "matmul-16", "mgrid-32", "sparse-32")

#: each warm sweep is replayed this many times; its median counts
WARM_REPLAYS = 5


def spec_dict(trace: str, sample_seed: "int | None") -> Dict[str, Any]:
    spec: Dict[str, Any] = {
        "name": f"{trace}-{'sampled' if sample_seed is not None else 'full'}",
        "preset": PRESETS[0],
        "grid": {"preset": list(PRESETS)},
    }
    if sample_seed is not None:
        spec["sample"] = {"seed": sample_seed}
    return spec


@dataclass
class SweepSamples:
    cold_full_s: List[float] = field(default_factory=list)
    cold_full_points: int = 0
    #: per round: [cold full s, cold sampled s, warm s]
    rounds: Dict[int, List[float]] = field(default_factory=dict)
    #: (trace, preset) -> (full time, sampled time, bar error, events simulated, total)
    accuracy: Dict[Tuple[str, str], Tuple[float, float, float, int, int]] = field(
        default_factory=dict
    )
    cache_hits: int = 0
    cache_lookups: int = 0
    #: traced: serial in-process seconds of each full point, by pair
    serial_point_s: Dict[Tuple[str, str], List[float]] = field(default_factory=dict)
    traced_sampled_points: int = 0


def _check_records(
    tally: Tally,
    reference: Dict[str, Any],
    trace: str,
    full_run,
    sampled_run,
    sample_seed: int,
) -> None:
    for rec in full_run.records:
        preset = rec.point.as_dict()["preset"]
        tally.check(
            rec.ok and rec.result == reference["predict"][pair_key(trace, preset)]["record"],
            f"full sweep record {trace} {preset}",
        )
    for rec in sampled_run.records:
        preset = rec.point.as_dict()["preset"]
        ok = rec.ok and rec.result.get("estimated") is True
        if ok and sample_seed == DEFAULT_SEED:
            ok = rec.result == reference["sampled"][pair_key(trace, preset)]
        tally.check(ok, f"sampled sweep record {trace} {preset}")


def round_order(seed: int, round_no: int) -> List[str]:
    order = list(TRACES)
    random.Random(f"sweep:{seed}:{round_no}").shuffle(order)
    return order


def run_slice(
    setup: Setup,
    reference: Dict[str, Any],
    tally: Tally,
    tracer: Tracer,
    samples: SweepSamples,
    seed: int,
    round_no: int,
    trace: str,
) -> None:
    """One trace of a round: its full and sampled sweeps into the
    round's cache while it is cold, then both again, warm."""
    from repro.sweep.cache import ResultCache
    from repro.sweep.executor import run_sweep
    from repro.sweep.spec import SweepSpec

    cache = ResultCache(setup.work / f"sweep-cache-{round_no}")
    tracer.wrap(cache, "get", "cache.get")
    tracer.wrap(cache, "put", "cache.put")
    walls = samples.rounds.setdefault(round_no, [0.0, 0.0, 0.0])
    cold: Dict[str, Any] = {}
    for i, mode in enumerate(("full", "sampled")):
        spec = SweepSpec.from_dict(spec_dict(trace, seed if mode == "sampled" else None))
        start = time.perf_counter()
        with tracer.span("sweep.run", request=f"sweep:{round_no}:{trace}:{mode}:cold"):
            run = run_sweep(spec, trace=setup.traces[trace], jobs=nproc(), cache=cache)
        wall = time.perf_counter() - start
        walls[i] += wall
        if mode == "full":
            samples.cold_full_s.append(wall)
            samples.cold_full_points += len(run.records)
        tally.record(
            run.counters.failed == 0 and run.counters.cache_hits == 0,
            f"cold sweep {trace} {mode}: {run.counters.failed} failed, "
            f"{run.counters.cache_hits} cached",
        )
        cold[mode] = run
    for mode in ("full", "sampled"):
        spec = cold[mode].spec
        replays = []
        for replay in range(WARM_REPLAYS):
            start = time.perf_counter()
            with tracer.span("sweep.run", request=f"sweep:{round_no}:{trace}:{mode}:warm{replay}"):
                run = run_sweep(spec, trace=setup.traces[trace], jobs=nproc(), cache=cache)
            replays.append(time.perf_counter() - start)
            tally.check(
                run.counters.executed == 0 and run.to_json() == cold[mode].to_json(),
                f"warm sweep artifact {trace} {mode} equals the cold one",
            )
        walls[2] += statistics.median(replays)
    samples.cache_hits += cache.hits
    samples.cache_lookups += cache.hits + cache.misses
    full, sampled = cold["full"], cold["sampled"]
    _check_records(tally, reference, trace, full, sampled, seed)
    full_recs = {r.point.as_dict()["preset"]: r.result for r in full.records}
    for rec in sampled.records:
        preset = rec.point.as_dict()["preset"]
        info = rec.result["sampling"]
        samples.accuracy[trace, preset] = (
            full_recs[preset]["predicted_time_us"],
            rec.result["predicted_time_us"],
            info["error_bars"]["predicted_time_us"]["error"],
            info["events_simulated"],
            info["events_total"],
        )
    if tracer.enabled and round_no == 0:
        _traced_points(setup, tracer, samples, seed, trace, round_no)


def _traced_points(
    setup: Setup,
    tracer: Tracer,
    samples: SweepSamples,
    seed: int,
    trace: str,
    round_no: int,
) -> None:
    """The trace's points again, in-process: full, then sampled with
    spans around the sampling stages."""
    import repro.sampling.estimate as estimate_mod
    from repro.core import presets
    from repro.core.pipeline import extrapolate
    from repro.sampling import SamplingConfig

    config = SamplingConfig(seed=seed)
    patched = (
        ("split_trace", "sampling.split"),
        ("build_plan", "sampling.plan"),
        ("extrapolate", "sampling.simulate"),
    )
    for attr, name in patched:
        tracer.wrap(estimate_mod, attr, name)
    try:
        for preset in PRESETS:
            params = presets.by_name(preset)
            request = f"point:{round_no}:{trace}:{preset}"
            start = time.perf_counter()
            with tracer.span("sweep.point.full", request=request):
                extrapolate(setup.traces[trace], params)
            samples.serial_point_s.setdefault((trace, preset), []).append(
                time.perf_counter() - start
            )
            with tracer.span("sweep.point.sampled", request=request):
                estimate_mod.estimate_sampled(setup.traces[trace], params, config)
            samples.traced_sampled_points += 1
    finally:
        for attr, _name in patched:
            Tracer.restore(estimate_mod, attr)


def _accuracy(samples: SweepSamples) -> Tuple[float, float, int, int, float]:
    """(max relative error, bar coverage, loss points, zero-bar points,
    worst events-simulated ratio)"""
    errors, covered, loss, zero_bar, ratios = [], 0, 0, 0, []
    for full, sampled, bar, simulated, total in samples.accuracy.values():
        err = abs(sampled - full)
        errors.append(err / full)
        covered += err <= bar
        loss += simulated >= total
        zero_bar += bar == 0.0 and err > 0.0
        ratios.append(simulated / total)
    return max(errors), covered / len(errors), loss, zero_bar, max(ratios)


def end_to_end(samples: SweepSamples) -> Dict[str, float]:
    err_max, coverage, _loss, _zero, _ratio = _accuracy(samples)
    return {
        "sweep_points_per_s": samples.cold_full_points / sum(samples.cold_full_s),
        "sweep_warm_s": statistics.mean(r[2] for r in samples.rounds.values()),
        "sampled_speedup": sum(r[0] for r in samples.rounds.values())
        / sum(r[1] for r in samples.rounds.values()),
        "sampled_rel_error_max": err_max,
        "sampled_bar_coverage": coverage,
    }


def summary_lines(samples: SweepSamples) -> List[str]:
    lines = [
        f"sweep_sampled: {len(samples.rounds)} round(s) at jobs={nproc()}",
        f"  cold full sweep: {describe(samples.cold_full_s, 1.0, ' s')}",
        f"  per round cold full / cold sampled / warm s: "
        + "; ".join(f"{a:.3f} / {b:.3f} / {c:.3f}" for a, b, c in samples.rounds.values()),
    ]
    for (trace, preset), (full, sampled, bar, sim, total) in sorted(samples.accuracy.items()):
        lines.append(
            f"  sampled {trace} {preset}: error {(sampled - full) / full:+.4f}, "
            f"bar +/-{bar / full:.4f}, events simulated {sim}/{total}"
        )
    return lines


def per_layer(tracer: Tracer, samples: SweepSamples) -> Dict[str, float]:
    _err, _cov, loss, zero_bar, ratio = _accuracy(samples)
    jobs = nproc()
    serial = sum(t for times in samples.serial_point_s.values() for t in times)
    # the serial cost is known for the first round's points only
    cold_full = sum(samples.cold_full_s[: len(TRACES)])
    points = samples.traced_sampled_points
    return {
        "executor.parallel_efficiency": serial / (jobs * cold_full),
        "executor.overhead_s": (cold_full - serial / jobs) / len(TRACES),
        "sampling.split_ms": sum(tracer.by_name("sampling.split")) / points * 1e3,
        "sampling.plan_ms": sum(tracer.by_name("sampling.plan")) / points * 1e3,
        "sampling.simulate_ms": sum(tracer.by_name("sampling.simulate"))
        / points
        * 1e3,
        "sampling.events_simulated_ratio": ratio,
        "sampling.loss_points": loss,
        "sampling.zero_bar_points": zero_bar,
    }
