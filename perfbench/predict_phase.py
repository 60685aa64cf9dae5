"""The ``predict_full`` regime: a closed loop of cold CLI predictions.

One client calls ``extrap predict <file> --preset <p>`` in-process
(``repro.cli.main``), waits for it, and sends the next request.  Nothing
is cached, so reading, translating and simulating the trace do almost
all the work; cache, HTTP and sampling do none.

Each cycle of a run makes one *round*: every (trace, preset) pair of
:data:`TRACES` once, with the small trace repeated :data:`SMALL_REPEAT`
times so its median has enough samples, in an order drawn from the seed.
A round runs as :data:`SLICES_PER_ROUND` slices spread over the cycle.

In a traced run each request of the first round is followed by the same
prediction made stage by stage, with a span around each layer call, so
the per-layer self times can be set against the untraced CLI wall time.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from common import PRESETS, Setup, Tally, Tracer, describe, pair_key

#: trace -> size class
TRACES = {
    "embar-4": "small",
    "cyclic-32": "medium",
    "mgrid-32": "large",
    "sparse-32": "large",
}
SMALL_REPEAT = 16
SLICES_PER_ROUND = 3

#: the pair whose simulation is repeated with the timeline recorder on,
#: for the cost of observing (and the diagnosis that reads the timeline)
OBSERVE_PAIR = ("cyclic-32", "cm5")

#: stage spans that ``extrap predict`` itself performs (the digest is
#: traced for the serve path's sake but is not part of the CLI call)
CLI_STAGES = (
    "trace.read",
    "translate",
    "simulate",
    "metrics.stats",
    "metrics.record",
    "metrics.render",
)


@dataclass
class PredictSamples:
    wall_s: Dict[str, List[float]] = field(
        default_factory=lambda: {"small": [], "medium": [], "large": []}
    )
    events: int = 0
    total_wall_s: float = 0.0
    #: per request: (request id, trace, CLI wall seconds)
    requests: List[Tuple[str, str, float]] = field(default_factory=list)
    des_events: int = 0
    traced_events: int = 0
    observe_ratio: List[float] = field(default_factory=list)


def round_order(seed: int, round_no: int) -> List[Tuple[str, str]]:
    pairs = []
    for trace, size in TRACES.items():
        for preset in PRESETS:
            pairs.extend([(trace, preset)] * (SMALL_REPEAT if size == "small" else 1))
    random.Random(f"predict:{seed}:{round_no}").shuffle(pairs)
    return pairs


def _cli_predict(path: str, preset: str) -> Tuple[int, str, float]:
    from repro.cli import main

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["predict", path, "--preset", preset])
    return code, out.getvalue(), time.perf_counter() - start


def _staged_predict(
    tracer: Tracer, path: str, preset: str, request: str
) -> Tuple[Dict[str, Any], str, int, int]:
    """The CLI's prediction, one span per layer call."""
    from repro.core import presets
    from repro.core.pipeline import ExtrapolationOutcome
    from repro.core.translation import translate
    from repro.metrics.report import predict_summary
    from repro.sim.simulator import Simulator
    from repro.sweep.executor import result_record
    from repro.trace import read_trace
    from repro.trace.stats import compute_stats

    with tracer.span("predict", request=request):
        with tracer.span("trace.read"):
            trace = read_trace(path)
        with tracer.span("trace.digest"):
            trace.digest()
        params = presets.by_name(preset)
        with tracer.span("translate"):
            translated = translate(trace)
        with tracer.span("simulate"):
            sim = Simulator(translated, params)
            result = sim.run()
        with tracer.span("metrics.stats"):
            stats = compute_stats(trace)
        outcome = ExtrapolationOutcome(trace, stats, translated, result)
        with tracer.span("metrics.record"):
            record = result_record(outcome)
        with tracer.span("metrics.render"):
            report = predict_summary(params, outcome)
    return record, report, len(trace.events), sim.env.processed_event_count


def _observe_cost(tracer: Tracer, setup: Setup, samples: PredictSamples, label: str) -> None:
    """Simulate one pair with and without the timeline recorder, then
    diagnose the recorded timeline."""
    from repro.core import presets
    from repro.core.translation import translate
    from repro.diagnose import diagnose
    from repro.sim.simulator import Simulator

    trace_name, preset = OBSERVE_PAIR
    translated = translate(setup.traces[trace_name])
    params = presets.by_name(preset)
    start = time.perf_counter()
    Simulator(translated, params).run()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    result = Simulator(translated, params, observe=True).run()
    observed = time.perf_counter() - start
    samples.observe_ratio.append(observed / plain)
    with tracer.span("diagnose", request=f"observe:{label}"):
        diagnose(result.timeline)


def run_slice(
    setup: Setup,
    reference: Dict[str, Any],
    tally: Tally,
    tracer: Tracer,
    samples: PredictSamples,
    pairs: List[Tuple[str, str]],
    label: str,
    *,
    staged: bool = True,
) -> None:
    """Predict each (trace, preset) pair once, in order; when tracing and
    ``staged``, follow each with the stage-by-stage prediction."""
    for i, (trace, preset) in enumerate(pairs):
        path = str(setup.trace_dir / setup.trace_file(trace))
        ref = reference["predict"][pair_key(trace, preset)]
        code, stdout, wall = _cli_predict(path, preset)
        tally.check(
            code == 0 and stdout == ref["report"] + "\n",
            f"extrap predict report {trace} {preset}",
        )
        samples.wall_s[TRACES[trace]].append(wall)
        samples.events += setup.events[trace]
        samples.total_wall_s += wall
        request = f"predict:{label}:{i}"
        samples.requests.append((request, trace, wall))
        if tracer.enabled and staged:
            record, report, n_events, des = _staged_predict(tracer, path, preset, request)
            tally.check(
                record == ref["record"] and report == ref["report"],
                f"staged prediction {trace} {preset}",
            )
            samples.traced_events += n_events
            samples.des_events += des
    if tracer.enabled and staged:
        _observe_cost(tracer, setup, samples, label)


def slices(seed: int, round_no: int) -> List[List[Tuple[str, str]]]:
    """One round split into :data:`SLICES_PER_ROUND` slices."""
    pairs = round_order(seed, round_no)
    size = -(-len(pairs) // SLICES_PER_ROUND)
    return [pairs[i : i + size] for i in range(0, len(pairs), size)]


def end_to_end(samples: PredictSamples) -> Dict[str, float]:
    return {
        "predict_events_per_s": samples.events / samples.total_wall_s,
        # a mean: with eight large predictions a run, the median jumps
        # between a shared host's fast and slow spells
        "predict_large_mean_s": statistics.mean(samples.wall_s["large"]),
        "predict_small_p50_ms": statistics.median(samples.wall_s["small"]) * 1e3,
    }


def summary_lines(samples: PredictSamples) -> List[str]:
    lines = [
        f"predict_full: {len(samples.requests)} request(s), {samples.events} trace events"
    ]
    for size, values in samples.wall_s.items():
        lines.append(f"  cli predict {size}: {describe(values, 1e3, ' ms')}")
    return lines


def per_layer(tracer: Tracer, samples: PredictSamples) -> Dict[str, float]:
    events = samples.traced_events

    def us_per_event(name: str) -> float:
        return sum(tracer.by_name(name)) / events * 1e6

    simulate_s = sum(tracer.by_name("simulate"))
    stage_self: Dict[str, float] = {}
    for name, self_s, _total, request in tracer.self_times():
        if name in CLI_STAGES or name == "predict":
            stage_self[request] = stage_self.get(request, 0.0) + self_s
    overhead = [
        wall - stage_self[req] for req, _trace, wall in samples.requests if req in stage_self
    ]
    return {
        "trace.read_us_per_event": us_per_event("trace.read"),
        "trace.digest_us_per_event": us_per_event("trace.digest"),
        "translate.us_per_event": us_per_event("translate"),
        "simulate.us_per_event": simulate_s / events * 1e6,
        "simulate.us_per_des_event": simulate_s / samples.des_events * 1e6,
        "des.events_per_trace_event": samples.des_events / events,
        "metrics.render_ms": statistics.mean(tracer.by_name("metrics.render")) * 1e3,
        "cli.overhead_ms": statistics.median(overhead) * 1e3,
        "obs.observe_overhead_ratio": statistics.median(samples.observe_ratio),
    }
