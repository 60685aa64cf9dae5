"""The repository benchmark: one seeded run of one workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload jsonl --seed 1 --seconds 40 --trace 0

Every run covers three regimes (see README.md in this directory):
``predict_full``, ``serve_mixed`` and ``sweep_sampled``, because every
run reports every metric.  A run repeats one cycle of all three, its
slices interleaved, until ``--seconds`` have passed.  The two
workloads, ``jsonl`` and ``binary``, give the suite traces to the CLI
and to the server as JSON-lines or as binary trace files.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` records spans around each layer call, writes them to
``.perfbench/spans-<workload>-<seed>.jsonl`` and prints the per-layer
metrics (self times) and the tracing overhead instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 unless the checkout cannot be benchmarked.

``--write-reference`` recomputes ``reference.json``, the stored outputs
every run checks against, from the checkout's code.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import common
import predict_phase
import serve_phase
import sweep_phase

#: workload -> suffix of the suite trace files that the CLI predictions
#: and the serve requests read.  Both workloads run the same cycle of
#: all three regimes, because every run reports every metric; they
#: differ in the trace format every read decodes, so a change to one
#: reader is exercised by one workload and bypassed by the other.  Serve
#: re-reads the trace on every hit, so the format also sets the cost of
#: a large hit.
WORKLOADS = {"jsonl": ".jsonl", "binary": ".bin"}

#: slices of the serve reference step in one cycle
SERVE_REFERENCE_SLICES = 2

#: end-to-end metric -> unit (the ``--trace 0`` result)
END_TO_END = {
    "predict_events_per_s": "1/s",
    "predict_large_mean_s": "s",
    "predict_small_p50_ms": "ms",
    "serve_max_ok_rps": "1/s",
    "sweep_points_per_s": "1/s",
    "sweep_warm_s": "s",
    "sampled_speedup": "ratio",
    "sampled_rel_error_max": "ratio",
    "sampled_bar_coverage": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: per-layer metric -> unit (the ``--trace 1`` result)
PER_LAYER = {
    "trace.read_us_per_event": "us",
    "trace.digest_us_per_event": "us",
    "translate.us_per_event": "us",
    "simulate.us_per_event": "us",
    "simulate.us_per_des_event": "us",
    "des.events_per_trace_event": "ratio",
    "metrics.render_ms": "ms",
    "cli.overhead_ms": "ms",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.hit_ratio": "ratio",
    "executor.parallel_efficiency": "ratio",
    "executor.overhead_s": "s",
    "sampling.split_ms": "ms",
    "sampling.plan_ms": "ms",
    "sampling.simulate_ms": "ms",
    "sampling.events_simulated_ratio": "ratio",
    "sampling.loss_points": "count",
    "sampling.zero_bar_points": "count",
    "serve.service_ms.hit_small": "ms",
    "serve.service_ms.hit_large": "ms",
    "serve.service_ms.miss": "ms",
    "serve.http_ms": "ms",
    "serve.conn_wait_ms": "ms",
    "serve.generator_late_ms": "ms",
    "serve.refused": "count",
    "obs.observe_overhead_ratio": "ratio",
    "diagnose.ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
}


class Run:
    """One run's state: set-up, checks, spans and each regime's samples."""

    def __init__(self, root: Path, workload: str, seed: int, traced: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tally = common.Tally()
        self.tracer = common.Tracer(traced)
        self.reference = common.load_reference()
        self.work = root / ".perfbench" / f"{workload}-{seed}-{'traced' if traced else 'plain'}"
        self.predict = predict_phase.PredictSamples()
        self.sweep = sweep_phase.SweepSamples()
        self.serve = serve_phase.ServeSamples()
        self.measured_s = 0.0
        self.cycles = 0
        self.host_probe_s: List[float] = []

    def cycle(self, number: int) -> List[Callable[[], None]]:
        """One predict round, one sweep round, the reference-step slices
        and one overload step, their slices spread evenly over the cycle
        so that a slow spell of the host does not land on one regime's
        figures."""
        args = (self.setup, self.reference, self.tally, self.tracer)
        serve_args = (self.setup, self.tally, self.tracer, self.serve, self.seed)
        streams = [
            [
                functools.partial(
                    predict_phase.run_slice, *args, self.predict, pairs, f"{number}.{i}",
                    staged=number == 0,
                )
                for i, pairs in enumerate(predict_phase.slices(self.seed, number))
            ],
            [
                functools.partial(
                    sweep_phase.run_slice, *args, self.sweep, self.seed, number, trace
                )
                for trace in sweep_phase.round_order(self.seed, number)
            ],
            [
                functools.partial(serve_phase.run_reference_slice, *serve_args)
                for _ in range(SERVE_REFERENCE_SLICES)
            ]
            + [functools.partial(serve_phase.run_overload, *serve_args)],
        ]
        keyed = [
            ((i + 0.5) / len(stream), order, piece)
            for order, stream in enumerate(streams)
            for i, piece in enumerate(stream)
        ]
        return [piece for _key, _order, piece in sorted(keyed, key=lambda k: k[:2])]

    def execute(self, seconds: float) -> None:
        """Whole cycles until ``seconds`` have passed (at least one)."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.setup = common.build_setup(
            self.work, self.reference, self.tally, WORKLOADS[self.workload]
        )
        try:
            start = time.perf_counter()
            number = 0
            while number == 0 or time.perf_counter() - start < seconds:
                for piece in self.cycle(number):
                    self.host_probe_s.append(common.host_probe_s())
                    piece()
                number += 1
            self.cycles = number
            self.measured_s = time.perf_counter() - start
        finally:
            self.setup.close()

    def end_to_end(self) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        metrics.update(predict_phase.end_to_end(self.predict))
        metrics.update(serve_phase.end_to_end(self.serve))
        metrics.update(sweep_phase.end_to_end(self.sweep))
        metrics["setup_s"] = statistics.median(self.setup.setup_s)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t = self.tally
        metrics["ok_ratio"] = (t.attempted - t.failed) / t.attempted
        return metrics

    def per_layer(self) -> Dict[str, float]:
        tracer = self.tracer
        metrics: Dict[str, float] = {}
        metrics.update(predict_phase.per_layer(tracer, self.predict))
        metrics.update(sweep_phase.per_layer(tracer, self.sweep))
        metrics.update(serve_phase.per_layer(self.serve))
        serve_cache = self.setup.service.cache
        hits = self.sweep.cache_hits + serve_cache.hits
        lookups = self.sweep.cache_lookups + serve_cache.hits + serve_cache.misses
        metrics["cache.get_ms"] = statistics.median(tracer.by_name("cache.get", total=True)) * 1e3
        metrics["cache.put_ms"] = statistics.median(tracer.by_name("cache.put", total=True)) * 1e3
        metrics["cache.hit_ratio"] = hits / lookups
        metrics["diagnose.ms"] = statistics.median(tracer.by_name("diagnose", total=True)) * 1e3
        metrics["bench.trace_overhead_ratio"] = (
            len(tracer.spans) * common.span_cost_s() / self.measured_s
        )
        return metrics

    def summary_lines(self) -> List[str]:
        lines = [
            f"workload {self.workload}, seed {self.seed}, measured {self.measured_s:.1f} s "
            f"in {self.cycles} cycle(s), "
            f"set-up {common.describe(self.setup.setup_s, 1.0, ' s')}, "
            f"serve cache primed in {self.setup.prime_s:.3f} s",
            f"host probe (fixed loop before each slice): "
            f"{common.describe(self.host_probe_s, 1e3, ' ms')}",
        ]
        lines += predict_phase.summary_lines(self.predict)
        lines += serve_phase.summary_lines(self.serve)
        lines += sweep_phase.summary_lines(self.sweep)
        t = self.tally
        lines.append(
            f"checks: {t.attempted} attempted, {t.failed} failed "
            f"({t.wrong} wrong outputs), failed_ratio {t.failed / t.attempted:.4g}"
        )
        lines += [f"  {note}" for note in t.notes]
        return lines


def result_line(run: Run, traced: bool) -> str:
    units = PER_LAYER if traced else END_TO_END
    values = run.per_layer() if traced else run.end_to_end()
    return json.dumps(
        {
            "correct": run.tally.wrong == 0,
            "attempted": run.tally.attempted,
            "failed": run.tally.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in units.items()
            },
        }
    )


def write_reference() -> None:
    """Record the outputs every later run must reproduce."""
    from repro.bench.suite import get_benchmark
    from repro.core import presets
    from repro.core.pipeline import extrapolate, measure
    from repro.metrics.report import predict_summary
    from repro.sampling import SamplingConfig, estimate_sampled
    from repro.sweep.executor import result_record

    def roundtrip(record: Dict[str, Any]) -> Dict[str, Any]:
        return json.loads(json.dumps(record))

    ref: Dict[str, Any] = {"traces": {}, "predict": {}, "sampled": {}}
    for name, (bench, n) in common.SUITE.items():
        trace = measure(get_benchmark(bench).make_program()(n), n, name=bench)
        ref["traces"][name] = {"events": len(trace.events), "digest": trace.digest()}
        for preset in common.PRESETS:
            params = presets.by_name(preset)
            key = common.pair_key(name, preset)
            outcome = extrapolate(trace, params)
            ref["predict"][key] = {
                "record": roundtrip(result_record(outcome)),
                "report": predict_summary(params, outcome),
            }
            if name in sweep_phase.TRACES:
                sampled = estimate_sampled(
                    trace, params, SamplingConfig(seed=common.DEFAULT_SEED)
                )
                ref["sampled"][key] = roundtrip(result_record(sampled))
    common.REFERENCE_PATH.write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: error: {root} is not a checkout of the repository "
            "(no src/repro); run from its root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    traced = args.trace == 1
    run = Run(root, args.workload, args.seed, traced)
    try:
        run.execute(args.seconds)
        for line in run.summary_lines():
            print(line)
        line = result_line(run, traced)
        if traced:
            spans = run.work.parent / f"spans-{args.workload}-{args.seed}.jsonl"
            run.tracer.write(spans)
            print(f"wrote {len(run.tracer.spans)} spans to {spans.relative_to(root)}")
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
