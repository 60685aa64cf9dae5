"""Shared pieces of the repository benchmark.

Suite traces and the set-up every run performs, the in-memory span
recorder used by traced runs, the timing statistics every metric is
reported with, and the output checks that count wrong answers as
failures.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: name -> (suite benchmark, thread count).  Fixed sizes: every figure
#: the benchmark reports is tied to these traces.
SUITE: Dict[str, Tuple[str, int]] = {
    "embar-4": ("embar", 4),
    "cyclic-32": ("cyclic", 32),
    "matmul-16": ("matmul", 16),
    "mgrid-32": ("mgrid", 32),
    "sparse-32": ("sparse", 32),
}

PRESETS = ("distributed_memory", "cm5")

#: the seed the stored reference outputs were recorded with
DEFAULT_SEED = 0

#: (trace, preset) pairs the serve regime hits, primed before timing.
#: The large trace is primed under one preset only, to keep priming short.
SERVE_HIT_PAIRS = (
    ("embar-4", "distributed_memory"),
    ("embar-4", "cm5"),
    ("cyclic-32", "distributed_memory"),
    ("cyclic-32", "cm5"),
    ("mgrid-32", "distributed_memory"),
)

#: how many times one run performs its set-up (the median is reported)
SETUP_REPEATS = 3

#: a timing's tail is taken at the highest percentile that still has at
#: least this many samples beyond it
TAIL_BEYOND = 10

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


def nproc() -> int:
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # not every platform has affinity masks
        return max(1, os.cpu_count() or 1)


def pair_key(trace: str, preset: str) -> str:
    return f"{trace}/{preset}"


# -- statistics --------------------------------------------------------------


def tail(values: Sequence[float]) -> Optional[Tuple[int, float]]:
    """``(percentile, value)`` at the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it, or ``None`` when too few."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    k = n - TAIL_BEYOND - 1
    return int(100 * (k + 1) / n), ordered[k]


def describe(values: Sequence[float], scale: float = 1.0, unit: str = "") -> str:
    """One summary line: mean, median, tail and sample count."""
    if not values:
        return "n=0"
    text = (
        f"mean {statistics.mean(values) * scale:.4g}{unit}, "
        f"p50 {statistics.median(values) * scale:.4g}{unit}"
    )
    t = tail(values)
    if t is not None and t[0] > 50:
        text += f", p{t[0]} {t[1] * scale:.4g}{unit}"
    return f"{text} (n={len(values)})"


def host_probe_s() -> float:
    """Seconds one fixed pure-Python loop takes now: printed beside the
    figures, so a slow spell of a shared host can be told apart from a
    slow build."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


# -- output checks -----------------------------------------------------------


class Tally:
    """Operations attempted and failed; a wrong output is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: List[str] = []

    def record(self, ok: bool, what: str = "", *, wrong: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += int(wrong)
            if len(self.notes) < 20:
                self.notes.append(what)

    def check(self, ok: bool, what: str) -> None:
        """An output check: a mismatch is a wrong answer."""
        self.record(ok, f"wrong output: {what}", wrong=True)


def post_predict(conn: Any, body: Dict[str, Any]) -> Tuple[int, bytes]:
    """POST one ``/v1/predict`` request on an ``http.client`` connection;
    ``(status, response body)``."""
    conn.request(
        "POST",
        "/v1/predict",
        body=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    return resp.status, resp.read()


def load_reference() -> Dict[str, Any]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def strip_cached(payload: Dict[str, Any]) -> Dict[str, Any]:
    return {k: v for k, v in payload.items() if k != "cached"}


# -- span recording ----------------------------------------------------------


class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``(id, parent, name, start, end, request)``.  The parent
    is the innermost open span on the same thread; the request id is
    inherited from it unless given.  Spans are only kept in memory and
    written out by :meth:`write` when the run ends.  A disabled tracer
    records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Tuple[int, Optional[int], str, float, float, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else (None, None)
        if request is None:
            request = parent[1]
        sid = next(self._ids)
        stack.append((sid, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent[0], name, start, end, request))

    def wrap(self, obj: Any, attr: str, name: str) -> None:
        """Record a span around every call of ``obj.attr`` (instance-local
        for objects, module-global for modules; see :meth:`restore`)."""
        if not self.enabled:
            return
        original = getattr(obj, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(obj, attr, traced)

    @staticmethod
    def restore(obj: Any, attr: str) -> None:
        """Undo :meth:`wrap` on a module attribute."""
        original = getattr(getattr(obj, attr), "__wrapped__", None)
        if original is not None:
            setattr(obj, attr, original)

    def self_times(self) -> List[Tuple[str, float, float, Any]]:
        """``(name, self seconds, total seconds, request)`` per span: a
        span's self time is its duration minus its children's."""
        children: Dict[int, float] = {}
        for sid, parent, _name, start, end, _req in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + (end - start)
        return [
            (name, (end - start) - children.get(sid, 0.0), end - start, req)
            for sid, _parent, name, start, end, req in self.spans
        ]

    def by_name(self, name: str, *, total: bool = False) -> List[float]:
        """Self (or total) seconds of every span called ``name``."""
        pick = 2 if total else 1
        return [s[pick] for s in self.self_times() if s[0] == name]

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end", "request")
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of recording one span (the tracing overhead unit)."""
    probe = Tracer(True)
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


# -- set-up ------------------------------------------------------------------


@dataclass
class Setup:
    """What every run builds before measuring: the suite traces, in
    memory and on disk in the workload's format, and a serve instance
    with a fresh cache.  The serve cache is primed once, after the timed
    set-ups."""

    work: Path
    trace_dir: Path
    #: suffix of the trace files (``.jsonl`` or ``.bin``)
    suffix: str
    traces: Dict[str, Any]
    events: Dict[str, int]
    service: Any
    server: Any
    thread: Any
    #: a second service over the same cache directory, for the output
    #: checks, so they add no spans and no cache counts to the measured one
    checker: Any
    #: fresh (uncached) payloads of the primed pairs, by pair key
    primed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    setup_s: List[float] = field(default_factory=list)
    prime_s: float = 0.0

    def trace_file(self, name: str) -> str:
        """The file name of suite trace ``name`` under :attr:`trace_dir`."""
        return f"{name}{self.suffix}"

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.close()
            self.thread.join(timeout=30)
            self.server = None
            self.checker.close()


def _build_once(work: Path, suffix: str) -> Setup:
    from repro.bench.suite import get_benchmark
    from repro.core.pipeline import measure
    from repro.serve import ExtrapService, start_server
    from repro.sweep.cache import ResultCache
    from repro.trace import write_trace

    trace_dir = work / "traces"
    trace_dir.mkdir(parents=True)
    traces: Dict[str, Any] = {}
    events: Dict[str, int] = {}
    for name, (bench, n) in SUITE.items():
        trace = measure(get_benchmark(bench).make_program()(n), n, name=bench)
        write_trace(trace, trace_dir / f"{name}{suffix}")
        traces[name] = trace
        events[name] = len(trace.events)
    service = ExtrapService(trace_root=trace_dir, cache=ResultCache(work / "serve-cache"))
    server, thread = start_server(service)
    checker = ExtrapService(trace_root=trace_dir, cache=ResultCache(work / "serve-cache"))
    return Setup(work, trace_dir, suffix, traces, events, service, server, thread, checker)


def _prime(setup: Setup, reference: Dict[str, Any], tally: Tally) -> None:
    """Fill the serve cache with the pairs the serve regime hits."""
    import http.client

    conn = http.client.HTTPConnection("127.0.0.1", setup.server.port, timeout=120)
    try:
        for name, preset in SERVE_HIT_PAIRS:
            body = {"trace_path": setup.trace_file(name), "preset": preset}
            status, raw = post_predict(conn, body)
            payload = json.loads(raw)
            ref = reference["predict"][pair_key(name, preset)]
            tally.check(
                status == 200
                and payload.get("cached") is False
                and payload.get("metrics") == ref["record"]
                and payload.get("report") == ref["report"],
                f"primed serve payload {name} {preset}",
            )
            setup.primed[pair_key(name, preset)] = strip_cached(payload)
    finally:
        conn.close()


def build_setup(work: Path, reference: Dict[str, Any], tally: Tally, suffix: str) -> Setup:
    """Set up :data:`SETUP_REPEATS` times from scratch with trace files
    ending in ``suffix``, keep the last and record each one's wall time;
    then prime the serve cache once."""
    times: List[float] = []
    setup: Optional[Setup] = None
    for rep in range(SETUP_REPEATS):
        if setup is not None:
            setup.close()
            shutil.rmtree(setup.work, ignore_errors=True)
        start = time.perf_counter()
        setup = _build_once(work / f"setup{rep}", suffix)
        times.append(time.perf_counter() - start)
    assert setup is not None
    setup.setup_s = times
    for name, trace in setup.traces.items():
        tally.check(
            trace.digest() == reference["traces"][name]["digest"],
            f"trace digest {name}",
        )
    start = time.perf_counter()
    _prime(setup, reference, tally)
    setup.prime_s = time.perf_counter() - start
    return setup
