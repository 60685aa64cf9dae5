"""The ``serve_mixed`` regime: open-loop HTTP traffic against serve.

Requests arrive on a seeded Poisson schedule (a fixed count per step,
placed uniformly at random, which is a Poisson process conditioned on
its count) and go over at most ``nproc`` keep-alive connections to the
in-process ``ExtrapServer`` built at set-up, whose fresh
``ResultCache`` holds the primed hit pairs.  The generator and its
connections run in a process of their own (``loadgen.py``), as a
server's clients do.

The offered rate steps through a fixed ladder of two steps.  The
*reference step* at :data:`REFERENCE_RPS` is where the latencies and
the tail are read; it is run as slices spread over the run.  The
*overload step* offers :data:`OVERLOAD_RPS`, more than the parent
commit sustains, so requests queue for the connections; the OK
responses it delivers per second are the server's capacity.

The mix (:data:`BLOCK`):

* hits on a small, a medium and a large trace — HTTP, trace digest and
  cache reads with almost no simulation;
* misses on the small and medium traces with a first-seen
  ``network.hop_time`` override, which simulate and write the cache;
* a share of those misses with ``"diagnose": true``.

Each request is timed from its due time, so a stall also delays the
requests queued behind it.  A refused or failed request counts as
failed and as missing the latency limit.
"""

from __future__ import annotations

import http.client
import json
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from common import (
    HERE,
    SERVE_HIT_PAIRS,
    Setup,
    Tally,
    Tracer,
    describe,
    nproc,
    pair_key,
    post_predict,
    strip_cached,
    tail,
)

LOADGEN = HERE / "loadgen.py"

#: offered rate of the reference step, requests per second.  Once
#: requests queue for a connection, its responses stall in the HTTP
#: layer, which queues more requests; from about 4 req/s on, and sooner
#: when the host is slow, some runs tip into that mode and others not.
REFERENCE_RPS = 3.0
#: length of one slice of the reference step (one block at REFERENCE_RPS)
REFERENCE_SLICE_S = 6.0
#: the overload step: its rate, far above what the parent commit
#: sustains (13-18 req/s of this mix on a 2-core host), and how many
#: blocks it offers
OVERLOAD_RPS = 60.0
OVERLOAD_BLOCKS = 2
#: the latency limit on the reference step's tail; a refused or failed
#: request counts as missing it
LATENCY_LIMIT_MS = 800.0

#: the reference step's tail percentile: the highest with at least ten
#: of a two-cycle run's 72 reference requests beyond it, fixed so that a
#: run with more cycles reads the same percentile
TAIL_PERCENTILE = 85

#: one block of the request mix as (class, trace, preset); every step is
#: made of whole blocks, each shuffled by the seed, so the class counts of
#: a step are fixed and only the order and the arrival times vary.  Hits
#: draw their preset from the primed pairs.  Misses are on the small
#: and medium traces only, so each simulates in well under a second.
#: The heavy requests (large hits, medium misses) keep the server busy
#: for about a sixth of the step: a small hit that arrives while one
#: runs waits for the interpreter lock, and a busier mix makes that the
#: common case on a slow host, where the small hits' median then jumps.
#: The large hits are the slowest fifth of the block, so the tail
#: percentile falls inside their group.
BLOCK = (
    ("hit_small", "embar-4", None),
    ("hit_small", "embar-4", None),
    ("hit_small", "embar-4", None),
    ("hit_small", "embar-4", None),
    ("hit_small", "embar-4", None),
    ("hit_small", "embar-4", None),
    ("hit_small", "embar-4", None),
    ("hit_small", "embar-4", None),
    ("hit_medium", "cyclic-32", None),
    ("hit_medium", "cyclic-32", None),
    ("hit_large", "mgrid-32", None),
    ("hit_large", "mgrid-32", None),
    ("hit_large", "mgrid-32", None),
    ("hit_large", "mgrid-32", None),
    ("miss", "embar-4", "distributed_memory"),
    ("miss", "embar-4", "cm5"),
    ("miss", "cyclic-32", "distributed_memory"),
    ("miss_diagnose", "cyclic-32", "cm5"),
)
KINDS = ("hit_small", "hit_medium", "hit_large", "miss", "miss_diagnose")
MISS_KINDS = ("miss", "miss_diagnose")

#: back-to-back small hits on one keep-alive connection, for the HTTP
#: layer's own cost (traced runs only)
KEEPALIVE_PROBE = 12


@dataclass
class Request:
    kind: str
    trace: str
    preset: str
    body: Dict[str, Any]
    due: float = 0.0
    put: float = 0.0
    taken: float = 0.0
    done: float = 0.0
    status: int = 0
    raw: str = ""
    request_id: str = ""
    #: answered with a correct output
    ok: bool = False

    @property
    def latency_s(self) -> float:
        """Seconds from due time to answer; a failed request counts as
        missing the latency limit."""
        latency = self.done - self.due
        return latency if self.ok else max(latency, LATENCY_LIMIT_MS / 1e3)


@dataclass
class StepResult:
    rate: float
    requests: List[Request]
    tail_ms: float

    @property
    def ok_per_s(self) -> float:
        """OK responses per second, from the first due time to the last
        answer."""
        first = min(r.due for r in self.requests)
        last = max(r.done for r in self.requests)
        return sum(r.ok for r in self.requests) / (last - first)


@dataclass
class ServeSamples:
    reference: List[StepResult] = field(default_factory=list)
    overload: List[StepResult] = field(default_factory=list)
    #: override values already sent, so every miss is a first-seen one
    used: set = field(default_factory=set)
    #: traced: request id -> service seconds
    service_s: Dict[str, float] = field(default_factory=dict)
    #: traced: client latency minus service time of back-to-back hits
    keepalive_http_s: List[float] = field(default_factory=list)
    refused: int = 0

    def reference_requests(self) -> List[Request]:
        return [r for step in self.reference for r in step.requests]


def _draw(
    rng: random.Random, rate: float, blocks: int, used: set, suffix: str
) -> List[Request]:
    """``blocks`` whole blocks offered at exactly ``rate``, asking for
    trace files ending in ``suffix``."""
    span = blocks * len(BLOCK) / rate
    offsets = sorted(rng.uniform(0.0, span) for _ in range(blocks * len(BLOCK)))
    mix: List[Tuple[str, str, Optional[str]]] = []
    for _ in range(blocks):
        block = list(BLOCK)
        rng.shuffle(block)
        mix.extend(block)
    out = []
    for offset, (kind, trace, preset) in zip(offsets, mix):
        body: Dict[str, Any] = {"trace_path": f"{trace}{suffix}"}
        if kind in MISS_KINDS:
            value = round(rng.uniform(0.05, 5.0), 9)
            while value in used:
                value = round(rng.uniform(0.05, 5.0), 9)
            used.add(value)
            body["overrides"] = {"network.hop_time": value}
            body["diagnose"] = kind == "miss_diagnose"
        else:
            preset = rng.choice([p for t, p in SERVE_HIT_PAIRS if t == trace])
        body["preset"] = preset
        out.append(Request(kind, trace, preset, body, due=offset))
    return out


def _check(req: Request, setup: Setup, tally: Tally) -> bool:
    """Output checks for one answered request; True when it succeeded."""
    if req.status != 200:
        tally.record(False, f"{req.kind} {req.trace}: HTTP {req.status} {req.raw[:200]!r}")
        return False
    payload = json.loads(req.raw)
    if req.kind in MISS_KINDS:
        ok = payload.get("cached") is False and (
            req.kind == "miss" or "diagnosis" in payload
        )
        if ok:
            replay = setup.checker.predict(req.body)
            ok = replay.get("cached") is True and strip_cached(replay) == strip_cached(payload)
        tally.check(ok, f"{req.kind} {req.trace} {req.preset}: cached replay equals fresh")
        return ok
    fresh = setup.primed[pair_key(req.trace, req.preset)]
    ok = payload.get("cached") is True and strip_cached(payload) == fresh
    tally.check(ok, f"{req.kind} {req.trace} {req.preset}: hit equals fresh payload")
    return ok


def _run_step(
    setup: Setup, tally: Tally, samples: ServeSamples, requests: List[Request], rate: float
) -> StepResult:
    """Offer ``requests`` through the load generator process; times are
    seconds from the step's start."""
    job = {
        "port": setup.server.port,
        "connections": nproc(),
        "requests": [[req.due, req.body] for req in requests],
    }
    proc = subprocess.run(
        [sys.executable, str(LOADGEN)],
        input=json.dumps(job),
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    for req, answer in zip(requests, json.loads(proc.stdout)):
        req.put, req.taken, req.done, req.status, req.raw, req.request_id = answer
        req.ok = _check(req, setup, tally)
    samples.refused += sum(r.status in (429, 503) for r in requests)
    t = tail([r.latency_s for r in requests])
    tail_s = t[1] if t is not None else max(r.latency_s for r in requests)
    return StepResult(rate, requests, tail_s * 1e3)


class _Instrumented:
    """Spans around the service and cache instances' methods while the
    block runs (traced runs only).  A predict span carries the client's
    request id, known on the server side from the connection's port."""

    def __init__(self, setup: Setup, tracer: Tracer, samples: ServeSamples):
        self.setup, self.tracer, self.samples = setup, tracer, samples

    def __enter__(self) -> None:
        if not self.tracer.enabled:
            return
        import repro.diagnose

        setup, tracer, samples = self.setup, self.tracer, self.samples
        local = threading.local()
        finish = setup.server.finish_request
        predict = setup.service.predict

        def finish_request(request, client_address):
            local.port, local.seq = client_address[1], 0
            return finish(request, client_address)

        def traced_predict(body):
            request_id = f"{local.port}:{local.seq}"
            local.seq += 1
            start = time.perf_counter()
            try:
                with tracer.span("serve.predict", request=request_id):
                    return predict(body)
            finally:
                samples.service_s[request_id] = time.perf_counter() - start

        setup.server.finish_request = finish_request
        setup.service.predict = traced_predict
        tracer.wrap(setup.service, "_load_trace", "serve.load_trace")
        tracer.wrap(setup.service.cache, "get", "cache.get")
        tracer.wrap(setup.service.cache, "put", "cache.put")
        tracer.wrap(repro.diagnose, "diagnose", "diagnose")

    def __exit__(self, *exc) -> None:
        if not self.tracer.enabled:
            return
        import repro.diagnose

        # the wrappers are instance attributes; dropping them uncovers
        # the class methods again
        del self.setup.server.finish_request
        del self.setup.service.predict, self.setup.service._load_trace
        del self.setup.service.cache.get, self.setup.service.cache.put
        Tracer.restore(repro.diagnose, "diagnose")


def run_reference_slice(
    setup: Setup, tally: Tally, tracer: Tracer, samples: ServeSamples, seed: int
) -> None:
    """One slice of the reference step."""
    index = len(samples.reference)
    rng = random.Random(f"serve:{seed}:reference:{index}")
    blocks = max(1, round(REFERENCE_RPS * REFERENCE_SLICE_S / len(BLOCK)))
    requests = _draw(rng, REFERENCE_RPS, blocks, samples.used, setup.suffix)
    with _Instrumented(setup, tracer, samples):
        with tracer.span("serve.step", request=f"serve:reference:{index}"):
            samples.reference.append(_run_step(setup, tally, samples, requests, REFERENCE_RPS))


def _keepalive_probe(setup: Setup, tally: Tally, samples: ServeSamples) -> None:
    """Small hits sent back to back on one keep-alive connection."""
    trace, preset = SERVE_HIT_PAIRS[0]
    conn = http.client.HTTPConnection("127.0.0.1", setup.server.port, timeout=120)
    body = {"trace_path": setup.trace_file(trace), "preset": preset}
    try:
        for seq in range(KEEPALIVE_PROBE):
            start = time.perf_counter()
            status, raw = post_predict(conn, body)
            wall = time.perf_counter() - start
            tally.check(
                status == 200
                and strip_cached(json.loads(raw)) == setup.primed[pair_key(trace, preset)],
                "keep-alive probe hit equals fresh payload",
            )
            request_id = f"{conn.sock.getsockname()[1]}:{seq}"
            samples.keepalive_http_s.append(wall - samples.service_s[request_id])
    finally:
        conn.close()


def run_overload(
    setup: Setup,
    tally: Tally,
    tracer: Tracer,
    samples: ServeSamples,
    seed: int,
) -> None:
    """One overload step; a traced run then probes the keep-alive path."""
    index = len(samples.overload)
    rng = random.Random(f"serve:{seed}:overload:{index}")
    requests = _draw(rng, OVERLOAD_RPS, OVERLOAD_BLOCKS, samples.used, setup.suffix)
    with _Instrumented(setup, tracer, samples):
        with tracer.span("serve.step", request=f"serve:overload:{index}"):
            samples.overload.append(_run_step(setup, tally, samples, requests, OVERLOAD_RPS))
        if tracer.enabled and index == 0:
            _keepalive_probe(setup, tally, samples)


def _reference_tail_s(samples: ServeSamples) -> float:
    latencies = [r.latency_s for r in samples.reference_requests()]
    return statistics.quantiles(latencies, n=100, method="inclusive")[TAIL_PERCENTILE - 1]


def end_to_end(samples: ServeSamples) -> Dict[str, float]:
    """The capacity.  The reference step's latencies are printed by
    :func:`summary_lines` only: on a shared 2-core host their spread
    from run to run reached 0.3-1.0 of their median, beyond any bound
    they could carry."""
    return {
        "serve_max_ok_rps": statistics.mean(step.ok_per_s for step in samples.overload),
    }


def summary_lines(samples: ServeSamples) -> List[str]:
    ref = samples.reference_requests()
    tail_ms = _reference_tail_s(samples) * 1e3
    lines = [
        f"serve_mixed: {nproc()} keep-alive connection(s); reference step "
        f"{REFERENCE_RPS:g} req/s in {len(samples.reference)} slice(s), "
        f"p{TAIL_PERCENTILE} {tail_ms:.1f} ms (n={len(ref)}), "
        f"{'within' if tail_ms <= LATENCY_LIMIT_MS else 'OVER'} the {LATENCY_LIMIT_MS:g} ms limit",
    ]
    for kind in KINDS:
        values = [r.latency_s for r in ref if r.kind == kind]
        lines.append(f"  reference step {kind}: {describe(values, 1e3, ' ms')}")
    misses = [r.latency_s for r in ref if r.kind in MISS_KINDS]
    lines.append(f"  reference step every miss: {describe(misses, 1e3, ' ms')}")
    for i, step in enumerate(samples.overload):
        lines.append(
            f"  overload step {i}: {step.rate:g} req/s offered, {step.ok_per_s:.2f} OK "
            f"responses/s, tail {step.tail_ms:.0f} ms, n={len(step.requests)}"
        )
    if samples.keepalive_http_s:
        lines.append(
            f"  keep-alive small hits, client minus service time: "
            f"{describe(samples.keepalive_http_s, 1e3, ' ms')}"
        )
    return lines


def per_layer(samples: ServeSamples) -> Dict[str, float]:
    ref = [r for r in samples.reference_requests() if r.request_id in samples.service_s]

    def service_ms(kinds) -> float:
        return (
            statistics.median(samples.service_s[r.request_id] for r in ref if r.kind in kinds)
            * 1e3
        )

    every = samples.reference_requests() + [
        r for step in samples.overload for r in step.requests
    ]
    late = [r.put - r.due for r in every]
    t = tail(late)
    return {
        "serve.service_ms.hit_small": service_ms(("hit_small",)),
        "serve.service_ms.hit_large": service_ms(("hit_large",)),
        "serve.service_ms.miss": service_ms(MISS_KINDS),
        "serve.http_ms": statistics.median(samples.keepalive_http_s) * 1e3,
        "serve.conn_wait_ms": statistics.mean(r.taken - r.put for r in ref) * 1e3,
        "serve.generator_late_ms": (t[1] if t else max(late)) * 1e3,
        "serve.refused": samples.refused,
    }
