"""Serve observability: ``GET /v1/metrics`` exposition and the
``diagnose`` predict option."""

import http.client
import json
import os
import re
import time

import pytest

from repro.cli import main
from repro.serve import (
    METRICS_CONTENT_TYPE,
    ExtrapService,
    render_metrics,
    start_server,
)
from repro.sweep.cache import ResultCache

#: ``name{labels} value`` — the text exposition sample line grammar
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[0-9eE.+-]+|NaN|[+-]Inf)$"
)
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')


def parse_exposition(text):
    """Validate Prometheus text format 0.0.4; return {family: [samples]}."""
    assert text.endswith("\n")
    families = {}
    typed = {}
    current = None
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            current = line.split()[2]
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            assert name == current, "TYPE must follow its HELP"
            typed[name] = kind
            families.setdefault(name, [])
            continue
        m = SAMPLE_RE.match(line)
        assert m, f"bad sample line: {line!r}"
        name = m.group("name")
        family = name
        for suffix in ("_count", "_sum", "_bucket"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                family = name[: -len(suffix)]
        assert family in typed, f"sample {name} has no TYPE comment"
        if m.group("labels"):
            pairs = re.findall(
                r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"', m.group("labels")
            )
            assert pairs, f"unparseable labels: {line!r}"
            for pair in pairs:
                assert LABEL_RE.match(pair), f"bad label: {pair!r}"
        float(m.group("value"))
        families[family].append(line)
    return families, typed


@pytest.fixture(scope="module")
def trace_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-metrics-traces")
    assert main(["trace", "embar", "-n", "8", "-o", str(root / "t.jsonl")]) == 0
    return root


@pytest.fixture
def service(trace_root, tmp_path):
    svc = ExtrapService(
        trace_root=trace_root, cache=ResultCache(tmp_path / "cache")
    )
    yield svc
    svc.close(drain=False)


@pytest.fixture
def server(service):
    srv, thread = start_server(service, port=0)
    yield srv
    srv.shutdown()
    thread.join(10)
    srv.close(drain=False)


def fetch(server, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    conn.request(method, path, body=json.dumps(body) if body else None)
    resp = conn.getresponse()
    data = resp.read()
    headers = dict(resp.getheaders())
    conn.close()
    return resp.status, headers, data


# -- /v1/metrics -------------------------------------------------------------


def test_metrics_endpoint_serves_valid_exposition(server):
    """Acceptance: GET /v1/metrics parses as Prometheus text format."""
    fetch(server, "GET", "/v1/healthz")
    status, headers, data = fetch(server, "GET", "/v1/metrics")
    assert status == 200
    assert headers["Content-Type"] == METRICS_CONTENT_TYPE
    families, typed = parse_exposition(data.decode("utf-8"))
    assert typed["extrap_requests_total"] == "counter"
    assert typed["extrap_uptime_seconds"] == "gauge"
    assert typed["extrap_job_run_seconds"] == "summary"
    # Counter names follow the _total convention.
    for name, kind in typed.items():
        if kind == "counter":
            assert name.endswith("_total"), name
    assert any(
        'endpoint="healthz"' in line
        for line in families["extrap_requests_total"]
    )


def test_metrics_reflect_cache_and_request_counters(server):
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    for _ in range(2):
        status, _, _ = fetch(server, "POST", "/v1/predict", body)
        assert status == 200
    _, _, data = fetch(server, "GET", "/v1/metrics")
    text = data.decode("utf-8")
    assert 'extrap_requests_total{endpoint="predict"} 2' in text
    assert "extrap_cache_enabled 1" in text
    assert "extrap_cache_hits_total 1" in text
    assert "extrap_cache_misses_total 1" in text
    assert 'extrap_jobs{status="queued"} 0' in text


def test_metrics_count_trace_digest_memo(server, trace_root):
    then = time.time() - 60  # out of the racy window: memoisable
    os.utime(trace_root / "t.jsonl", (then, then))
    body = {"trace_path": "t.jsonl", "preset": "cm5"}
    for _ in range(3):
        status, _, _ = fetch(server, "POST", "/v1/predict", body)
        assert status == 200
    _, _, data = fetch(server, "GET", "/v1/metrics")
    families, typed = parse_exposition(data.decode("utf-8"))
    assert typed["extrap_trace_digest_hits_total"] == "counter"
    assert typed["extrap_trace_digest_misses_total"] == "counter"
    assert families["extrap_trace_digest_hits_total"] == [
        "extrap_trace_digest_hits_total 2"
    ]
    assert families["extrap_trace_digest_misses_total"] == [
        "extrap_trace_digest_misses_total 1"
    ]
    _, _, data = fetch(server, "GET", "/v1/stats")
    assert json.loads(data)["trace_digests"] == {
        "entries": 1,
        "hits": 2,
        "misses": 1,
    }


def test_metrics_render_without_cache():
    service = ExtrapService(trace_root=".")
    try:
        text = render_metrics(service.stats())
    finally:
        service.close(drain=False)
    assert "extrap_cache_enabled 0" in text
    assert "extrap_cache_hits_total" not in text
    parse_exposition(text)


def test_metrics_label_escaping():
    stats = {
        "version": 'v"1\\x\n2',
        "uptime_s": 1.0,
        "requests": {'e"p\\1': 3},
        "cache": {"enabled": False},
        "jobs": {
            "queued": 0,
            "running": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            "interrupted": 0,
            "queue_depth_limit": 4,
            "run_seconds": {},
        },
    }
    text = render_metrics(stats)
    parse_exposition(text)
    assert r'version="v\"1\\x\n2"' in text


def test_job_summary_appears_after_sweep(server, service):
    spec = {
        "name": "m",
        "preset": "cm5",
        "grid": {"network.hop_time": [0.5]},
    }
    status, _, data = fetch(
        server, "POST", "/v1/sweeps", {"spec": spec, "trace_path": "t.jsonl"}
    )
    assert status == 202
    job = json.loads(data)["job"]
    import time

    for _ in range(200):
        _, _, body = fetch(server, "GET", f"/v1/jobs/{job}")
        if json.loads(body)["status"] == "done":
            break
        time.sleep(0.05)
    _, _, data = fetch(server, "GET", "/v1/metrics")
    text = data.decode("utf-8")
    assert 'extrap_job_run_seconds_count{kind="sweep"} 1' in text
    assert 'extrap_job_run_seconds_sum{kind="sweep"}' in text


# -- predict diagnose option -------------------------------------------------


def test_predict_diagnose_attaches_findings_key(service):
    req = {"trace_path": "t.jsonl", "diagnose": True}
    out = service.predict(req)
    assert "diagnosis" in out
    assert out["diagnosis"]["schema"] == 1
    assert out["diagnosis"]["findings"] == []  # clean run stays clean
    plain = service.predict({"trace_path": "t.jsonl"})
    assert "diagnosis" not in plain


def test_predict_diagnose_caches_separately(service):
    plain = service.predict({"trace_path": "t.jsonl"})
    diagnosed = service.predict({"trace_path": "t.jsonl", "diagnose": True})
    assert plain["key"] != diagnosed["key"]
    assert plain["cached"] is False and diagnosed["cached"] is False
    # Replay of each comes from its own namespace, byte-identical body.
    again = service.predict({"trace_path": "t.jsonl", "diagnose": True})
    assert again["cached"] is True
    assert again["diagnosis"] == diagnosed["diagnosis"]
    assert again["metrics"] == diagnosed["metrics"]


def test_predict_diagnose_must_be_boolean(service):
    from repro.serve import ApiError

    with pytest.raises(ApiError) as exc:
        service.predict({"trace_path": "t.jsonl", "diagnose": "yes"})
    assert exc.value.status == 400
    assert "'diagnose'" in exc.value.message


def test_predict_diagnose_over_http(server):
    status, _, data = fetch(
        server,
        "POST",
        "/v1/predict",
        {"trace_path": "t.jsonl", "diagnose": True},
    )
    assert status == 200
    doc = json.loads(data)
    assert doc["diagnosis"]["findings"] == []
    assert doc["diagnosis"]["n_procs"] == 8
