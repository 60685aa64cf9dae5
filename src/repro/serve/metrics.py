"""Prometheus text exposition for the serve API (stdlib only).

:func:`render_metrics` projects :meth:`ExtrapService.stats` — the same
numbers ``GET /v1/stats`` reports as JSON — into the Prometheus text
exposition format (version 0.0.4), served at ``GET /v1/metrics``:

* ``# HELP``/``# TYPE`` comment pair per metric family;
* one ``name{label="value"} number`` sample per line;
* counters end in ``_total``, latencies use the summary
  ``_count``/``_sum`` convention.

No client library: the format is a dozen lines of string assembly, and
pulling one in for this would be the only third-party dependency in the
repo.  Label values are escaped per the spec (backslash, double quote,
newline); metric families render in a fixed order so two scrapes of an
idle server differ only in the uptime gauge.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.serve.jobs import STATUSES

#: content type for the text exposition format
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _fmt(value: Any) -> str:
    """A number in exposition syntax (integers stay integral)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _sample(name: str, labels: Mapping[str, Any], value: Any) -> str:
    if not labels:
        return f"{name} {_fmt(value)}"
    inner = ",".join(
        f'{k}="{_escape_label(v)}"' for k, v in labels.items()
    )
    return f"{name}{{{inner}}} {_fmt(value)}"


def render_metrics(stats: Dict[str, Any]) -> str:
    """The ``/v1/metrics`` body for one :meth:`ExtrapService.stats` snapshot."""
    lines: List[str] = []

    def family(name: str, kind: str, help_: str, samples: List[str]) -> None:
        lines.append(f"# HELP {name} {help_}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(samples)

    family(
        "extrap_build_info",
        "gauge",
        "Build information (value is always 1).",
        [_sample("extrap_build_info", {"version": stats["version"]}, 1)],
    )
    family(
        "extrap_uptime_seconds",
        "gauge",
        "Seconds since the service started.",
        [_sample("extrap_uptime_seconds", {}, stats["uptime_s"])],
    )
    requests: Mapping[str, int] = stats["requests"]
    family(
        "extrap_requests_total",
        "counter",
        "Requests handled, by endpoint (errors count under endpoint=\"error\").",
        [
            _sample("extrap_requests_total", {"endpoint": ep}, n)
            for ep, n in sorted(requests.items())
        ],
    )
    cache = stats["cache"]
    family(
        "extrap_cache_enabled",
        "gauge",
        "Whether predict memoization is enabled.",
        [_sample("extrap_cache_enabled", {}, cache["enabled"])],
    )
    if cache["enabled"]:
        family(
            "extrap_cache_hits_total",
            "counter",
            "Predict/sweep results answered from the result cache.",
            [_sample("extrap_cache_hits_total", {}, cache["hits"])],
        )
        family(
            "extrap_cache_misses_total",
            "counter",
            "Predict/sweep results that had to simulate.",
            [_sample("extrap_cache_misses_total", {}, cache["misses"])],
        )
    digests: Mapping[str, int] = stats.get(
        "trace_digests", {"hits": 0, "misses": 0}
    )
    family(
        "extrap_trace_digest_hits_total",
        "counter",
        "Path predicts whose trace digest came from the file-identity memo.",
        [_sample("extrap_trace_digest_hits_total", {}, digests["hits"])],
    )
    family(
        "extrap_trace_digest_misses_total",
        "counter",
        "Path predicts that had to read the trace file to digest it.",
        [_sample("extrap_trace_digest_misses_total", {}, digests["misses"])],
    )
    jobs = stats["jobs"]
    family(
        "extrap_jobs",
        "gauge",
        "Jobs by lifecycle state.",
        [
            _sample("extrap_jobs", {"status": status}, jobs[status])
            for status in STATUSES
        ],
    )
    family(
        "extrap_job_queue_depth_limit",
        "gauge",
        "Queued-job limit before submissions are shed with 503.",
        [_sample("extrap_job_queue_depth_limit", {}, jobs["queue_depth_limit"])],
    )
    # Admission control: always rendered (zero when the limiter is off)
    # so dashboards can alert on the counters existing at 0 vs moving.
    admission: Mapping[str, Any] = stats.get(
        "admission", {"rate_limited_total": 0, "shed_total": 0}
    )
    family(
        "serve_rate_limited_total",
        "counter",
        "Requests rejected by the per-client rate limit.",
        [
            _sample(
                "serve_rate_limited_total",
                {"code": "429"},
                admission.get("rate_limited_total", 0),
            )
        ],
    )
    family(
        "serve_shed_total",
        "counter",
        "Job submissions shed because the queue was saturated or draining.",
        [
            _sample(
                "serve_shed_total", {"code": "503"}, admission.get("shed_total", 0)
            )
        ],
    )
    journal: Mapping[str, Any] = stats.get("journal", {"enabled": False})
    family(
        "extrap_journal_enabled",
        "gauge",
        "Whether crash-safe job journaling (--state-dir) is enabled.",
        [_sample("extrap_journal_enabled", {}, journal.get("enabled", False))],
    )
    if journal.get("enabled"):
        family(
            "serve_jobs_recovered_total",
            "counter",
            "Jobs re-enqueued from the journal at the last startup.",
            [
                _sample(
                    "serve_jobs_recovered_total",
                    {},
                    journal.get("recovered_total", 0),
                )
            ],
        )
        family(
            "extrap_journal_entries",
            "gauge",
            "Records in the job journal since the last compaction.",
            [_sample("extrap_journal_entries", {}, journal.get("entries", 0))],
        )
        family(
            "extrap_journal_bytes",
            "gauge",
            "Size of the job journal on disk.",
            [_sample("extrap_journal_bytes", {}, journal.get("bytes", 0))],
        )
        last = journal.get("last_replay") or {}
        family(
            "extrap_journal_last_replay_entries",
            "gauge",
            "Well-formed records read at the last journal replay.",
            [
                _sample(
                    "extrap_journal_last_replay_entries",
                    {},
                    last.get("entries", 0),
                )
            ],
        )
        family(
            "extrap_journal_last_replay_corrupt",
            "gauge",
            "Journal lines quarantined at the last replay.",
            [
                _sample(
                    "extrap_journal_last_replay_corrupt",
                    {},
                    last.get("corrupt", 0),
                )
            ],
        )
    run_samples: List[str] = []
    for kind, entry in jobs["run_seconds"].items():
        run_samples.append(
            _sample("extrap_job_run_seconds_count", {"kind": kind}, entry["count"])
        )
        run_samples.append(
            _sample("extrap_job_run_seconds_sum", {"kind": kind}, entry["sum_s"])
        )
    family(
        "extrap_job_run_seconds",
        "summary",
        "Wall-clock runtime of finished jobs, by kind.",
        run_samples,
    )
    return "\n".join(lines) + "\n"
