"""One prediction path for the CLI, sweeps and serve.

A :class:`PredictRequest` names the mode (full, or sampled under a
``SamplingConfig``), what to record, diagnose, profile or render, and
the wall budget.  Its ``validate``, ``cache_key`` and ``run`` are the
package's only mode rules, cache-key namespaces and payload assembly;
front-ends just load input and map errors (docs/ARCHITECTURE.md).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional

from repro.core.parameters import SimulationParameters
from repro.core.pipeline import Outcome, extrapolate
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.diagnose import DiagnosisReport
    from repro.sampling import SamplingConfig

#: cache-key namespace for payloads that carry a rendered report (bump
#: when such a payload changes shape)
PREDICT_CACHE_EXTRA = {"serve": "predict", "payload": 1}


def result_record(outcome: Outcome) -> Dict[str, Any]:
    """The JSON-safe extrapolation metrics payload.

    Shared vocabulary between the sweep cache, sweep artifacts and the
    serve API's ``metrics`` object — one schema, one place.  Sampled
    estimates additionally carry ``estimated: true`` plus a ``sampling``
    summary (config, chosen k, events simulated, error bars), so an
    estimate can never be mistaken for an exact result downstream.
    """
    r = outcome.result
    record = {
        "predicted_time_us": r.execution_time,
        "ideal_time_us": outcome.ideal_time,
        "utilization": r.utilization(),
        "compute_time_us": r.total_compute_time(),
        "comm_time_us": r.total_comm_time(),
        "barrier_time_us": r.total_barrier_time(),
        "message_count": r.network.messages,
        "message_bytes": r.network.bytes,
        "barrier_count": r.barrier_count,
        "n_threads": r.meta.n_threads,
    }
    if r.estimated:
        info = r.sampling or {}
        plan = info.get("plan", {})
        record["estimated"] = True
        record["sampling"] = {
            "config": info.get("config"),
            "mode": plan.get("mode"),
            "k": plan.get("k"),
            "n_intervals": plan.get("n_intervals"),
            "events_total": info.get("events_total"),
            "events_simulated": info.get("events_simulated"),
            "error_bars": info.get("error_bars"),
        }
    return record


@dataclass
class Prediction:
    """What :meth:`PredictRequest.run` returns."""

    outcome: Outcome
    #: ``metrics`` (the result record), plus ``report`` and ``diagnosis``
    #: when asked for; JSON-round-tripped, so it equals its cached replay
    payload: Dict[str, Any]
    diagnosis: Optional["DiagnosisReport"] = None

    @property
    def record(self) -> Dict[str, Any]:
        return self.payload["metrics"]


@dataclass(frozen=True)
class PredictRequest:
    """How to predict; see the module docstring."""

    #: sampled estimate under this config; None = full simulation
    sample: Optional["SamplingConfig"] = None
    observe: bool = False  # record a timeline
    profile: bool = False  # engine counters and phase timers
    diagnose: bool = False  # diagnose the (recorded) timeline
    report: bool = False  # render the ``extrap predict`` report
    wall_budget: Optional[float] = None  # watchdog seconds

    def validate(self, names: Mapping[str, str] = {}) -> None:
        """ValueError for a bad budget or a mode conflict; ``names``
        spells fields the caller's way (``{"observe": "--timeline"}``)."""

        def name(field: str) -> str:
            return names.get(field, repr(field))

        budget = self.wall_budget
        if budget is not None and not (math.isfinite(budget) and budget > 0):
            raise ValueError(
                f"{name('wall_budget')} must be a finite number > 0, got {budget}"
            )
        for field in ("observe", "profile", "diagnose"):
            if self.sample is not None and getattr(self, field):
                raise ValueError(
                    f"{name(field)} needs a full simulation; it cannot be "
                    f"combined with {name('sample')} (drop one of the two)"
                )

    def cache_key(self, digest: str, params: SimulationParameters) -> str:
        """Content address of this request's payload: trace + params,
        namespaced by report, sampling config and diagnosis."""
        from repro.sweep.cache import result_key

        extra: Dict[str, Any] = dict(PREDICT_CACHE_EXTRA) if self.report else {}
        if self.sample is not None:
            extra["sampling"] = self.sample.canonical_dict()
        elif self.diagnose:
            extra["diagnose"] = 1
        return result_key(digest, params, extra=extra)

    def run(self, trace: Trace, params: SimulationParameters) -> Prediction:
        """ValueError for a bad request or input, SimulationStalled
        past the budget."""
        self.validate()
        if self.sample is not None:
            from repro.sampling import estimate_sampled

            outcome: Outcome = estimate_sampled(
                trace, params, self.sample, wall_clock_budget=self.wall_budget
            )
        else:
            outcome = extrapolate(
                trace,
                params,
                profile=self.profile,
                observe=self.observe or self.diagnose,
                wall_clock_budget=self.wall_budget,
            )
        payload: Dict[str, Any] = {"metrics": result_record(outcome)}
        if self.report:
            from repro.metrics.report import predict_summary

            report = predict_summary(params, outcome)
            if self.sample is not None:
                from repro.sampling import sampling_section

                report += "\n" + sampling_section(outcome.result)
            payload["report"] = report
        diagnosis = None
        if self.diagnose:
            # resolved per call, so a wrapper on repro.diagnose applies
            from repro.diagnose import diagnose

            diagnosis = diagnose(outcome.result.timeline)
            payload["diagnosis"] = diagnosis.to_dict()
        return Prediction(outcome, json.loads(json.dumps(payload)), diagnosis)
