"""The shared prediction core: CLI, sweep and serve agree byte for byte."""

import json

import pytest

from repro.cli import main
from repro.core.pipeline import Outcome
from repro.core.predict import PredictRequest
from repro.core.presets import by_name
from repro.sampling import SamplingConfig
from repro.serve import ApiError, ExtrapService
from repro.sweep import SweepSpec, run_sweep
from repro.trace import read_trace

OVERRIDES = {"processor.mips_ratio": 0.5}
MODES = {"full": None, "sampled": {"seed": 0}}


@pytest.fixture(scope="module")
def trace_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("predict-core")
    assert main(["trace", "matmul", "-n", "8", "-o", str(root / "m.jsonl")]) == 0
    return root


@pytest.fixture(scope="module")
def service(trace_root):
    svc = ExtrapService(trace_root=trace_root, cache=None)
    yield svc
    svc.close(drain=False, timeout=10)


def serve_predict(service, mode, **extra):
    body = {"trace_path": "m.jsonl", "preset": "cm5", "overrides": OVERRIDES}
    if MODES[mode] is not None:
        body["sample"] = MODES[mode]
    return service.predict({**body, **extra})


@pytest.mark.parametrize("mode", sorted(MODES))
def test_sweep_record_equals_serve_metrics(service, trace_root, mode):
    spec = {"name": "agree", "preset": "cm5", "points": [OVERRIDES]}
    if MODES[mode] is not None:
        spec["sample"] = MODES[mode]
    run = run_sweep(
        SweepSpec.from_dict(spec), trace=read_trace(trace_root / "m.jsonl")
    )
    assert run.records[0].result == serve_predict(service, mode)["metrics"]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_serve_report_equals_cli_stdout(service, trace_root, mode, capsys):
    argv = ["predict", str(trace_root / "m.jsonl"), "--preset", "cm5",
            "--set", "processor.mips_ratio=0.5"]
    if MODES[mode] is not None:
        argv += ["--sample", "--sample-seed", "0"]
    assert main(argv) == 0
    assert capsys.readouterr().out == serve_predict(service, mode)["report"] + "\n"


def test_serve_diagnosis_equals_cli_validate(service, trace_root, capsys):
    argv = ["validate", str(trace_root / "m.jsonl"), "--diagnose", "--json",
            "--preset", "cm5", "--set", "processor.mips_ratio=0.5"]
    assert main(argv) == 0
    cli = json.loads(capsys.readouterr().out)
    assert cli == serve_predict(service, "full", diagnose=True)["diagnosis"]


def test_outcomes_share_one_interface(trace_root):
    trace = read_trace(trace_root / "m.jsonl")
    for request in (PredictRequest(), PredictRequest(sample=SamplingConfig())):
        outcome = request.run(trace, by_name("cm5")).outcome
        assert isinstance(outcome, Outcome)
        assert outcome.predicted_time == outcome.result.execution_time
        assert outcome.ideal_time > 0


def test_payload_carries_only_what_was_asked(trace_root):
    trace = read_trace(trace_root / "m.jsonl")
    params = by_name("cm5")
    assert set(PredictRequest().run(trace, params).payload) == {"metrics"}
    diagnosed = PredictRequest(diagnose=True, report=True).run(trace, params)
    assert set(diagnosed.payload) == {"metrics", "report", "diagnosis"}
    assert diagnosed.diagnosis.to_dict() == diagnosed.payload["diagnosis"]


# -- validate ----------------------------------------------------------------


@pytest.mark.parametrize("field", ["observe", "profile", "diagnose"])
def test_sampling_conflicts_with_full_run_modes(field):
    request = PredictRequest(sample=SamplingConfig(), **{field: True})
    with pytest.raises(ValueError, match=f"'{field}'.*'sample'"):
        request.validate()
    with pytest.raises(ValueError, match="--x.*--s"):
        request.validate({field: "--x", "sample": "--s"})


@pytest.mark.parametrize("budget", [0, -1.0, float("nan"), float("inf")])
def test_bad_budget_rejected(budget):
    with pytest.raises(ValueError, match="'wall_budget' must be a finite"):
        PredictRequest(wall_budget=budget).validate()


def test_nonfinite_parameter_override_is_400(service):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ApiError) as ei:
            service.predict(
                {"trace_path": "m.jsonl",
                 "overrides": {"processor.mips_ratio": value}}
            )
        assert ei.value.status == 400
        assert "finite" in ei.value.message


def test_nonfinite_parameter_override_exit_2(trace_root, capsys):
    argv = ["predict", str(trace_root / "m.jsonl"),
            "--set", "processor.mips_ratio=nan"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "mips_ratio must be finite" in err and "Traceback" not in err
