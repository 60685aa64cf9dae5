"""Smoke tests of the benchmark itself, at minimal size.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

They check that every workload emits every metric with its unit, that
the traced run's stage spans account for the untraced wall time, and
that the seed moves the request order but not the outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import common
import predict_phase
import run
import serve_phase
import sweep_phase

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def minimal(monkeypatch):
    """Shrink every workload to its smallest meaningful size."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(common, "SETUP_REPEATS", 1)
    monkeypatch.setattr(predict_phase, "TRACES", {"embar-4": "small", "mgrid-32": "large"})
    monkeypatch.setattr(predict_phase, "SMALL_REPEAT", 1)
    monkeypatch.setattr(sweep_phase, "TRACES", ("cyclic-32",))
    monkeypatch.setattr(serve_phase, "OVERLOAD_BLOCKS", 1)
    monkeypatch.setattr(run, "SERVE_REFERENCE_SLICES", 1)


def _result(capsys, *args: str) -> dict:
    assert run.main(list(args)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(minimal, capsys, workload, trace):
    result = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_traced_stage_spans_account_for_untraced_wall_time(minimal, tmp_path):
    reference = common.load_reference()
    tally = common.Tally()
    tracer = common.Tracer(True)
    setup = common.build_setup(tmp_path, reference, tally, ".jsonl")
    samples = predict_phase.PredictSamples()
    try:
        pairs = [(t, p) for t in ("embar-4", "mgrid-32") for p in common.PRESETS]
        predict_phase.run_slice(setup, reference, tally, tracer, samples, pairs, "0")
    finally:
        setup.close()
    assert tally.failed == 0, tally.notes
    stages = sum(
        self_s
        for name, self_s, _total, _request in tracer.self_times()
        if name == "predict" or name in predict_phase.CLI_STAGES
    )
    untraced = sum(wall for _request, _trace, wall in samples.requests)
    assert stages == pytest.approx(untraced, rel=0.10)


def test_seed_moves_request_order():
    assert predict_phase.round_order(0, 0) != predict_phase.round_order(1, 0)
    assert sweep_phase.round_order(0, 0) != sweep_phase.round_order(2, 0)
    draws = [
        serve_phase._draw(serve_phase.random.Random(seed), 4.0, 1, set(), ".jsonl")
        for seed in (0, 1)
    ]
    assert [r.kind for r in draws[0]] != [r.kind for r in draws[1]]
    assert [r.due for r in draws[0]] != [r.due for r in draws[1]]


@pytest.mark.parametrize("suffix", run.WORKLOADS.values())
def test_seed_does_not_move_outputs(minimal, tmp_path, suffix):
    reference = common.load_reference()
    for seed in (common.DEFAULT_SEED, 1):
        tally = common.Tally()
        tracer = common.Tracer(True)
        setup = common.build_setup(tmp_path / str(seed), reference, tally, suffix)
        try:
            predict_phase.run_slice(
                setup, reference, tally, tracer, predict_phase.PredictSamples(),
                predict_phase.round_order(seed, 0), "0",
            )
            sweep_phase.run_slice(
                setup, reference, tally, tracer, sweep_phase.SweepSamples(), seed, 0,
                "cyclic-32",
            )
        finally:
            setup.close()
        # every record and report matched the stored reference
        assert tally.failed == 0, tally.notes


def test_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(__file__).parent.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "reference.json").write_text((Path(__file__).parent / "reference.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jsonl", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no src/repro" in proc.stderr
