"""Sampled sweeps: spec validation, cache-key separation, determinism."""

import pytest

from repro import measure
from repro.bench.suite import get_benchmark
from repro.core.predict import PredictRequest
from repro.core.presets import by_name
from repro.experiments.paramsets import matmul_config
from repro.sampling import SamplingConfig
from repro.sweep import ResultCache, SweepSpec, run_sweep
from repro.sweep.cache import result_key


@pytest.fixture(scope="module")
def trace():
    maker = get_benchmark("matmul").make_program(matmul_config(quick=True))
    return measure(maker(8), 8, name="matmul")


SPACE = {
    "name": "sampled",
    "preset": "cm5",
    "grid": {"network.hop_time": [0.5, 1.0]},
    "sample": {"seed": 0, "max_phases": 8},
}


# -- spec --------------------------------------------------------------------


def test_spec_sample_roundtrip():
    spec = SweepSpec.from_dict(SPACE)
    assert isinstance(spec.sample, SamplingConfig)
    assert spec.sample.seed == 0
    d = spec.to_dict()
    assert d["sample"] == spec.sample.canonical_dict()
    again = SweepSpec.from_dict(d)
    assert again.sample == spec.sample


def test_spec_sample_unknown_key():
    bad = dict(SPACE, sample={"max_phase": 4})
    with pytest.raises(ValueError, match="did you mean"):
        SweepSpec.from_dict(bad)


def test_spec_sample_bad_type():
    bad = dict(SPACE, sample={"seed": "zero"})
    with pytest.raises(ValueError, match="seed"):
        SweepSpec.from_dict(bad)


def test_spec_without_sample_unchanged():
    spec = SweepSpec.from_dict({k: v for k, v in SPACE.items() if k != "sample"})
    assert spec.sample is None
    assert "sample" not in spec.to_dict()


# -- cache-key separation ----------------------------------------------------


def test_sampled_and_full_keys_never_collide(trace):
    params = by_name("cm5")
    digest = trace.digest()
    full = result_key(digest, params)
    sampled = result_key(
        digest, params, extra={"sampling": SamplingConfig().canonical_dict()}
    )
    other = result_key(
        digest,
        params,
        extra={"sampling": SamplingConfig(seed=1).canonical_dict()},
    )
    assert len({full, sampled, other}) == 3

    # The core's cache_key reproduces each namespace's key byte for
    # byte, and the five namespaces stay apart.
    config = SamplingConfig()
    serve = {"serve": "predict", "payload": 1}
    namespaces = [
        (PredictRequest(), None),
        (PredictRequest(sample=config), {"sampling": config.canonical_dict()}),
        (PredictRequest(report=True), serve),
        (
            PredictRequest(sample=config, report=True),
            {**serve, "sampling": config.canonical_dict()},
        ),
        (PredictRequest(diagnose=True, report=True), {**serve, "diagnose": 1}),
    ]
    keys = set()
    for request, extra in namespaces:
        key = request.cache_key(digest, params)
        assert key == result_key(digest, params, extra=extra)
        keys.add(key)
    assert len(keys) == 5
    assert keys & {full, sampled} == {full, sampled}


def test_sampled_sweep_does_not_touch_full_cache(trace, tmp_path):
    cache = ResultCache(tmp_path / "c")
    full_spec = SweepSpec.from_dict(
        {k: v for k, v in SPACE.items() if k != "sample"}
    )
    sampled_spec = SweepSpec.from_dict(SPACE)
    run_sweep(full_spec, trace=trace, cache=cache)
    assert cache.stats()["entries"] == 2
    run = run_sweep(sampled_spec, trace=trace, cache=cache)
    stats = cache.stats()
    assert stats["entries"] == 4
    assert stats["full_entries"] == 2
    assert stats["sampled_entries"] == 2
    assert 0 < stats["sampled_events_simulated"] < stats["sampled_events_total"]
    assert run.counters.cache_misses == 2  # the full entries answered nothing


# -- results -----------------------------------------------------------------


def test_sampled_records_marked(trace, tmp_path):
    spec = SweepSpec.from_dict(SPACE)
    run = run_sweep(spec, trace=trace, cache=ResultCache(tmp_path / "c"))
    for rec in run.records:
        assert rec.ok
        assert rec.result["estimated"] is True
        sampling = rec.result["sampling"]
        assert sampling["config"] == spec.sample.canonical_dict()
        assert sampling["events_simulated"] < sampling["events_total"]
    assert '"sample"' in run.to_json()


def test_serial_parallel_byte_identical(trace, tmp_path):
    spec = SweepSpec.from_dict(SPACE)
    serial = run_sweep(spec, trace=trace, cache=ResultCache(tmp_path / "a"), jobs=1)
    parallel = run_sweep(
        spec, trace=trace, cache=ResultCache(tmp_path / "b"), jobs=2
    )
    assert serial.to_json() == parallel.to_json()


def test_cached_replay_identical(trace, tmp_path):
    spec = SweepSpec.from_dict(SPACE)
    cache = ResultCache(tmp_path / "c")
    first = run_sweep(spec, trace=trace, cache=cache)
    second = run_sweep(spec, trace=trace, cache=cache)
    assert second.counters.cache_hits == 2
    assert first.to_json() == second.to_json()
