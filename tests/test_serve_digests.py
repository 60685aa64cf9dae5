"""Serve trace-digest memo: a warm hit never reads the trace, and every
edit to a trace file is seen."""

import json
import os
import sys
import threading
import time

import pytest

import repro.serve.service as service_module
from repro.cli import main
from repro.serve import ApiError, ExtrapService
from repro.sweep.cache import ResultCache
from repro.trace import read_trace
from repro.trace.events import EventKind, TraceEvent
from repro.trace.trace import Trace

#: an mtime safely outside the racy window, seconds before now
OLD_S = 60.0


@pytest.fixture(scope="module")
def embar_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-digest-src") / "t.jsonl"
    assert main(["trace", "embar", "-n", "4", "-o", str(path)]) == 0
    return path.read_text()


def same_size_variant(text):
    """Another valid trace of exactly the same length (the meta differs)."""
    variant = text.replace('"program": "embar"', '"program": "EMBAR"', 1)
    assert variant != text and len(variant) == len(text)
    return variant


def back_date(path, seconds=OLD_S):
    """Move ``path``'s mtime out of the racy window, so it is memoisable."""
    then = time.time() - seconds
    os.utime(path, (then, then))


def write_trace_text(path, text, *, memoisable=True):
    path.write_text(text)
    if memoisable:
        back_date(path)
    return path


@pytest.fixture
def root(tmp_path):
    root = tmp_path / "traces"
    root.mkdir()
    return root


@pytest.fixture
def service(root, tmp_path):
    svc = ExtrapService(trace_root=root, cache=ResultCache(tmp_path / "cache"))
    yield svc
    svc.close(drain=False)


def predict(service, name="t.jsonl"):
    return service.predict({"trace_path": name, "preset": "cm5"})


def digest_stats(service):
    return service.stats()["trace_digests"]


def test_warm_hit_reads_nothing(service, root, embar_text, monkeypatch):
    write_trace_text(root / "t.jsonl", embar_text)
    first = predict(service)

    def boom(*args, **kwargs):
        raise AssertionError("a warm hit must not read or digest the trace")

    monkeypatch.setattr(service_module, "read_trace", boom)
    monkeypatch.setattr(Trace, "digest", boom)
    second = predict(service)
    assert second["cached"] is True
    assert {k: v for k, v in second.items() if k != "cached"} == {
        k: v for k, v in first.items() if k != "cached"
    }
    assert digest_stats(service) == {"entries": 1, "hits": 1, "misses": 1}


def test_replaced_file_is_redigested(service, root, embar_text):
    target = write_trace_text(root / "t.jsonl", embar_text)
    first = predict(service)
    before = os.stat(target)
    # same size and mtime, another inode
    staged = write_trace_text(root / "staged.tmp", same_size_variant(embar_text))
    os.utime(staged, ns=(before.st_atime_ns, before.st_mtime_ns))
    os.replace(staged, target)
    after = os.stat(target)
    assert after.st_ino != before.st_ino
    assert after.st_size == before.st_size
    assert after.st_mtime_ns == before.st_mtime_ns
    second = predict(service)
    assert second["trace"]["digest"] != first["trace"]["digest"]
    assert second["trace"]["program"] == "EMBAR"
    assert second["cached"] is False


def test_grown_file_is_redigested(service, root, embar_text):
    target = write_trace_text(root / "t.jsonl", embar_text)
    first = predict(service)
    before = os.stat(target)
    # extend the file in place: a MARK goes in before the final event
    head, last = embar_text.rstrip("\n").rsplit("\n", 1)
    end = json.loads(last)
    mark = TraceEvent(time=end["t"], thread=end["th"], kind=EventKind.MARK)
    with open(target, "r+") as fh:
        fh.seek(len(head) + 1)
        fh.write(json.dumps(mark.to_dict()) + "\n" + last + "\n")
    os.utime(target, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert os.stat(target).st_size > before.st_size
    second = predict(service)
    assert second["trace"]["digest"] != first["trace"]["digest"]
    assert second["cached"] is False


def test_same_size_rewrite_with_mtime_restored_is_redigested(
    service, root, embar_text
):
    target = write_trace_text(root / "t.jsonl", embar_text)
    first = predict(service)
    before = os.stat(target)
    with open(target, "r+") as fh:
        fh.write(same_size_variant(embar_text))
    os.utime(target, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(target)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
        before.st_ino,
        before.st_size,
        before.st_mtime_ns,
    )
    assert after.st_ctime_ns != before.st_ctime_ns  # the one visible change
    second = predict(service)
    assert second["trace"]["digest"] != first["trace"]["digest"]
    assert second["trace"]["program"] == "EMBAR"
    assert second["cached"] is False


def test_memo_hit_then_cache_miss_keys_by_what_is_read(
    service, root, embar_text, monkeypatch
):
    target = write_trace_text(root / "t.jsonl", embar_text)
    first = predict(service)
    load = service._load_trace

    def rewrite_then_load(req):
        # the file changes after its stat matched the memo
        target.write_text(same_size_variant(embar_text))
        return load(req)

    monkeypatch.setattr(service, "_load_trace", rewrite_then_load)
    body = {"trace_path": "t.jsonl", "preset": "distributed_memory"}
    fresh = service.predict(body)
    assert digest_stats(service)["hits"] == 1
    assert fresh["cached"] is False
    assert fresh["trace"]["program"] == "EMBAR"
    assert fresh["trace"]["digest"] != first["trace"]["digest"]
    monkeypatch.undo()
    again = service.predict(body)
    assert again["cached"] is True
    assert again["key"] == fresh["key"]


def test_file_in_racy_window_is_reread(service, root, embar_text):
    target = write_trace_text(root / "t.jsonl", embar_text, memoisable=False)
    first = predict(service)
    assert digest_stats(service) == {"entries": 0, "hits": 0, "misses": 1}
    second = predict(service)
    assert second["cached"] is True  # the result cache still answers
    assert digest_stats(service) == {"entries": 0, "hits": 0, "misses": 2}
    # a same-size rewrite inside the window is seen on the next request
    target.write_text(same_size_variant(embar_text))
    third = predict(service)
    assert third["trace"]["digest"] != first["trace"]["digest"]
    assert third["cached"] is False


def test_memoised_file_deleted_is_404(service, root, embar_text):
    target = write_trace_text(root / "t.jsonl", embar_text)
    predict(service)
    predict(service)
    assert digest_stats(service)["hits"] == 1
    target.unlink()
    with pytest.raises(ApiError) as ei:
        predict(service)
    assert ei.value.status == 404


def test_memoised_symlink_repointed_outside_root_is_400(
    service, root, embar_text, tmp_path
):
    write_trace_text(root / "t.jsonl", embar_text)
    outside = write_trace_text(tmp_path / "outside.jsonl", embar_text)
    link = root / "link.jsonl"
    try:
        link.symlink_to(root / "t.jsonl")
    except OSError:
        pytest.skip("filesystem does not support symlinks")
    predict(service, "link.jsonl")
    predict(service, "link.jsonl")
    assert digest_stats(service)["hits"] == 1
    link.unlink()
    link.symlink_to(outside)
    with pytest.raises(ApiError) as ei:
        predict(service, "link.jsonl")
    assert ei.value.status == 400
    assert "escapes" in ei.value.message


def test_memo_is_a_bounded_lru(service, root, embar_text, monkeypatch):
    monkeypatch.setattr(service_module, "TRACE_DIGEST_ENTRIES", 2)
    for name in ("a", "b", "c", "d"):
        write_trace_text(root / f"{name}.jsonl", embar_text)

    def hits_after(name):
        before = digest_stats(service)["hits"]
        predict(service, f"{name}.jsonl")
        assert digest_stats(service)["entries"] <= 2
        return digest_stats(service)["hits"] - before

    assert hits_after("a") == 0
    assert hits_after("b") == 0
    assert hits_after("a") == 1  # a is now the most recently used
    assert hits_after("c") == 0  # evicts b, the least recently used
    assert hits_after("a") == 1
    assert hits_after("b") == 0
    assert hits_after("d") == 0
    assert digest_stats(service)["entries"] == 2


def test_inline_traces_bypass_the_memo(service, root, embar_text):
    trace = read_trace(write_trace_text(root / "t.jsonl", embar_text))
    inline = {
        "meta": trace.meta.to_dict(),
        "events": [e.to_dict() for e in trace.events],
    }
    for _ in range(2):
        service.predict({"trace": inline})
    assert digest_stats(service) == {"entries": 0, "hits": 0, "misses": 0}


def test_memo_under_concurrent_predicts(service, root, embar_text, monkeypatch):
    """Eight threads on five files through a two-entry memo: no lost
    counter update, the bound holds, every answer names its own file."""
    monkeypatch.setattr(service_module, "TRACE_DIGEST_ENTRIES", 2)
    names = [f"f{i}.jsonl" for i in range(5)]
    for i, name in enumerate(names):
        text = embar_text.replace('"program": "embar"', f'"program": "emba{i}"', 1)
        write_trace_text(root / name, text)
    expected = {name: predict(service, name)["trace"] for name in names}
    rounds, workers = 20, 8
    answers, errors = [], []

    def hammer(offset):
        try:
            for r in range(rounds):
                name = names[(offset + r) % len(names)]
                answers.append((name, predict(service, name)["trace"]))
        except Exception as exc:  # pragma: no cover — failure detail
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(answers) == rounds * workers
    assert all(trace == expected[name] for name, trace in answers)
    memo = digest_stats(service)
    assert memo["entries"] <= 2
    assert memo["hits"] + memo["misses"] == len(names) + rounds * workers
