"""Counted resources: capacity, FIFO grants, queue length."""

import pytest

from repro.des import Environment, Resource


def test_capacity_one_serialises():
    env = Environment()
    res = Resource(env, 1)
    log = []

    def user(env, tag, hold):
        req = res.request()
        yield req
        log.append((tag, "in", env.now))
        yield env.timeout(hold)
        res.release(req)
        log.append((tag, "out", env.now))

    env.process(user(env, "a", 10))
    env.process(user(env, "b", 5))
    env.run(None)
    assert log == [
        ("a", "in", 0.0),
        ("a", "out", 10.0),
        ("b", "in", 10.0),
        ("b", "out", 15.0),
    ]


def test_capacity_two_overlaps():
    env = Environment()
    res = Resource(env, 2)
    started = []

    def user(env):
        req = res.request()
        yield req
        started.append(env.now)
        yield env.timeout(10)
        res.release(req)

    for _ in range(3):
        env.process(user(env))
    env.run(None)
    assert started == [0.0, 0.0, 10.0]


def test_release_without_hold_rejected():
    env = Environment()
    res = Resource(env, 1)
    a = res.request()
    res.release(a)
    with pytest.raises(ValueError):
        res.release(a)


def test_queue_length_and_count():
    env = Environment()
    res = Resource(env, 1)
    a = res.request()
    b = res.request()
    assert a.triggered and not b.triggered
    assert res.queue_length == 1
    res.release(a)
    assert b.triggered  # the freed slot passed straight to the waiter
    assert res.queue_length == 0


def test_bad_capacity():
    with pytest.raises(ValueError):
        Resource(Environment(), 0)
