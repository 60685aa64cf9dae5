"""Event primitives: states, composition, failure propagation."""

import pytest

from repro.des import AllOf, AnyOf, Environment, Event


def test_event_lifecycle():
    env = Environment()
    ev = env.event()
    assert not ev.triggered
    with pytest.raises(RuntimeError):
        _ = ev.value
    ev.succeed("v")
    assert ev.triggered and not ev.processed
    env.run(None)
    assert ev.processed
    assert ev.ok
    assert ev.value == "v"


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(RuntimeError):
        ev.succeed()
    with pytest.raises(RuntimeError):
        ev.fail(RuntimeError("x"))


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_failed_event_thrown_into_waiter():
    env = Environment()

    def proc(env, ev):
        try:
            yield ev
        except ValueError as e:
            return f"caught {e}"

    ev = env.event()
    p = env.process(proc(env, ev))
    ev.fail(ValueError("boom"))
    env.run(p)
    assert p.value == "caught boom"


def test_unhandled_failure_surfaces():
    env = Environment()
    env.event().fail(ValueError("lost"))
    with pytest.raises(ValueError, match="lost"):
        env.run(None)


def test_defused_failure_is_silent():
    env = Environment()
    ev = env.event()
    ev.defused = True
    ev.fail(ValueError("ignored"))
    env.run(None)  # no raise


def test_anyof_fires_on_first():
    env = Environment()
    a, b = env.timeout(5, "a"), env.timeout(10, "b")
    cond = AnyOf(env, [a, b])
    env.run(cond)
    assert env.now == 5.0
    assert a in cond.value


def test_allof_waits_for_all():
    env = Environment()
    a, b = env.timeout(5, "a"), env.timeout(10, "b")
    cond = AllOf(env, [a, b])
    env.run(cond)
    assert env.now == 10.0
    assert set(cond.value) == {a, b}


def test_empty_condition_fires_immediately():
    env = Environment()
    cond = AllOf(env, [])
    assert cond.triggered


def test_condition_with_already_processed_child():
    env = Environment()
    a = env.timeout(1)
    env.run(env.timeout(2.0))
    cond = AnyOf(env, [a, env.timeout(10)])
    assert cond.triggered


def test_condition_mixed_environments_rejected():
    env1, env2 = Environment(), Environment()
    with pytest.raises(ValueError):
        AnyOf(env1, [env1.event(), env2.event()])


def test_condition_propagates_failure():
    env = Environment()
    bad = env.event()
    cond = AllOf(env, [bad, env.timeout(5)])
    cond.defused = True
    bad.fail(RuntimeError("child failed"))
    env.run(env.timeout(10.0))
    assert cond.triggered and not cond.ok
