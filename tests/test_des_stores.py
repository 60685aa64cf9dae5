"""Stores: FIFO semantics, blocking gets, cancel."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Store


def run_all(env):
    env.run(None)


def test_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(consumer(env))
    for i in range(3):
        store.put(i)
    run_all(env)
    assert got == [0, 1, 2]


def test_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(10)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    run_all(env)
    assert got == [(10.0, "x")]


def test_cancel_get():
    env = Environment()
    store = Store(env)
    g1 = store.get()
    g2 = store.get()
    store.cancel(g1)
    store.put("only")
    env.run(None)
    assert not g1.triggered
    assert g2.value == "only"
    store.cancel(g1)  # idempotent


def test_none_is_a_valid_item():
    """Regression: a stored None must not be mistaken for 'no item'."""
    env = Environment()
    store = Store(env)
    store.put(None)
    got = []

    def consumer(env):
        got.append((yield store.get()))

    env.process(consumer(env))
    env.run(None)
    assert got == [None]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_store_preserves_all_items(items):
    """Property: everything put is got exactly once, in order."""
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        for _ in items:
            got.append((yield store.get()))

    env.process(consumer(env))

    def producer(env):
        for it in items:
            yield env.timeout(1)
            yield store.put(it)

    env.process(producer(env))
    env.run(None)
    assert got == items
