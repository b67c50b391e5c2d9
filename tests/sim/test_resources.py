"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, Simulator, Store


# -- Resource ---------------------------------------------------------------

def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered and not r3.triggered
    assert res.in_use == 2
    assert res.queue_length == 1


def test_resource_release_wakes_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(sim, name, hold):
        req = res.request()
        yield req
        order.append((name, sim.now))
        yield sim.timeout(hold)
        res.release()

    sim.process(user(sim, "a", 2.0))
    sim.process(user(sim, "b", 1.0))
    sim.process(user(sim, "c", 1.0))
    sim.run()
    assert order == [("a", 0.0), ("b", 2.0), ("c", 3.0)]


def test_resource_release_idle_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        res.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_cancelled_waiter_skipped():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.request()
    w1 = res.request()
    w2 = res.request()
    w1.cancel()
    res.release()
    sim.run()
    assert not w1.triggered
    assert w2.triggered
    assert res.in_use == 1


def test_try_acquire_takes_free_slots_without_an_event():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.try_acquire()
    assert res.try_acquire()
    assert not res.try_acquire()
    assert res.in_use == 2
    assert sim.peek() == float("inf")  # nothing was scheduled


def test_try_acquire_purges_cancelled_head_waiters():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.try_acquire()
    w1, w2 = res.request(), res.request()
    w1.cancel()
    assert not res.try_acquire()  # full: refused, but the head is purged
    assert res.queue_length == 1
    w2.cancel()
    res.release()
    assert res.in_use == 0
    assert res.try_acquire()
    assert res.queue_length == 0


def test_try_acquire_refuses_while_a_live_waiter_queues():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    assert res.try_acquire()
    waiter = res.request()
    assert not res.try_acquire()
    res.release()  # the slot goes to the queued waiter, not a barger
    assert waiter.triggered
    assert not res.try_acquire()
    assert res.in_use == 1


def test_resource_available():
    sim = Simulator()
    res = Resource(sim, capacity=3)
    res.request()
    assert res.available == 2


# -- Store -------------------------------------------------------------------

def test_store_put_get_fifo():
    sim = Simulator()
    st = Store(sim)
    st.try_put("a")
    st.try_put("b")
    g1, g2 = st.get(), st.get()
    sim.run()
    assert g1.value == "a"
    assert g2.value == "b"


def test_store_get_blocks_until_put():
    sim = Simulator()
    st = Store(sim)
    got = []

    def consumer(sim):
        v = yield st.get()
        got.append((v, sim.now))

    sim.process(consumer(sim))
    sim.call_in(2.0, lambda: st.try_put("x"))
    sim.run()
    assert got == [("x", 2.0)]


def test_store_try_put_respects_capacity():
    sim = Simulator()
    st = Store(sim, capacity=2)
    assert st.try_put(1)
    assert st.try_put(2)
    assert not st.try_put(3)
    assert len(st) == 2
    assert st.is_full


def test_store_try_get_empty_returns_none():
    sim = Simulator()
    st = Store(sim)
    assert st.try_get() is None
    st.try_put("x")
    assert st.try_get() == "x"


def test_store_blocking_put_waits_for_space():
    sim = Simulator()
    st = Store(sim, capacity=1)
    st.try_put("a")
    done = []

    def producer(sim):
        yield st.put("b")
        done.append(sim.now)

    sim.process(producer(sim))
    sim.call_in(3.0, lambda: st.try_get())
    sim.run()
    assert done == [3.0]
    assert st.try_get() == "b"


def test_store_drain_returns_all():
    sim = Simulator()
    st = Store(sim)
    for i in range(5):
        st.try_put(i)
    assert st.drain() == [0, 1, 2, 3, 4]
    assert len(st) == 0


def test_store_drain_admits_blocked_putters():
    sim = Simulator()
    st = Store(sim, capacity=1)
    st.try_put("a")

    def producer(sim):
        yield st.put("b")

    sim.process(producer(sim))
    sim.run()
    assert st.drain() == ["a"]
    sim.run()
    assert st.drain() == ["b"]


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)


def test_store_interleaved_producer_consumer():
    sim = Simulator()
    st = Store(sim, capacity=3)
    consumed = []

    def producer(sim):
        for i in range(10):
            yield st.put(i)
            yield sim.timeout(0.1)

    def consumer(sim):
        for _ in range(10):
            v = yield st.get()
            consumed.append(v)
            yield sim.timeout(0.3)

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert consumed == list(range(10))
