"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, Simulator


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
