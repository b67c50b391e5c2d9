"""Unit tests for the DES kernel: events, scheduling, run semantics."""

import pytest

from repro.sim import Event, Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_timeouts_processed_in_order():
    sim = Simulator()
    seen = []
    for d in (3.0, 1.0, 2.0):
        t = sim.timeout(d)
        t.callbacks.append(lambda ev, d=d: seen.append(d))
    sim.run()
    assert seen == [1.0, 2.0, 3.0]


def test_equal_time_events_fifo():
    sim = Simulator()
    seen = []
    for i in range(5):
        t = sim.timeout(1.0)
        t.callbacks.append(lambda ev, i=i: seen.append(i))
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_run_until_time_stops_clock():
    sim = Simulator()
    fired = []
    sim.timeout(10.0).callbacks.append(lambda ev: fired.append(1))
    sim.run(until=5.0)
    assert sim.now == 5.0
    assert not fired


def test_run_until_time_includes_events_at_horizon():
    sim = Simulator()
    fired = []
    sim.timeout(5.0).callbacks.append(lambda ev: fired.append(1))
    sim.run(until=5.0)
    # Same-time normal events run before the low-priority stop sentinel.
    assert fired == [1]


def test_run_until_event_returns_value():
    sim = Simulator()
    ev = sim.event()
    sim.call_in(3.0, lambda: ev.succeed(42))
    assert sim.run(until=ev) == 42
    assert sim.now == 3.0


def test_run_until_event_deadlock_detected():
    sim = Simulator()
    ev = sim.event()  # never triggered
    sim.timeout(1.0)
    with pytest.raises(RuntimeError, match="deadlock"):
        sim.run(until=ev)


def test_run_until_past_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_event_succeed_once():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(RuntimeError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(RuntimeError):
        _ = ev.value


def test_event_fail_propagates_when_unhandled():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_event_fail_defused_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.fail(ValueError("boom"))
    ev.defuse()
    sim.run()  # no raise


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_cancelled_event_callbacks_never_run():
    sim = Simulator()
    t = sim.timeout(1.0)
    hit = []
    t.callbacks.append(lambda ev: hit.append(1))
    t.cancel()
    sim.run()
    assert not hit
    assert t.cancelled


def test_peek_skips_cancelled():
    sim = Simulator()
    t1 = sim.timeout(1.0)
    sim.timeout(2.0)
    t1.cancel()
    assert sim.peek() == 2.0


def test_peek_empty_is_inf():
    sim = Simulator()
    assert sim.peek() == float("inf")


def test_call_at_and_call_in():
    sim = Simulator()
    seen = []
    sim.call_at(4.0, lambda: seen.append(("at", sim.now)))
    sim.call_in(1.0, lambda: seen.append(("in", sim.now)))
    sim.run()
    assert seen == [("in", 1.0), ("at", 4.0)]


def test_call_at_past_raises():
    sim = Simulator()
    sim.timeout(2.0)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(1.0, lambda: None)


def test_timeout_carries_value():
    sim = Simulator()
    t = sim.timeout(1.0, value="hello")
    sim.run()
    assert t.value == "hello"


def test_repr_states():
    sim = Simulator()
    ev = Event(sim, name="x")
    assert "pending" in repr(ev)
    ev.succeed()
    assert "triggered" in repr(ev)
    sim.run()
    assert "processed" in repr(ev)

