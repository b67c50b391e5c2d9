"""Unit tests for the DES kernel: events, scheduling, run semantics."""

import ast
from pathlib import Path

import pytest

import repro
from repro.sim import Event, Simulator, Timeout


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def _assigned_attributes(tree):
    """(attribute name, line) for every attribute an assignment
    (tuple targets included) or augmented assignment writes."""
    def targets(node):
        if isinstance(node, ast.Attribute):
            yield node
        elif isinstance(node, (ast.Tuple, ast.List, ast.Starred)):
            for child in ast.iter_child_nodes(node):
                yield from targets(child)

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            roots = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            roots = [node.target]
        else:
            continue
        for root in roots:
            for attr in targets(root):
                yield attr.attr, attr.lineno


def test_only_the_kernel_writes_now():
    """``Simulator.now`` is a plain attribute: nothing in the package
    outside ``sim/kernel.py`` may assign it."""
    src = Path(repro.__file__).parent
    kernel = src / "sim" / "kernel.py"
    writes = [f"{path.relative_to(src)}:{line}"
              for path in sorted(src.rglob("*.py")) if path != kernel
              for name, line in _assigned_attributes(
                  ast.parse(path.read_text(), str(path)))
              if name == "now"]
    assert writes == []
    kernel_writes = [name for name, _ in _assigned_attributes(
        ast.parse(kernel.read_text())) if name == "now"]
    assert kernel_writes  # the scan sees the kernel's own writes


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
    sim.call_at(sim.now + 3.0, lambda: ev.succeed(42))
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


def test_cancel_drops_the_callbacks():
    """A cancelled event's callbacks can never run, so cancel() lets go
    of them (and of any cycle through them) at once."""
    sim = Simulator()
    group = sim.any_of([sim.event(), sim.timeout(1.0)])
    timer = group.events[1]
    timer.cancel()
    assert timer.callbacks == []
    sim.run()
    assert not group.triggered and timer.callbacks == []


def test_call_at_runs_callbacks_in_time_order():
    sim = Simulator()
    seen = []
    sim.call_at(4.0, lambda: seen.append(("at", sim.now)))
    sim.call_at(sim.now + 1.0, lambda: seen.append(("in", sim.now)))
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



def test_run_dispatches_every_event_through_step():
    """The host benchmark counts Simulator.step calls as processed
    events; run() must not process any event by another path."""
    sim = Simulator()
    pushed, dispatched = [], []
    schedule, step = sim._schedule, sim.step

    def counting_schedule(event, delay=0.0, **kw):
        pushed.append(event)
        schedule(event, delay, **kw)

    def counting_step():
        dispatched.append(sim._heap[0][3])
        step()

    sim._schedule = counting_schedule
    sim.step = counting_step

    def child(sim):
        yield sim.timeout(0.5)
        return "done"

    def parent(sim):
        value = yield sim.process(child(sim))
        yield sim.any_of([sim.timeout(1.0), sim.timeout(2.0)])
        return value

    proc = sim.process(parent(sim))
    cancelled = sim.timeout(0.25)
    cancelled.cancel()
    sim.call_at(sim.now + 0.75, lambda: None)
    sim.run(until=3.0)
    assert proc.value == "done"
    # Each scheduled event, the cancelled one and run()'s own stop
    # sentinel included, went through step() exactly once.
    assert len(dispatched) == len(pushed) > 0
    assert set(dispatched) == set(pushed)
    assert all(ev.processed for ev in pushed if not ev.cancelled)
    assert cancelled.callbacks is not None


def test_cancelled_event_skipped_by_step():
    sim = Simulator()
    t = sim.timeout(1.0)
    hit = []
    t.callbacks.append(lambda ev: hit.append(1))
    t.cancel()
    sim.step()
    assert not hit
    assert sim.now == 0.0
    assert not t.processed


def test_undefused_failure_propagates_out_of_run_after_callbacks():
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.callbacks.append(lambda e: seen.append(e.exception))
    err = ValueError("boom")
    ev.fail(err)
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert seen == [err]
    assert ev.processed


# -- advance_to: moving time without an event -----------------------------------

def advance_in_process(sim, when):
    """Spawn a process that calls ``advance_to(when)`` and records the
    result and the time it reads afterwards."""
    seen = []

    def proc(sim):
        seen.append((sim.advance_to(when), sim.now))
        yield from ()

    sim.process(proc(sim))
    return seen


def test_advance_to_moves_now_exactly_when_nothing_comes_first():
    sim = Simulator()
    when = 0.1 + 0.2  # not 0.3: the float itself must land
    seen = advance_in_process(sim, when)
    sim.run()
    assert seen == [(True, when)]
    assert sim.now == when


def test_advance_to_refuses_outside_the_kernel():
    sim = Simulator()
    assert sim.advance_to(1.0) is False
    assert sim.now == 0.0
    # Also after run(until=...) stopped inside its sentinel's callback.
    sim.timeout(0.5)
    sim.run(until=0.25)
    assert sim.advance_to(1.0) is False
    assert sim.now == 0.25


def test_advance_to_refuses_inside_one_of_two_callbacks():
    sim = Simulator()
    ev = sim.timeout(1.0)
    seen = []
    ev.callbacks.append(lambda e: seen.append(sim.advance_to(2.0)))
    ev.callbacks.append(lambda e: seen.append(sim.now))
    sim.run()
    assert seen == [False, 1.0]


def test_advance_to_refuses_when_an_event_sits_at_when():
    sim = Simulator()
    sim.timeout(2.0)
    seen = advance_in_process(sim, 2.0)
    sim.run()
    assert seen == [(False, 0.0)]


def test_advance_to_refuses_past_a_run_until_sentinel():
    for horizon in (1.0, 2.0):
        sim = Simulator()
        seen = advance_in_process(sim, 2.0)
        sim.run(until=horizon)
        assert seen == [(False, 0.0)]
        assert sim.now == horizon


def test_advance_to_rejects_the_past():
    sim = Simulator()
    errors = []

    def proc(sim):
        yield sim.timeout(1.0)
        with pytest.raises(ValueError, match="in the past"):
            sim.advance_to(0.5)
        errors.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert errors == [1.0]


def test_hold_lands_where_a_timeout_lands():
    def world(use_hold):
        sim = Simulator()
        seen = []

        def ticker(sim):
            for d in (0.1, 0.2, 0.7, 1e-9):
                if use_hold:
                    yield from sim.hold(d)
                else:
                    yield sim.timeout(d)
                seen.append(sim.now)

        def other(sim):
            yield sim.timeout(0.25)
            seen.append(("other", sim.now))

        sim.process(ticker(sim))
        sim.process(other(sim))
        sim.run()
        return seen

    assert world(True) == world(False)


def test_hold_yields_a_timeout_only_when_something_comes_first():
    sim = Simulator()
    got = []

    def proc(sim):
        got.append(sim.hold(1.0))  # the calendar is empty
        blocker = sim.timeout(1.5)
        got.append(sim.hold(1.0))  # blocker is after now + 1.0
        got.append(sim.hold(1.0))  # ... but not after now + 1.0 again
        yield blocker

    sim.process(proc(sim))
    sim.run()
    assert got[0] == () and got[1] == ()
    (timeout,) = got[2]
    assert isinstance(timeout, Timeout) and timeout.delay == 1.0
