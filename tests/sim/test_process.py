"""Unit tests for generator-based processes."""

import gc
import weakref

import pytest

from repro.sim import AnyOf, Interrupt, Simulator


def test_process_runs_and_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        return "finished"

    p = sim.process(proc(sim))
    sim.run()
    assert sim.now == 3.0
    assert p.value == "finished"


def test_process_requires_generator():
    sim = Simulator()

    def not_a_gen(sim):
        return 42

    with pytest.raises(TypeError, match="generator"):
        sim.process(not_a_gen(sim))


def test_yield_value_of_timeout():
    sim = Simulator()
    got = []

    def proc(sim):
        v = yield sim.timeout(1.0, value="abc")
        got.append(v)

    sim.process(proc(sim))
    sim.run()
    assert got == ["abc"]


def test_process_waits_on_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(2.0)
        return 7

    def parent(sim):
        v = yield sim.process(child(sim))
        return v * 2

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == 14


def test_yield_already_processed_event():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)
        return "early"

    c = sim.process(child(sim))

    def parent(sim):
        yield sim.timeout(5.0)
        v = yield c  # processed long ago
        return v

    p = sim.process(parent(sim))
    sim.run()
    assert p.value == "early"
    assert sim.now == 5.0


def test_exception_in_process_propagates_from_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise KeyError("oops")

    sim.process(bad(sim))
    with pytest.raises(KeyError):
        sim.run()


def test_exception_catchable_by_waiting_process():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise KeyError("oops")

    def guard(sim):
        try:
            yield sim.process(bad(sim))
        except KeyError:
            return "caught"
        return "missed"

    p = sim.process(guard(sim))
    sim.run()
    assert p.value == "caught"


def test_failed_event_thrown_into_process():
    sim = Simulator()
    ev = sim.event()

    def proc(sim):
        try:
            yield ev
        except ValueError as e:
            return str(e)

    p = sim.process(proc(sim))
    sim.call_at(sim.now + 1.0, lambda: ev.fail(ValueError("bang")))
    sim.run()
    assert p.value == "bang"


def test_yield_non_event_fails_process():
    sim = Simulator()

    def proc(sim):
        yield 42

    sim.process(proc(sim))
    with pytest.raises(RuntimeError, match="must.*yield Event"):
        sim.run()


@pytest.mark.parametrize("ending", ["return", "bad-yield"])
def test_finished_process_is_freed_without_the_cyclic_gc(ending):
    """A process keeps one bound ``_resume`` for all its waits; ending
    drops it, so no process <-> method cycle keeps the process (and
    its generator) alive."""
    def proc(sim):
        yield sim.timeout(1.0)
        if ending == "bad-yield":
            yield 42

    def later(sim):
        yield sim.timeout(2.0)

    gc.disable()
    try:
        sim = Simulator()
        gen = proc(sim)
        ref = weakref.ref(gen)
        p = sim.process(gen)
        p.callbacks.append(lambda ev: ev.defuse())
        sim.process(later(sim))  # so sim.active_process moves past p
        del gen
        sim.run()
        assert p.processed and p.ok == (ending == "return")
        del p
        assert ref() is None
    finally:
        gc.enable()


def test_interrupt_resumes_with_exception():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as i:
            log.append(("interrupted", sim.now, i.cause))

    p = sim.process(sleeper(sim))
    sim.call_at(sim.now + 2.0, lambda: p.interrupt("wakeup"))
    sim.run()
    assert log == [("interrupted", 2.0, "wakeup")]


def test_interrupt_dead_process_raises():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.process(quick(sim))
    sim.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_is_alive_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_anyof_fires_on_first():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1.0, value="fast")
        t2 = sim.timeout(5.0, value="slow")
        results = yield sim.any_of([t1, t2])
        return (sim.now, results[t1])

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (1.0, "fast")


def test_anyof_empty_fires_immediately():
    sim = Simulator()
    cond = AnyOf(sim, [])
    assert cond.triggered


def test_anyof_propagates_failure():
    sim = Simulator()
    ev = sim.event()

    def proc(sim):
        try:
            yield AnyOf(sim, [ev, sim.timeout(10.0)])
        except RuntimeError as e:
            return f"caught {e}"

    p = sim.process(proc(sim))
    sim.call_at(sim.now + 1.0, lambda: ev.fail(RuntimeError("x")))
    sim.run()
    assert p.value == "caught x"


def test_two_processes_interleave():
    sim = Simulator()
    log = []

    def ticker(sim, name, period):
        for _ in range(3):
            yield sim.timeout(period)
            log.append((name, sim.now))

    sim.process(ticker(sim, "a", 1.0))
    sim.process(ticker(sim, "b", 1.5))
    sim.run()
    # At t=3.0 both fire; b's timeout was scheduled earlier (t=1.5 vs
    # t=2.0), so FIFO-by-schedule-order places b first.
    assert log == [("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0),
                   ("a", 3.0), ("b", 4.5)]
