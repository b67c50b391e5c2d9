"""Tests for the simulated CPU core model."""

import pytest

from repro.cpu import Core, CpuTopology
from repro.sim import Interrupt, Simulator, Timeout


def run_consumer(sim, core, cost, owner=None, log=None, name=""):
    def proc(sim):
        yield from core.consume(cost, owner=owner)
        if log is not None:
            log.append((name, sim.now))

    return sim.process(proc(sim))


def test_consume_advances_time_by_cost():
    sim = Simulator()
    core = Core(sim, 0)
    run_consumer(sim, core, 5e-3)
    sim.run()
    assert sim.now == pytest.approx(5e-3)
    assert core.stats.busy_time == pytest.approx(5e-3)


def test_speed_scales_duration():
    sim = Simulator()
    core = Core(sim, 0, speed=0.5)
    run_consumer(sim, core, 1e-3)
    sim.run()
    assert sim.now == pytest.approx(2e-3)


def test_core_serializes_two_processes():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=0.0)
    log = []
    run_consumer(sim, core, 1e-3, log=log, name="a")
    run_consumer(sim, core, 1e-3, log=log, name="b")
    sim.run()
    assert log == [("a", pytest.approx(1e-3)), ("b", pytest.approx(2e-3))]


def test_context_switch_charged_on_owner_change():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=10e-6)

    def proc(sim):
        yield from core.consume(1e-3, owner="worker")
        yield from core.consume(1e-3, owner="poller")   # switch
        yield from core.consume(1e-3, owner="poller")   # no switch
        yield from core.consume(1e-3, owner="worker")   # switch

    sim.process(proc(sim))
    sim.run()
    assert core.stats.context_switches == 2
    assert sim.now == pytest.approx(4e-3 + 2 * 10e-6)


def test_no_switch_charged_without_owner():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=10e-6)

    def proc(sim):
        yield from core.consume(1e-3)
        yield from core.consume(1e-3)

    sim.process(proc(sim))
    sim.run()
    assert core.stats.context_switches == 0


def test_kernel_crossing_cost_and_stats():
    sim = Simulator()
    core = Core(sim, 0, kernel_switch_cost=5e-6)

    def proc(sim):
        yield from core.kernel_crossing()
        yield from core.kernel_crossing(extra=3e-6)

    sim.process(proc(sim))
    sim.run()
    assert core.stats.kernel_crossings == 2
    assert sim.now == pytest.approx(2 * 5e-6 + 3e-6)


def test_negative_cost_rejected():
    sim = Simulator()
    core = Core(sim, 0)

    def proc(sim):
        yield from core.consume(-1.0)

    sim.process(proc(sim))
    with pytest.raises(ValueError):
        sim.run()


def test_invalid_speed():
    sim = Simulator()
    with pytest.raises(ValueError):
        Core(sim, 0, speed=0)


def test_topology_builds_cores():
    sim = Simulator()
    topo = CpuTopology(sim, 8, ht_efficiency=0.6)
    assert len(topo) == 8
    assert all(c.speed == 0.6 for c in topo.cores)
    assert topo[3].core_id == 3


def test_topology_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        CpuTopology(sim, 0)
    with pytest.raises(ValueError):
        CpuTopology(sim, 2, ht_efficiency=1.5)


def test_topology_total_busy_time():
    sim = Simulator()
    topo = CpuTopology(sim, 2)
    run_consumer(sim, topo[0], 1e-3)
    run_consumer(sim, topo[1], 2e-3)
    sim.run()
    assert topo.total_busy_time() == pytest.approx(3e-3)


def test_cores_run_in_parallel():
    sim = Simulator()
    topo = CpuTopology(sim, 2)
    log = []
    run_consumer(sim, topo[0], 1e-3, log=log, name="a")
    run_consumer(sim, topo[1], 1e-3, log=log, name="b")
    sim.run()
    # Both finish at t=1ms: different cores do not serialize.
    assert [t for _, t in log] == [pytest.approx(1e-3)] * 2


def record_pushes(sim):
    """Log every calendar entry pushed from now on."""
    pushed = []
    schedule = sim._schedule

    def recording(event, delay=0.0, **kw):
        pushed.append(event)
        schedule(event, delay, **kw)

    sim._schedule = recording
    return pushed


def test_uncontended_consume_pushes_one_timeout_and_zero_cost_none():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=10e-6)
    pushed = record_pushes(sim)
    counts = []

    def proc(sim):
        start = len(pushed)
        yield from core.consume(1e-3, owner="w")
        counts.append(pushed[start:])
        start = len(pushed)
        yield from core.consume(0.0, owner="w")
        counts.append(pushed[start:])

    sim.process(proc(sim))
    sim.run()
    timed, free = counts
    assert [(type(e), e.delay) for e in timed] == [(Timeout, 1e-3)]
    assert free == []
    assert core._lock.in_use == 0
    assert core.stats.busy_time == pytest.approx(1e-3)


def test_contended_consumers_granted_fifo_with_switch_costs():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=10e-6)
    log = []
    for name in ("a", "b", "c"):
        run_consumer(sim, core, 1e-3, owner=name, log=log, name=name)
    sim.run()
    assert log == [("a", pytest.approx(1e-3)),
                   ("b", pytest.approx(2e-3 + 10e-6)),
                   ("c", pytest.approx(3e-3 + 20e-6))]
    assert core.stats.context_switches == 2
    assert core.stats.switch_time == pytest.approx(20e-6)
    assert core._lock.in_use == 0


def test_interrupt_during_charge_frees_core_for_next_consumer():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=0.0)
    log = []

    def victim(sim):
        try:
            yield from core.consume(1e-3, owner="victim")
        except Interrupt:
            log.append(("victim", sim.now))

    proc = sim.process(victim(sim))
    run_consumer(sim, core, 1e-3, owner="next", log=log, name="next")
    sim.call_in(0.5e-3, proc.interrupt)
    sim.run()
    assert log == [("victim", pytest.approx(0.5e-3)),
                   ("next", pytest.approx(1.5e-3))]
    assert core._lock.in_use == 0


def test_interrupt_while_parked_leaves_core_to_owner_and_queue():
    sim = Simulator()
    core = Core(sim, 0, context_switch_cost=0.0)
    log = []

    def parked(sim):
        try:
            yield from core.consume(1e-3)
        except Interrupt:
            log.append(("parked", sim.now))

    run_consumer(sim, core, 1e-3, log=log, name="owner")
    proc = sim.process(parked(sim))
    run_consumer(sim, core, 1e-3, log=log, name="last")
    sim.call_in(0.5e-3, proc.interrupt)
    sim.run()
    assert log == [("parked", pytest.approx(0.5e-3)),
                   ("owner", pytest.approx(1e-3)),
                   ("last", pytest.approx(2e-3))]
    assert core._lock.in_use == 0
