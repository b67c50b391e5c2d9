"""Tests for the simulated CPU core model."""

import pytest

from repro.cpu import Core, CpuTopology
from repro.cpu.core import CONTEXT_SWITCH_COST, KERNEL_SWITCH_COST
from repro.net import Link, socket_pair
from repro.sim import Interrupt, Simulator, Timeout
from repro.sim.kernel import UnsettledDebt


def run_consumer(sim, core, cost, owner=None, log=None, name=""):
    def proc(sim):
        core.consume(cost, owner=owner)
        yield from core.settle()
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


def test_core_serializes_two_processes():
    sim = Simulator()
    core = Core(sim, 0)
    log = []
    run_consumer(sim, core, 1e-3, log=log, name="a")
    run_consumer(sim, core, 1e-3, log=log, name="b")
    sim.run()
    assert log == [("a", pytest.approx(1e-3)), ("b", pytest.approx(2e-3))]


def test_context_switch_charged_on_owner_change():
    sim = Simulator()
    core = Core(sim, 0)

    def proc(sim):
        core.consume(1e-3, owner="worker")
        yield from core.settle()
        core.consume(1e-3, owner="poller")   # switch
        yield from core.settle()
        core.consume(1e-3, owner="poller")   # no switch
        yield from core.settle()
        core.consume(1e-3, owner="worker")   # switch
        yield from core.settle()

    sim.process(proc(sim))
    sim.run()
    assert core.stats.context_switches == 2
    assert sim.now == pytest.approx(4e-3 + 2 * CONTEXT_SWITCH_COST)


def test_no_switch_charged_without_owner():
    sim = Simulator()
    core = Core(sim, 0)

    def proc(sim):
        core.consume(1e-3)
        yield from core.settle()
        core.consume(1e-3)
        yield from core.settle()

    sim.process(proc(sim))
    sim.run()
    assert core.stats.context_switches == 0


def test_kernel_crossing_cost_and_stats():
    sim = Simulator()
    core = Core(sim, 0)

    def proc(sim):
        core.kernel_crossing()
        yield from core.settle()
        core.kernel_crossing(extra=3e-6)
        yield from core.settle()

    sim.process(proc(sim))
    sim.run()
    assert core.stats.kernel_crossings == 2
    assert sim.now == pytest.approx(2 * KERNEL_SWITCH_COST + 3e-6)


def test_negative_cost_rejected():
    sim = Simulator()
    core = Core(sim, 0)

    def proc(sim):
        core.consume(-1.0)
        yield from core.settle()

    sim.process(proc(sim))
    with pytest.raises(ValueError):
        sim.run()


def test_topology_builds_cores():
    sim = Simulator()
    topo = CpuTopology(sim, 8)
    assert len(topo) == 8
    assert topo[3].core_id == 3


def test_topology_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        CpuTopology(sim, 0)


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
    core = Core(sim, 0)
    # An event before the chain's due time keeps the Timeout path.
    sim.call_at(0.5e-3, lambda: None)
    pushed = record_pushes(sim)
    counts = []

    def proc(sim):
        start = len(pushed)
        core.consume(1e-3, owner="w")
        yield from core.settle()
        counts.append(pushed[start:])
        start = len(pushed)
        core.consume(0.0, owner="w")
        yield from core.settle()
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
    core = Core(sim, 0)
    log = []
    for name in ("a", "b", "c"):
        run_consumer(sim, core, 1e-3, owner=name, log=log, name=name)
    sim.run()
    assert log == [("a", pytest.approx(1e-3)),
                   ("b", pytest.approx(2e-3 + CONTEXT_SWITCH_COST)),
                   ("c", pytest.approx(3e-3 + 2 * CONTEXT_SWITCH_COST))]
    assert core.stats.context_switches == 2
    assert core.stats.switch_time == pytest.approx(2 * CONTEXT_SWITCH_COST)
    assert core._lock.in_use == 0


def test_interrupt_during_charge_frees_core_for_next_consumer():
    sim = Simulator()
    core = Core(sim, 0)
    log = []

    def victim(sim):
        try:
            core.consume(1e-3)
            yield from core.settle()
        except Interrupt:
            log.append(("victim", sim.now))

    proc = sim.process(victim(sim))
    run_consumer(sim, core, 1e-3, log=log, name="next")
    sim.call_at(sim.now + 0.5e-3, proc.interrupt)
    sim.run()
    assert log == [("victim", pytest.approx(0.5e-3)),
                   ("next", pytest.approx(1.5e-3))]
    assert core._lock.in_use == 0


def test_interrupt_while_parked_leaves_core_to_owner_and_queue():
    sim = Simulator()
    core = Core(sim, 0)
    log = []

    def parked(sim):
        try:
            core.consume(1e-3)
            yield from core.settle()
        except Interrupt:
            log.append(("parked", sim.now))

    run_consumer(sim, core, 1e-3, log=log, name="owner")
    proc = sim.process(parked(sim))
    run_consumer(sim, core, 1e-3, log=log, name="last")
    sim.call_at(sim.now + 0.5e-3, proc.interrupt)
    sim.run()
    assert log == [("parked", pytest.approx(0.5e-3)),
                   ("owner", pytest.approx(1e-3)),
                   ("last", pytest.approx(2e-3))]
    assert core._lock.in_use == 0


# -- deferred charging: one settle per chain -----------------------------------

CHAIN = [(3e-7, "w"), (1.1e-6, "w"), (0.0, None), (2.9e-5, "p"),
         (7e-7, None), (4.3e-6, "w")]


def run_chain(sim, core, chain, settle_each=False):
    def proc(sim):
        for cost, owner in chain:
            if owner is None:
                core.kernel_crossing(extra=cost)
            else:
                core.consume(cost, owner=owner)
            if settle_each:
                yield from core.settle()
        yield from core.settle()

    return sim.process(proc(sim))


def stats_of(core):
    s = core.stats
    return (s.busy_time, s.context_switches, s.switch_time,
            s.kernel_crossings, s.kernel_time)


def test_back_to_back_charges_settle_as_one_kernel_event():
    sim = Simulator()
    core = Core(sim, 0)
    # An event before the chain's due time keeps the Timeout path.
    sim.call_at(1e-7, lambda: None)
    pushed = record_pushes(sim)
    run_chain(sim, core, CHAIN)
    sim.run()
    # The process's boot, the chain's one Timeout and the exit.
    assert len(pushed) == 3
    assert [type(e) for e in pushed].count(Timeout) == 1
    assert core._lock.in_use == 0


def test_chain_settled_in_an_empty_calendar_pushes_no_event():
    sim = Simulator()
    core = Core(sim, 0)
    pushed = record_pushes(sim)
    proc = run_chain(sim, core, CHAIN)
    sim.run()
    # Only the process's boot and its exit: the settle's Timeout would
    # have been the next event, so the kernel moved time without it.
    assert pushed == [pushed[0], proc]
    # ... to the float a Timeout per charge ends at.
    ref = Simulator()
    eager = Core(ref, 0)
    eager.eager = True
    run_chain(ref, eager, CHAIN)
    ref.run()
    assert sim.now == ref.now
    assert core._lock.in_use == 0
    assert sim.debtor is None


def test_settle_without_an_event_hands_the_core_to_a_waiter():
    sim = Simulator()
    core = Core(sim, 0)
    log = []

    def holder(sim):
        core.consume(1e-3, owner="h")
        yield from core.settle()
        yield sim.event()  # parks for good, so it never exits

    def claimer(sim):
        yield from core.claim()
        core.consume(1e-3, owner="c")
        yield from core.settle()
        log.append(("c", sim.now))

    sim.process(holder(sim))
    sim.process(claimer(sim))
    run_consumer(sim, core, 1e-3, owner="w", log=log, name="w")
    pushed = record_pushes(sim)
    sim.run()
    # The claimer is granted the core at 1 ms with nothing else
    # scheduled, so its settle pushes no Timeout; its release still
    # grants the waiter at the claimer's due time. Pushed: the
    # holder's Timeout, two grants, the claimer's exit, the waiter's
    # Timeout and its exit.
    c_due = 1e-3 + (1e-3 + CONTEXT_SWITCH_COST)
    assert log == [("c", c_due), ("w", c_due + (1e-3 + CONTEXT_SWITCH_COST))]
    assert len(pushed) == 6
    assert core._lock.in_use == 0


def test_settled_time_is_the_sequential_float_sum():
    sim = Simulator()
    sim.call_at(3.7e-3, lambda: None)
    sim.run()
    core = Core(sim, 0)
    run_chain(sim, core, CHAIN)
    sim.run()
    # The same charges, one Timeout each, added one after another.
    ref = Simulator()
    ref.call_at(3.7e-3, lambda: None)
    ref.run()
    one_by_one = Core(ref, 0)
    run_chain(ref, one_by_one, CHAIN, settle_each=True)
    ref.run()
    assert sim.now == ref.now


def test_settle_far_past_now_lands_exactly_on_the_sum():
    # When the debt dwarfs the current time, now + (due - now) can
    # round off the sum; the settle schedules the sum itself.
    sim = Simulator()
    sim.call_at(2.0 ** -53, lambda: None)
    sim.run()
    core = Core(sim, 0)
    costs = [1.0, 2.0 ** -52]
    due = sim.now
    for c in costs:
        due += c
    assert sim.now + (due - sim.now) != due

    def proc(sim):
        for c in costs:
            core.consume(c)
        yield from core.settle()

    sim.process(proc(sim))
    sim.run()
    assert sim.now == due


def test_deferred_chain_books_the_same_stats_as_eager_charges():
    sim = Simulator()
    core = Core(sim, 0)
    run_chain(sim, core, CHAIN)
    sim.run()
    ref = Simulator()
    eager = Core(ref, 0)
    eager.eager = True
    run_chain(ref, eager, CHAIN)
    ref.run()
    assert stats_of(core) == stats_of(eager)
    assert sim.now == ref.now
    assert core.stats.context_switches == 2
    assert core.stats.kernel_crossings == 2


def test_interrupt_during_a_chain_settle_releases_the_core():
    sim = Simulator()
    core = Core(sim, 0)
    log = []

    def victim(sim):
        try:
            for _ in range(4):
                core.consume(0.25e-3)
            yield from core.settle()
        except Interrupt:
            log.append(("victim", sim.now))

    proc = sim.process(victim(sim))
    run_consumer(sim, core, 1e-3, log=log, name="next")
    sim.call_at(sim.now + 0.5e-3, proc.interrupt)
    sim.run()
    assert log == [("victim", pytest.approx(0.5e-3)),
                   ("next", pytest.approx(1.5e-3))]
    assert core._lock.in_use == 0
    assert sim.debtor is None


def test_chain_started_on_a_held_core_waits_for_the_holders_settle():
    sim = Simulator()
    core = Core(sim, 0)
    log = []

    def chain(name, n):
        def proc(sim):
            for _ in range(n):
                core.consume(1e-3, owner=name)
            yield from core.settle()
            log.append((name, sim.now))
        return proc(sim)

    sim.process(chain("a", 2))
    sim.process(chain("b", 1))
    sim.run()
    # b's charge found a's chain holding the core: it ran after the
    # whole chain, paying one switch decided when it was granted.
    assert log == [("a", pytest.approx(2e-3)),
                   ("b", pytest.approx(3e-3 + CONTEXT_SWITCH_COST))]
    assert core.stats.context_switches == 1


def test_eager_core_interleaves_worker_and_poller_per_charge():
    sim = Simulator()
    core = Core(sim, 0)
    core.eager = True
    order = []
    start = {}

    def worker(sim):
        for i in range(3):
            core.consume(10e-6, owner="worker")
        start["w"] = sim.now
        yield from core.settle()
        order.append(("worker-done", sim.now))

    def poller(sim):
        yield sim.timeout(5e-6)  # arrives during the worker's 1st charge
        core.consume(2e-6, owner="poller")
        yield from core.settle()
        order.append(("poller-done", sim.now))

    sim.process(worker(sim))
    sim.process(poller(sim))
    sim.run()
    # The poller got the core after the worker's first charge, not
    # after its whole chain; both sides paid a switch.
    assert order == [("poller-done",
                      pytest.approx(10e-6 + 2e-6 + CONTEXT_SWITCH_COST)),
                     ("worker-done",
                      pytest.approx(30e-6 + 2e-6 + 2 * CONTEXT_SWITCH_COST))]
    assert core.stats.context_switches == 2


def test_clock_reads_the_time_the_chain_settles_at():
    sim = Simulator()
    core = Core(sim, 0)
    seen = []

    def proc(sim):
        seen.append(core.clock())
        core.consume(1e-3)
        core.consume(2e-3)
        seen.append(core.clock())
        yield from core.settle()
        seen.append((sim.now, core.clock()))

    sim.process(proc(sim))
    sim.run()
    assert seen == [0.0, 1e-3 + 2e-3, (1e-3 + 2e-3, 1e-3 + 2e-3)]


# -- the unsettled-debt guard ------------------------------------------------------

def test_yielding_with_unsettled_debt_fails_the_process():
    sim = Simulator()
    core = Core(sim, 0)

    def forgetful(sim):
        yield sim.timeout(1e-3)
        core.consume(5e-6)
        yield sim.timeout(1e-3)  # missing settle

    sim.process(forgetful(sim), name="forgetful")
    with pytest.raises(UnsettledDebt, match=r"t=0\.001 .*'forgetful'"):
        sim.run()


def test_holding_with_unsettled_debt_fails_the_process():
    # An empty calendar, so hold() would otherwise move time itself.
    sim = Simulator()
    core = Core(sim, 0)

    def forgetful(sim):
        core.consume(5e-6)
        yield from sim.hold(1e-3)  # missing settle

    sim.process(forgetful(sim), name="forgetful")
    with pytest.raises(UnsettledDebt, match=r"t=0\.0 .*'forgetful'"):
        sim.run()


def test_observable_act_with_unsettled_debt_trips_the_guard():
    sim = Simulator()
    core = Core(sim, 0)
    a, b = socket_pair(sim, Link(sim, 0.0), Link(sim, 0.0), label="c")

    def sender(sim):
        yield sim.timeout(2e-3)
        core.consume(5e-6)
        a.send(b"early")  # missing settle
        yield from core.settle()

    sim.process(sender(sim), name="sender")
    with pytest.raises(UnsettledDebt,
                       match=r"send on c-a at t=0\.002 .*'sender'"):
        sim.run()


def test_charging_a_second_core_before_settling_the_first_fails():
    sim = Simulator()
    c0, c1 = Core(sim, 0), Core(sim, 1)

    def proc(sim):
        c0.consume(1e-6)
        c1.consume(1e-6)
        yield from c1.settle()

    sim.process(proc(sim))
    with pytest.raises(UnsettledDebt, match="a charge on core1"):
        sim.run()


def test_claim_waits_for_the_core_and_keeps_it():
    sim = Simulator()
    core = Core(sim, 0)
    seen = []

    def holder(sim):
        core.consume(1e-3)
        yield from core.settle()

    def claimer(sim):
        yield from core.claim()
        seen.append(("claimed", sim.now))
        core.consume(1e-3)
        yield from core.settle()
        seen.append(("claimer done", sim.now))

    def late(sim):
        yield sim.timeout(1.5e-3)
        core.consume(1e-3)  # the claimer's chain holds the core
        yield from core.settle()
        seen.append(("late done", sim.now))

    sim.process(holder(sim))
    sim.process(claimer(sim))
    sim.process(late(sim))
    sim.run()
    assert seen == [("claimed", pytest.approx(1e-3)),
                    ("claimer done", pytest.approx(2e-3)),
                    ("late done", pytest.approx(3e-3))]
    assert core._lock.in_use == 0
