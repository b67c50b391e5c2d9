"""Unit and integration tests for the worker event loop: stage
ordering determinism, the epoll-timeout choice, teardown (timer stop
must strand no stale tick; interrupt disarm must close the coalescing
window), the failover-sweep mode guard, and the stub_status
``reactor:`` section."""

import pytest

from repro.bench.runner import Testbed
from repro.core.costmodel import CostModel
from repro.cpu import Core
from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.offload.engine import AsyncOffloadEngine
from repro.offload.pool import InstancePool, StaticPolicy
from repro.qat import QatDevice
from repro.server.polling.interrupt_mode import InterruptRetriever
from repro.server.polling.timer_thread import TimerPollingThread
from repro.sim import Simulator
from repro.ssl.async_job import FiberAsyncJob
from repro.tls.actions import CryptoCall


def make_bed(config="QTLS", seed=9, n_clients=8, **kw):
    bed = Testbed(config, workers=2, suites=("TLS-RSA",), seed=seed, **kw)
    bed.add_s_time_fleet(n_clients=n_clients)
    return bed


def stage_names(worker):
    return list(worker.reactor.snapshot())


def make_engine(sim):
    dev = QatDevice(sim, n_endpoints=1)
    backend = InstancePool(sim, dev.allocate_instances(1), 1,
                           StaticPolicy()).register(0)
    return AsyncOffloadEngine(backend, Core(sim, 0), CostModel())


def submit_one(sim, eng, result="r"):
    job = FiberAsyncJob(lambda: iter(()), kind="h")
    job.mark_paused(None)

    def proc(sim):
        ok = yield from eng.submit_async(
            CryptoCall(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048),
                       compute=lambda: result), job, "w")
        yield from eng.core.settle()
        assert ok

    sim.process(proc(sim))
    return job


# -- stage ordering determinism -------------------------------------------------

RETRIEVAL_CONFIGS = [
    ("QTLS", {}, "heuristic"),
    ("QAT+AH", {}, "heuristic"),
    ("QAT+A", {}, "timer-poll"),
    ("QTLS", {"qat_notify_mode": "interrupt"}, "interrupt"),
]


@pytest.mark.parametrize("config,overrides,retrieval", RETRIEVAL_CONFIGS)
def test_retrieval_mode_runs_through_reactor_source(config, overrides,
                                                    retrieval):
    bed = make_bed(config, **overrides)
    bed.sim.run(until=0.04)
    for w in bed.server.workers:
        names = stage_names(w)
        assert retrieval in names, names
        # Exactly one retrieval scheme per worker.
        assert sum(n in ("heuristic", "timer-poll", "interrupt")
                   for n in names) == 1
        assert sum(x is not None for x in (
            w.poller, w.timer_thread, w.interrupt_retriever)) == 1
        # The retrieval scheme actually retrieved something.
        count = {"heuristic": lambda: w.poller.polls,
                 "timer-poll": lambda: w.timer_thread.polls,
                 "interrupt": lambda: w.interrupt_retriever.interrupts,
                 }[retrieval]()
        assert count > 0


@pytest.mark.parametrize("config,overrides,retrieval", RETRIEVAL_CONFIGS)
def test_source_order_is_deterministic(config, overrides, retrieval):
    """Identically-configured workers list identical stages, and a
    rebuilt world reproduces them exactly — the stub_status ``reactor:``
    line and the tracer timelines follow this order."""
    beds = [make_bed(config, **overrides) for _ in range(2)]
    orders = [[stage_names(w) for w in bed.server.workers]
              for bed in beds]
    assert orders[0] == orders[1]
    per_bed = orders[0]
    assert per_bed[0] == per_bed[1]  # both workers identical
    # Pollable routing always precedes the end-of-pass stages.
    names = per_bed[0]
    assert names[:3] == ["listener", "notify-fd", "socket"]
    assert names.index("async-queue") < names.index("retries") \
        < names.index("drain")


def test_stage_order_matches_historical_pipeline():
    bed = make_bed("QTLS", qat_batch_size=4, offload_admission_limit=8,
                   qat_watchdog_interval=1e-3, qat_failover_timer=1e-3)
    w = bed.server.workers[0]
    assert stage_names(w) == [
        "listener", "notify-fd", "socket",
        "async-queue", "retries", "heuristic", "batch-flush", "admission",
        "drain",
        # Background sweeps ride at the tail.
        "failover", "watchdog"]


# -- epoll timeout ---------------------------------------------------------------

def test_arbiter_unconstrained_when_idle():
    bed = make_bed("QTLS")
    w = bed.server.workers[0]
    before = w.reactor.snapshot()
    assert w._next_timeout() is None
    assert w.reactor.snapshot() == before  # no stage credited


def test_arbiter_spins_while_inflight_and_credits_heuristic():
    from repro.server.reactor import SPIN_TIMEOUT
    bed = make_bed("QTLS")
    w = bed.server.workers[0]
    eng = w.engine
    submit_one(bed.sim, eng)
    bed.sim.run(until=1e-5)
    before = w.reactor.stages["heuristic"].wakes
    assert w._next_timeout() == SPIN_TIMEOUT
    assert w.reactor.stages["heuristic"].wakes == before + 1


def test_arbiter_prefers_earliest_deadline():
    """A due retry (delta 0 at its deadline) must beat the spin
    timeout, and the async queue's zero beats everything; the stage
    that set the timeout is credited the wake."""
    bed = make_bed("QTLS")
    w = bed.server.workers[0]
    submit_one(bed.sim, w.engine)
    bed.sim.run(until=1e-5)

    class Conn:
        retry_not_before = bed.sim.now

    w.retries.append((Conn(), 0))
    retries = w.reactor.stages["retries"].wakes
    assert w._next_timeout() == 0.0
    assert w.reactor.stages["retries"].wakes == retries + 1

    w.async_queue.append(object())
    queue = w.reactor.stages["async-queue"].wakes
    assert w._next_timeout() == 0.0
    assert w.reactor.stages["async-queue"].wakes == queue + 1
    assert w.reactor.stages["retries"].wakes == retries + 1
    w.async_queue.clear()
    w.retries.clear()


# -- failover sweep: mode guard (satellite regression) -------------------------

@pytest.mark.parametrize("config,overrides", [
    ("QAT+A", {}),                                   # timer retrieval
    ("QTLS", {"qat_notify_mode": "interrupt"}),      # interrupt retrieval
])
def test_failover_timer_safe_under_non_heuristic_modes(config, overrides):
    """Regression: a failover timer configured alongside timer or
    interrupt retrieval must neither crash the worker nor register the
    sweep — those schemes run out of loop and cannot stall below a
    poll threshold, so the sweep only backs up heuristic polling."""
    bed = make_bed(config, qat_failover_timer=1e-3, **overrides)
    bed.sim.run(until=0.04)
    for w in bed.server.workers:
        assert "failover" not in stage_names(w)
    assert len(bed.metrics.handshakes) > 0


def test_failover_sweep_registers_and_runs_under_heuristic():
    """With the heuristic check muted, the failover sweep is the only
    thing that polls: its rescue polls alone complete handshakes."""
    bed = make_bed("QTLS", qat_failover_timer=1e-3)
    rescues = []
    for w in bed.server.workers:
        assert "failover" in stage_names(w)
        w.poller.should_poll = lambda: False
        eng = w.engine
        poll = eng.poll_and_dispatch

        def spy(owner, _poll=poll):
            rescues.append(owner)
            return _poll(owner)

        eng.poll_and_dispatch = spy
    bed.sim.run(until=0.04)
    assert rescues and set(rescues) == {"failover"}
    assert len(bed.metrics.handshakes) > 0


# -- timer thread stop: no stale tick (satellite regression) -------------------

def test_timer_stop_cancels_pending_tick():
    """stop() between ticks must interrupt the sleeping process: no
    poll may run after stop, and the process must be dead — a killed
    worker strands no stale tick against a dead engine."""
    sim = Simulator()
    engine = make_engine(sim)
    thread = TimerPollingThread(sim, engine, interval=10e-6)
    thread.start()
    stopped = {}

    def stop_midway():
        thread.stop()
        stopped["polls"] = thread.polls

    sim.call_at(55e-6, stop_midway)  # between the 50us and 60us ticks
    sim.run(until=2e-3)
    assert stopped["polls"] == 5
    assert thread.polls == 5, "a stale tick polled after stop()"


def test_timer_stop_is_idempotent_and_prestart_safe():
    sim = Simulator()
    thread = TimerPollingThread(sim, make_engine(sim), interval=10e-6)
    thread.stop()        # never started: no-op
    thread.start()
    sim.run(until=35e-6)
    thread.stop()
    thread.stop()        # double stop: no-op
    sim.run(until=1e-3)
    assert thread.polls == 3


def test_worker_kill_stops_timer_thread_via_reactor():
    bed = make_bed("QAT+A", n_clients=6)
    bed.sim.run(until=0.02)
    w = bed.server.workers[0]
    thread = w.timer_thread
    assert thread.polls > 0
    w.kill()
    polls_at_kill = thread.polls
    bed.sim.run(until=0.03)
    assert thread.polls == polls_at_kill


# -- interrupt retriever: disarm-while-coalescing (satellite regression) -------

def test_disarm_during_coalescing_window_fizzles():
    """A response lands, the interrupt starts coalescing, and the
    worker dies before the moderation window elapses: the scheduled
    service must fizzle — no interrupt charged, no dispatch into the
    dead engine — and the response stays in the ring for whoever owns
    the instance next."""
    sim = Simulator()
    eng = make_engine(sim)
    irq = InterruptRetriever(sim, eng)
    irq.arm()
    inst = eng.backend.instances[0]

    def hook(ring):
        irq._on_response(ring)   # schedules service at +COALESCE_WINDOW
        irq.disarm()             # teardown lands inside the window

    inst.set_response_callback(hook)
    job = submit_one(sim, eng)
    sim.run()
    assert irq.interrupts == 0
    assert not job.response_ready
    assert eng.inflight.total == 1  # never dispatched

    # The response was not lost: a manual poll still retrieves it.
    def poll(sim):
        yield from eng.poll_and_dispatch(owner="w")
        yield from eng.core.settle()

    p = sim.process(poll(sim))
    sim.run(until=p)
    assert job.response_ready
    assert eng.inflight.total == 0


def test_worker_kill_disarms_interrupt_source():
    bed = make_bed("QTLS", n_clients=6, qat_notify_mode="interrupt")
    bed.sim.run(until=0.02)
    w = bed.server.workers[0]
    irq = w.interrupt_retriever
    assert irq.interrupts > 0
    w.kill()
    count_at_kill = irq.interrupts
    bed.sim.run(until=0.03)
    assert irq.interrupts == count_at_kill
    assert not irq._armed


# -- stats plumbing ------------------------------------------------------------

def test_stub_status_renders_reactor_section():
    bed = make_bed("QTLS")
    bed.sim.run(until=0.03)
    w = bed.server.workers[0]
    page = w.stub_status.render()
    assert "reactor: " in page
    for name in stage_names(w):
        assert f"{name}[wakes " in page


def test_reading_the_page_never_samples_the_tracer():
    """Reads are pure: fingerprinting a traced world, which reads every
    worker's stub_status page, adds no point to any reactor timeline.
    Those are sampled only at watchdog ticks and shutdown."""
    from repro.testing.scenario import fingerprint
    bed = make_bed("QTLS", trace=True, qat_watchdog_interval=1e-3)
    bed.sim.run(until=0.0305)  # mid-way between two watchdog ticks

    def reactor_points():
        return {name: len(tl) for name, tl in bed.tracer.timelines.items()
                if name.startswith("w") and ".reactor." in name}

    before = reactor_points()
    assert before, "the watchdog ticks published no reactor timeline"
    fingerprint(bed)
    for w in bed.server.workers:
        w.stub_status.render()
    assert reactor_points() == before


def test_reactor_stats_not_in_fingerprinted_counters():
    """The reactor section is render-only: ``counters()`` feeds replay
    fingerprints, which must stay stable across loop refactors."""
    bed = make_bed("QTLS")
    bed.sim.run(until=0.02)
    w = bed.server.workers[0]
    counters = w.stub_status.counters()
    assert not any("reactor" in k or "wakes" in k for k in counters)


def test_reactor_snapshot_orders_and_counts():
    bed = make_bed("QTLS", qat_watchdog_interval=1e-3)
    bed.sim.run(until=0.04)
    w = bed.server.workers[0]
    snap = w.reactor.snapshot()
    assert list(snap) == stage_names(w)
    assert all(set(s) == {"wakes", "events", "busy"}
               for s in snap.values())
    assert snap["socket"]["events"] > 0
    assert snap["heuristic"]["wakes"] > 0
    total_busy = sum(s["busy"] for s in snap.values())
    assert total_busy > 0


def test_heuristic_busy_is_the_time_spent_in_poller_check():
    """Each stage's time is counted once: the heuristic stage's busy is
    exactly the sim time spent inside ``poller.check``, whether the
    check ran after a handler or at the end of a pass."""
    bed = make_bed("QTLS", qat_batch_size=4)
    spent = {}
    for w in bed.server.workers:
        check = w.poller.check

        def timed(owner, _check=check, _w=w):
            yield from _w.core.settle()
            t0 = bed.sim.now
            jobs = yield from _check(owner)
            yield from _w.core.settle()
            spent[_w.worker_id] = (spent.get(_w.worker_id, 0.0)
                                   + (bed.sim.now - t0))
            return jobs

        w.poller.check = timed
    bed.sim.run(until=0.04)
    for w in bed.server.workers:
        assert spent[w.worker_id] > 0
        assert (spent[w.worker_id]
                == w.reactor.snapshot()["heuristic"]["busy"])
