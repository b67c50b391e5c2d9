"""Offload-backend seam tests: the QAT adapter and the engine's
submission batching (coalescing, flush triggers, flow control,
failover of queued ops)."""

from repro.crypto.ops import OpCategory
from repro.offload.engine import BATCH_TIMEOUT, BUSY_POLL_SLICE
from repro.offload.health import FAILURE_THRESHOLD
from repro.testing import make_job, make_qat_env, rsa_call


def _job():
    return make_job(kind="handshake")


def make_env(n_instances=1, ring_capacity=64, **engine_kw):
    env = make_qat_env(n_instances=n_instances,
                       ring_capacity=ring_capacity, **engine_kw)
    return env.sim, env.core, env.engine


# -- QAT backend adapter ----------------------------------------------------------

def test_poll_rotation_is_starvation_free():
    """A bounded poll budget must not always drain instance 0 first."""
    sim, core, eng = make_env(n_instances=2)
    seen = []

    def proc(sim):
        for lane in (0, 1):
            job = _job()
            job.mark_paused(rsa_call(f"r{lane}"))
            yield from eng.submit_async(rsa_call(f"r{lane}"), job,
                                        owner="w")
            yield from eng.core.settle()
        yield sim.timeout(5e-3)  # both responses landed
        for _ in range(2):
            for c in eng.backend.poll_completions(max_responses=1):
                seen.append(c.result)

    sim.process(proc(sim))
    sim.run()
    # Round-robin submission put one op on each lane; the rotating
    # poll start retrieves one per budget-1 poll, from both lanes.
    assert sorted(seen) == ["r0", "r1"]


def test_capacity_hint_is_lane_and_category_aware():
    sim, core, eng = make_env(ring_capacity=8)
    backend = eng.backend
    cap = backend.capacity_hint(lane=0, category=OpCategory.ASYM)
    assert cap == 8

    def proc(sim):
        job = _job()
        job.mark_paused(rsa_call())
        yield from eng.submit_async(rsa_call(), job, owner="w")
        yield from eng.core.settle()

    sim.process(proc(sim))
    sim.run(until=1e-4)
    assert backend.capacity_hint(lane=0, category=OpCategory.ASYM) == 7
    assert backend.capacity_hint(lane=0, category=OpCategory.CIPHER) == 8


def test_coalesced_submit_cost_amortizes_doorbell():
    sim, core, eng = make_env()
    one = eng.backend.submit_cpu_cost(1)
    four = eng.backend.submit_cpu_cost(4)
    assert four < 4 * one
    assert four > one


# -- submission batching -------------------------------------------------------------

def test_batch_flushes_when_full():
    sim, core, eng = make_env(batch_size=4)
    jobs = [_job() for _ in range(4)]

    def proc(sim):
        for i, job in enumerate(jobs):
            job.mark_paused(rsa_call(f"r{i}"))
            ok = yield from eng.submit_async(rsa_call(f"r{i}"), job,
                                             owner="w")
            yield from eng.core.settle()
            assert ok
            if i < 3:  # still coalescing
                assert eng.backend.instances[0].submitted == 0
                assert eng.queued_batch_ops == i + 1

    sim.process(proc(sim))
    sim.run(until=1e-4)
    assert eng.backend.instances[0].submitted == 4
    assert eng.queued_batch_ops == 0
    assert eng.batches_submitted == 1
    assert eng.batch_ops == 4
    assert eng.mean_batch_size == 4.0
    assert eng.inflight.total == 4  # queued ops stayed accounted


def test_partial_batch_flushes_on_timeout():
    sim, core, eng = make_env(batch_size=8)
    job = _job()

    def proc(sim):
        job.mark_paused(rsa_call())
        yield from eng.submit_async(rsa_call(), job, owner="w")
        yield from eng.core.settle()
        assert eng.backend.instances[0].submitted == 0  # parked in the queue

    sim.process(proc(sim))
    sim.run(until=0.8 * BATCH_TIMEOUT)
    assert eng.backend.instances[0].submitted == 0
    sim.run(until=5e-3)  # past BATCH_TIMEOUT: the flush timer fired
    assert eng.backend.instances[0].submitted == 1
    assert eng.batches_submitted == 1


def test_one_flush_timer_process_across_refills():
    """The flush timer parks when the coalescing queue drains and the
    next enqueue wakes it: one timer process per engine, however often
    the queue refills."""
    sim, core, eng = make_env(batch_size=8)
    started = []
    spawn = sim.process

    def counting_process(gen, name=""):
        started.append(name)
        return spawn(gen, name=name)

    sim.process = counting_process

    def coalesce(tag):
        job = _job()
        job.mark_paused(rsa_call(tag))
        yield from eng.submit_async(rsa_call(tag), job, owner="w")
        yield from eng.core.settle()

    def proc(sim):
        yield from coalesce("a")
        yield sim.timeout(5e-3)  # the timer flushed the queue dry
        assert eng.queued_batch_ops == 0
        yield from coalesce("b")

    sim.process(proc(sim))
    sim.run(until=1e-2)
    assert eng.backend.instances[0].submitted == 2
    assert eng.batches_submitted == 2
    assert started.count("offload-batch-flush") == 1


def test_flush_respects_ring_capacity():
    """The flush never overshoots the ring: no submit failures even
    when the batch exceeds the free slots."""
    sim, core, eng = make_env(ring_capacity=2, batch_size=4)
    jobs = [_job() for _ in range(4)]

    def proc(sim):
        for i, job in enumerate(jobs):
            job.mark_paused(rsa_call(f"r{i}"))
            yield from eng.submit_async(rsa_call(f"r{i}"), job, owner="w")
            yield from eng.core.settle()
        # Ring slots free on retrieval, so keep polling: the due-flush
        # inside poll_and_dispatch drains the queue into freed slots.
        while eng.inflight.total:
            yield from eng.poll_and_dispatch(owner="w")
            yield from eng.core.settle()
            yield sim.timeout(100e-6)

    sim.process(proc(sim))
    sim.run(until=20e-3)
    assert eng.backend.instances[0].submit_failures == 0
    assert eng.ops_offloaded == 4  # drained in capacity-sized chunks
    assert eng.submit_rejections == 0


def test_is_pending_covers_queued_ops():
    sim, core, eng = make_env(batch_size=8)
    job = _job()

    def proc(sim):
        job.mark_paused(rsa_call())
        yield from eng.submit_async(rsa_call(), job, owner="w")
        yield from eng.core.settle()
        assert eng.is_pending(job)  # queued, not yet submitted

    sim.process(proc(sim))
    sim.run(until=1e-5)
    assert eng.is_pending(job)


def test_queued_ops_fail_over_when_no_lane_admits():
    """Breakers open + queue ops stuck -> software fallback delivery."""
    sim, core, eng = make_env(batch_size=8)
    for _ in range(FAILURE_THRESHOLD):  # opens the only lane's breaker
        eng.breakers[0].record_failure()
    job = _job()

    def proc(sim):
        job.mark_paused(rsa_call("hw"))
        yield from eng.submit_async(rsa_call("hw"), job, owner="w")
        yield from eng.core.settle()

    sim.process(proc(sim))
    sim.run(until=50e-3)
    assert eng.ops_fallback == 1
    assert eng.inflight.total == 0
    assert job.response_ready
    value, exc = job.take_resume()
    assert exc is None and value == "hw"  # software path, good result


def test_batch_size_one_matches_legacy_submit():
    sim, core, eng = make_env(batch_size=1)
    job = _job()
    out = {}

    def proc(sim):
        job.mark_paused(rsa_call())
        out["ok"] = yield from eng.submit_async(rsa_call(), job, owner="w")
        yield from eng.core.settle()

    sim.process(proc(sim))
    sim.run(until=1e-4)
    assert out["ok"]
    # Straight to the ring, no queue.
    assert eng.backend.instances[0].submitted == 1
    assert eng.queued_batch_ops == 0
    assert eng.batches_submitted == 1 and eng.batch_ops == 1


# -- end-to-end ---------------------------------------------------------------

def test_batched_testbed_run_replays_bit_for_bit():
    from repro.bench.runner import Testbed, Windows

    def run():
        bed = Testbed("QTLS", workers=1, seed=7, qat_batch_size=4)
        bed.add_s_time_fleet(n_clients=40)
        bed.run_window(Windows(warmup=0.02, measure=0.04))
        return bed

    a, b = run(), run()
    assert a.metrics.errors == 0
    assert a.metrics.cps(0.02, 0.06) > 0
    eng = a.server.workers[0].engine
    assert eng.mean_batch_size > 1.0
    assert a.metrics.handshakes == b.metrics.handshakes


# -- seeded submit-retry jitter ---------------------------------------------

def test_backoff_jitter_is_pure_and_seed_dependent():
    from repro.offload.engine import backoff_jitter_fraction
    # Pure: same (seed, attempts) -> same fraction, no state consumed.
    assert (backoff_jitter_fraction(42, 3)
            == backoff_jitter_fraction(42, 3))
    # In range and varying across attempts and seeds.
    fracs = [backoff_jitter_fraction(42, a) for a in range(1, 9)]
    assert all(0.0 <= f < 1.0 for f in fracs)
    assert len(set(fracs)) > 1
    assert (backoff_jitter_fraction(1, 1)
            != backoff_jitter_fraction(2, 1))


def test_submit_backoff_jittered_within_half_open_window():
    from repro.testing import make_qat_env
    jittered = make_qat_env(backoff_jitter_seed=1234).engine
    for attempts in range(1, 10):
        base = min(BUSY_POLL_SLICE * 2 ** (attempts - 1),
                   128 * BUSY_POLL_SLICE)
        j = jittered.submit_backoff(attempts)
        # Jitter spreads retries into [base/2, base), never lengthens
        # the worst case and never collapses to zero.
        assert base / 2 <= j < base
        # Deterministic: replaying the same attempt gives the same wait.
        assert j == jittered.submit_backoff(attempts)

