"""Engine resilience tests: deadlines, bounded retries, circuit
breakers, software failover, stale-response filtering."""

from repro.offload import CircuitBreaker, OffloadTimeout
from repro.qat import qat_service_time
from repro.testing import make_job, make_qat_env, rsa_call


def make_env(plan_kw=None, seed=7, **engine_kw):
    env = make_qat_env(plan_kw=plan_kw, seed=seed, **engine_kw)
    return env.sim, env.core, env.engine


def _job():
    return make_job(paused_on=rsa_call())


# -- blocking path ------------------------------------------------------------

def test_blocking_submit_retries_bounded_then_falls_back():
    sim, core, eng = make_env(plan_kw=dict(outages=((0, 0.0, 1.0),)),
                              submit_max_retries=4)
    out = {}

    def proc(sim):
        out["r"] = yield from eng.execute_blocking(rsa_call(), owner="w")

    sim.process(proc(sim))
    sim.run()
    assert out["r"] == "sig"  # completed on the CPU
    assert eng.ops_fallback == 1
    assert eng.ops_software == 1
    assert eng.ops_offloaded == 0


def test_blocking_submit_raises_typed_error_without_fallback():
    sim, core, eng = make_env(plan_kw=dict(outages=((0, 0.0, 1.0),)),
                              submit_max_retries=4, software_fallback=False)
    caught = {}

    def proc(sim):
        try:
            yield from eng.execute_blocking(rsa_call(), owner="w")
        except OffloadTimeout as e:
            caught["e"] = str(e)

    sim.process(proc(sim))
    sim.run()
    assert "rejected" in caught["e"]


def test_blocking_response_loss_hits_deadline_then_falls_back():
    sim, core, eng = make_env(plan_kw=dict(response_loss=1.0),
                              request_deadline=1e-3)
    out = {}

    def proc(sim):
        out["r"] = yield from eng.execute_blocking(rsa_call(), owner="w")

    sim.process(proc(sim))
    sim.run()
    assert out["r"] == "sig"
    assert eng.op_timeouts == 1
    assert eng.ops_fallback == 1
    assert eng.backend.drivers[0].op_timeouts == 1
    assert eng.inflight.total == 0
    assert eng.breakers[0].consecutive_failures == 1


# -- async path ----------------------------------------------------------------

def test_check_timeouts_rescues_lost_response():
    sim, core, eng = make_env(plan_kw=dict(response_loss=1.0),
                              request_deadline=1e-3)
    job = _job()
    resumed = {}

    def proc(sim):
        yield from eng.submit_async(rsa_call(), job, owner="w")
        yield sim.timeout(2e-3)  # past the deadline
        resumed["jobs"] = yield from eng.check_timeouts(owner="w")

    sim.process(proc(sim))
    sim.run()
    assert resumed["jobs"] == [job]
    assert job.response_ready
    assert job.take_resume() == ("sig", None)  # software result
    assert eng.op_timeouts == 1
    assert eng.inflight.total == 0
    assert not eng.is_pending(job)


def test_check_timeouts_delivers_error_without_fallback():
    sim, core, eng = make_env(plan_kw=dict(response_loss=1.0),
                              request_deadline=1e-3,
                              software_fallback=False)
    job = _job()

    def proc(sim):
        yield from eng.submit_async(rsa_call(), job, owner="w")
        yield sim.timeout(2e-3)
        yield from eng.check_timeouts(owner="w")

    sim.process(proc(sim))
    sim.run()
    value, exc = job.take_resume()
    assert value is None
    assert isinstance(exc, OffloadTimeout)


def test_late_response_after_timeout_is_dropped_as_stale():
    """An op that timed out and failed over must NOT be delivered a
    second time when its (slow) response eventually lands."""
    deadline = qat_service_time(rsa_call().op) / 4
    sim, core, eng = make_env(plan_kw=None, request_deadline=deadline)
    job = _job()

    def proc(sim):
        yield from eng.submit_async(rsa_call(), job, owner="w")
        yield sim.timeout(deadline * 2)  # expired, response not yet landed
        yield from eng.check_timeouts(owner="w")
        assert job.take_resume() == ("sig", None)  # failover result
        while True:
            yield from eng.poll_and_dispatch(owner="w")
            if eng.responses_stale:
                return
            yield sim.timeout(10e-6)

    sim.process(proc(sim))
    sim.run()
    assert eng.responses_stale == 1
    assert not job.response_ready  # no double delivery
    assert eng.responses_dispatched == 0


def test_corrupted_response_degrades_to_software():
    sim, core, eng = make_env(plan_kw=dict(corruption=1.0))
    job = _job()

    def proc(sim):
        yield from eng.submit_async(rsa_call(), job, owner="w")
        while not job.response_ready:
            yield from eng.poll_and_dispatch(owner="w")
            yield sim.timeout(10e-6)

    sim.process(proc(sim))
    sim.run()
    assert job.take_resume() == ("sig", None)  # good software result
    assert eng.responses_corrupted == 1
    assert eng.ops_fallback == 1
    assert eng.breakers[0].consecutive_failures == 1


def test_should_retry_submit_bounded_by_budget():
    sim, core, eng = make_env(submit_max_retries=3)
    job = _job()
    job.submit_attempts = 2
    assert eng.should_retry_submit(job)
    job.submit_attempts = 3
    assert not eng.should_retry_submit(job)


def test_should_retry_submit_false_when_all_breakers_open():
    sim, core, eng = make_env(breaker_failure_threshold=1)
    eng.breakers[0].record_failure()
    assert eng.breakers[0].is_open
    job = _job()
    assert not eng.should_retry_submit(job)


def test_fail_over_job_completes_paused_job_without_pending_entry():
    """Watchdog rescue: a paused job whose ring entry was wiped (e.g.
    endpoint reset) is completed on the CPU."""
    sim, core, eng = make_env()
    job = _job()  # paused, but never submitted: no pending entry
    out = {}

    def proc(sim):
        out["ok"] = yield from eng.fail_over_job(job, owner="w")

    sim.process(proc(sim))
    sim.run()
    assert out["ok"]
    assert job.take_resume() == ("sig", None)
    assert eng.ops_fallback == 1


# -- circuit breaker -----------------------------------------------------------

def test_breaker_opens_after_threshold_and_recovers():
    now = [0.0]
    b = CircuitBreaker(lambda: now[0], failure_threshold=3,
                       reset_timeout=1.0)
    assert b.state == "closed" and b.allow()
    for _ in range(3):
        b.record_failure()
    assert b.state == "open" and b.opens == 1
    assert not b.allow()  # cool-down not elapsed
    now[0] = 1.5
    assert b.allow()       # half-open: admits one probe
    assert b.state == "half-open"
    assert not b.allow()   # second caller held back while probing
    b.record_success()
    assert b.state == "closed"
    assert b.allow()
    assert b.consecutive_failures == 0


def test_breaker_failed_probe_reopens():
    now = [0.0]
    b = CircuitBreaker(lambda: now[0], failure_threshold=2,
                       reset_timeout=1.0)
    b.record_failure()
    b.record_failure()
    now[0] = 2.0
    assert b.allow()
    b.record_failure()  # probe failed
    assert b.state == "open" and b.opens == 2
    assert not b.allow()


def test_breaker_cancel_probe_releases_slot():
    """Ring-full during a probe is backpressure, not ill health: the
    probe slot must be released so the next caller can try."""
    now = [0.0]
    b = CircuitBreaker(lambda: now[0], failure_threshold=1,
                       reset_timeout=1.0)
    b.record_failure()
    now[0] = 2.0
    assert b.allow()
    b.cancel_probe()
    assert b.allow()  # slot free again


def test_engine_routes_around_open_breaker():
    """With two instances and one breaker open, submissions flow to the
    healthy instance only."""
    env = make_qat_env(n_instances=2, breaker_failure_threshold=1)
    sim, eng, drvs = env.sim, env.engine, env.drivers
    eng.breakers[0].record_failure()
    assert eng.breakers[0].is_open
    jobs = [_job() for _ in range(4)]

    def proc(sim):
        for job in jobs:
            ok = yield from eng.submit_async(rsa_call(), job, owner="w")
            assert ok

    sim.process(proc(sim))
    sim.run(until=1e-4)
    assert drvs[0].submitted == 0
    assert drvs[1].submitted == 4
