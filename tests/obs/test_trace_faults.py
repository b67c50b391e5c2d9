"""Fault-path tracing: ops degraded by injected faults must terminate
their span trees with the right status (timeout for lost responses,
failover for corruption / exhausted submit paths) and never leak open
spans."""

import json
from collections import Counter

import pytest

from repro.bench.runner import Testbed, Windows
from repro.obs import SpanStatus, validate_chrome_trace
from repro.obs.export import chrome_trace_events
from repro.offload.engine import BATCH_TIMEOUT
from repro.offload.health import FAILURE_THRESHOLD
from repro.testing import make_job, make_qat_env, rsa_call

from .test_span_invariants import assert_well_formed


def _traced_submit(env, job):
    """Open a trace for ``job`` the way the SSL driver does."""
    call = rsa_call()
    job.trace = env.tracer.begin(call.op, 5, 0, job.kind, env.sim.now)
    return call


# -- engine-level status stamping ---------------------------------------------

def test_lost_response_terminates_trace_as_timeout():
    env = make_qat_env(trace=True, plan_kw=dict(response_loss=1.0),
                       request_deadline=1e-3)
    sim, eng = env.sim, env.engine
    job = make_job(paused_on=rsa_call())

    def proc(sim):
        call = _traced_submit(env, job)
        yield from eng.submit_async(call, job, owner="w")
        yield from eng.core.settle()
        yield sim.timeout(2e-3)
        yield from eng.check_timeouts(owner="w")
        yield from eng.core.settle()

    sim.process(proc(sim))
    sim.run()
    trace = job.trace
    assert trace.status == SpanStatus.TIMEOUT  # stamped at delivery
    assert "accepted" in trace.marks           # it did reach the ring
    assert "delivered" in trace.marks          # failure was delivered
    assert "landed" not in trace.marks         # the response never came
    env.tracer.finish(trace, sim.now)          # SSL driver's close
    assert trace.status == SpanStatus.TIMEOUT  # close keeps the stamp
    assert [t.status for t in env.tracer.traces] == [SpanStatus.TIMEOUT]
    assert not env.tracer.open


def test_corrupted_response_terminates_trace_as_failover():
    env = make_qat_env(trace=True, plan_kw=dict(corruption=1.0))
    sim, eng = env.sim, env.engine
    job = make_job(paused_on=rsa_call())

    def proc(sim):
        call = _traced_submit(env, job)
        yield from eng.submit_async(call, job, owner="w")
        yield from eng.core.settle()
        while not job.response_ready:
            yield from eng.poll_and_dispatch(owner="w")
            yield from eng.core.settle()
            yield sim.timeout(10e-6)

    sim.process(proc(sim))
    sim.run()
    trace = job.trace
    assert trace.status == SpanStatus.FAILOVER
    # The device stamps survive: the op really traversed the card.
    assert {"accepted", "dequeued", "landed", "delivered"} <= set(trace.marks)
    env.tracer.finish(trace, sim.now)
    assert trace.status == SpanStatus.FAILOVER


def test_blocking_outage_trace_closes_as_timeout():
    env = make_qat_env(trace=True, plan_kw=dict(outages=((0, 0.0, 1.0),)),
                       submit_max_retries=4)
    sim, eng = env.sim, env.engine
    out = {}

    def proc(sim):
        out["r"] = yield from eng.execute_blocking(rsa_call(), owner="w")
        yield from eng.core.settle()

    sim.process(proc(sim))
    sim.run()
    assert out["r"] == "sig"  # software fallback still served the op
    assert [t.status for t in env.tracer.traces] == [SpanStatus.TIMEOUT]
    (trace,) = env.tracer.traces
    assert trace.kind == "blocking"
    assert "accepted" not in trace.marks  # the card never admitted it


# -- one status per failure route ---------------------------------------------

def _open_every_breaker(eng):
    for breaker in eng.breakers:
        for _ in range(FAILURE_THRESHOLD):
            breaker.record_failure()


def _coalescing_expiry(env, call, job):
    # No lane admits traffic, so the flush timer fails the parked op
    # over once it is BATCH_TIMEOUT old.
    _open_every_breaker(env.engine)
    yield from env.engine.submit_async(call, job, owner="w")
    yield from env.engine.core.settle()
    yield env.sim.timeout(2 * BATCH_TIMEOUT)


def _admission_expiry(env, call, job):
    # The cap holds the op in the admission lanes; with every breaker
    # open, check_timeouts expires it there.
    eng = env.engine
    first = make_job(paused_on=rsa_call())
    yield from eng.submit_async(rsa_call(), first, owner="w")
    yield from eng.core.settle()
    yield from eng.submit_async(call, job, owner="w")
    yield from eng.core.settle()
    assert eng.admission_queued == 1
    _open_every_breaker(eng)
    yield env.sim.timeout(2 * BATCH_TIMEOUT)
    yield from eng.check_timeouts(owner="w")
    yield from eng.core.settle()


def _drain(env, call, job):
    yield from env.engine.submit_async(call, job, owner="w")
    yield from env.engine.core.settle()
    assert env.engine.queued_batch_ops == 1
    yield from env.engine.drain_queued(owner="w")
    yield from env.engine.core.settle()


def _watchdog(env, call, job):
    # A paused job the engine holds no entry for (its ring slot was
    # wiped): the watchdog rescue completes it on the CPU.
    yield from env.engine.fail_over_job(job, owner="w")
    yield from env.engine.core.settle()


@pytest.mark.parametrize("route, engine_kw", [
    (_coalescing_expiry, dict(batch_size=8)),
    (_admission_expiry, dict(admission_limit=1)),
    (_drain, dict(batch_size=8)),
    (_watchdog, {}),
], ids=["coalescing-expiry", "admission-expiry", "drain", "watchdog"])
def test_unsubmitted_op_failover_terminates_trace_as_timeout(route,
                                                             engine_kw):
    env = make_qat_env(trace=True, **engine_kw)
    job = make_job(paused_on=rsa_call())
    call = _traced_submit(env, job)
    env.sim.process(route(env, call, job))
    env.sim.run(until=10e-3)
    trace = job.trace
    assert job.response_ready                  # software result delivered
    assert trace.status == SpanStatus.TIMEOUT  # stamped at delivery
    assert "accepted" not in trace.marks       # never reached a ring
    assert "delivered" in trace.marks
    env.tracer.finish(trace, env.sim.now)      # SSL driver's close
    assert trace.status == SpanStatus.TIMEOUT


@pytest.mark.parametrize("plan_kw, status", [
    (dict(response_loss=1.0), SpanStatus.TIMEOUT),
    (dict(corruption=1.0), SpanStatus.FAILOVER),
], ids=["deadline", "corrupted"])
def test_blocking_failover_closes_trace_with_its_status(plan_kw, status):
    env = make_qat_env(trace=True, plan_kw=plan_kw, request_deadline=1e-3)
    out = {}

    def proc(sim):
        out["r"] = yield from env.engine.execute_blocking(rsa_call(),
                                                          owner="w")
        yield from env.engine.core.settle()

    env.sim.process(proc(env.sim))
    env.sim.run()
    assert out["r"] == "sig"  # the software fallback served the op
    (trace,) = env.tracer.traces
    assert trace.status == status
    assert "accepted" in trace.marks  # the card admitted it first


# -- full-stack faulted run ----------------------------------------------------

def test_faulted_run_traces_every_degraded_op(tmp_path):
    bed = Testbed("QTLS", workers=1, seed=11, trace=True,
                  fault_plan=dict(response_loss=0.02, corruption=0.02),
                  qat_request_deadline=2e-3)
    bed.add_s_time_fleet(n_clients=40)
    bed.run_window(Windows(warmup=0.02, measure=0.04))
    tracer = bed.tracer
    assert_well_formed(tracer)
    # The injected faults surface as terminal statuses, not lost spans.
    by_status = Counter(t.status for t in tracer.traces)
    assert by_status[SpanStatus.OK] > 100
    assert by_status[SpanStatus.TIMEOUT] > 0
    assert by_status[SpanStatus.FAILOVER] > 0
    degraded = [t for t in tracer.traces
                if t.status in (SpanStatus.TIMEOUT, SpanStatus.FAILOVER)]
    for t in degraded:
        if "accepted" in t.marks:
            assert "delivered" in t.marks  # the job was resumed regardless
        else:
            # Every breaker open at submit: the op ran on the CPU in
            # place, never paused, so there was nothing to deliver.
            assert t.status == SpanStatus.FAILOVER and not t.marks
    # Draining the horizon leftovers closes everything as aborted.
    begun = len(tracer.traces) + len(tracer.open)
    for t in list(tracer.open.values()):
        tracer.abort_open(t, bed.sim.now)
    assert not tracer.open
    assert len(tracer.traces) == begun
    doc = json.loads(json.dumps(
        {"traceEvents": chrome_trace_events(tracer)}))
    assert validate_chrome_trace(doc) == []


def test_faulted_run_replays_bit_for_bit():
    def statuses():
        bed = Testbed("QTLS", workers=1, seed=11, trace=True,
                      fault_plan=dict(response_loss=0.05),
                      qat_request_deadline=2e-3)
        bed.add_s_time_fleet(n_clients=40)
        bed.run_window(Windows(warmup=0.02, measure=0.04))
        return ([t.status for t in bed.tracer.traces],
                chrome_trace_events(bed.tracer))

    assert statuses() == statuses()
