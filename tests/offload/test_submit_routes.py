"""The offload engine's one submit pipeline, entered four ways.

An async op reaches the backend directly, through the coalescing queue
(``batch_size > 1``), or after waiting in the admission lanes — which
then hand it on directly or through the coalescing queue. Whichever
route it takes, the op must be accepted exactly once with the same
bookkeeping, and each queue keeps its own expiry rules."""

import pytest

from repro.obs.context import OpTrace
from repro.testing import make_job, make_qat_env, rsa_call

CONN = 3

#: route -> engine knobs. ``conn_budget=1`` plus a connection already
#: at its budget parks the op in the admission lanes.
ROUTES = {
    "direct": {},
    "coalesced": {"batch_size": 2},
    "admission-direct": {"conn_budget": 1},
    "admission-coalesced": {"conn_budget": 1, "batch_size": 2},
}


class CountingTrace(OpTrace):
    """An op trace that logs every accept stamp, not just the first."""

    __slots__ = ("accepts",)

    def __init__(self) -> None:
        super().__init__(1, "rsa_priv", "asym", CONN, 0, "handshake", 0.0)
        self.accepts = []

    def accept(self, when, backend, lane, attempts=0):
        self.accepts.append((when, attempts))
        super().accept(when, backend, lane, attempts=attempts)


def run(env, gen):
    """Drive one engine generator to completion inside a sim process."""
    p = env.sim.process(gen)
    env.sim.run(until=p)
    return p.value


@pytest.mark.parametrize("route", list(ROUTES))
def test_one_op_goes_out_and_comes_home_on_every_route(route):
    env = make_qat_env(**ROUTES[route])
    sim, eng = env.sim, env.engine
    call = rsa_call("sig")
    job = make_job(paused_on=call)
    job.conn_id = CONN
    job.trace = trace = CountingTrace()
    job.submit_attempts = 2  # two earlier ring-full bounces
    admission = route.startswith("admission")
    if admission:
        eng.scheduler.conn_acquire(CONN)

    assert run(env, eng.submit_async(call, job, owner="w")) is True
    if admission:
        assert eng.admission_queued == 1
        sim.run(until=sim.now + 20e-6)
        eng.scheduler.conn_release(CONN)
        assert run(env, eng.admit_queued(owner="w")) == 1
    sim.run()  # flush timer (coalesced routes) and device service

    (pending,) = eng._pending.values()
    ((accepted_at, attempts),) = trace.accepts
    assert attempts == (2 if route == "direct" else 0)
    if route == "direct":
        assert pending.deadline == accepted_at + eng.request_deadline
    else:
        enqueued_at = trace.marks["enqueued"]
        assert accepted_at > enqueued_at
        assert pending.deadline == enqueued_at + eng.request_deadline

    assert run(env, eng.poll_and_dispatch(owner="w")) == [job]
    assert job.take_resume() == ("sig", None)
    assert len(trace.accepts) == 1
    assert (eng.ledger_accepted, eng.ledger_retired) == (1, 1)
    assert eng.ops_offloaded == 1
    assert eng.inflight.total == 0
    assert eng.admission_enqueued == eng.admission_admitted == int(admission)
    assert eng.idle


@pytest.mark.parametrize("queue", ["coalescing", "admission"])
def test_retry_budget_expires_only_coalescing_queue_ops(queue):
    """Endpoint 0 rejects every submit, so the op's one allowed attempt
    bounces. Spent retries fail a coalescing-queue op over to software;
    an admission op waits on until its deadline or a lane closes."""
    knobs = ({"batch_size": 2} if queue == "coalescing"
             else {"conn_budget": 1})
    env = make_qat_env(plan_kw={"outages": ((0, 0.0, 1.0),)},
                       submit_max_retries=1, **knobs)
    sim, eng = env.sim, env.engine
    call = rsa_call("sig")
    job = make_job(paused_on=call)
    job.conn_id = CONN
    if queue == "admission":
        eng.scheduler.conn_acquire(CONN)
    run(env, eng.submit_async(call, job, owner="w"))
    if queue == "admission":
        eng.scheduler.conn_release(CONN)
        assert run(env, eng.admit_queued(owner="w")) == 0  # bounced
    sim.run(until=5e-3)  # well inside the 25 ms deadline
    run(env, eng.check_timeouts(owner="w"))

    assert eng.op_timeouts == 0
    if queue == "coalescing":
        assert eng.submit_rejections == 1
        assert eng.ops_fallback == 1 and job.response_ready
        assert eng.queued_batch_ops == 0
    else:
        # Survived the expiry pass; check_timeouts then re-admitted it
        # into the outage, which bounced it a second time.
        (q,) = eng.scheduler.items()
        assert q.attempts == eng.submit_rejections == 2
        assert eng.ops_fallback == 0 and not job.response_ready
        assert eng.scheduler.lane("handshake-asym").expired == 0
