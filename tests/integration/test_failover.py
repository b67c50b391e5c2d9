"""End-to-end failover: a faulted QTLS testbed must complete every
handshake through degradation and report it via stub_status."""

import pytest

from repro.bench.runner import Testbed
from repro.ssl.async_job import JobState

KNOBS = dict(qat_request_deadline=8e-3, qat_watchdog_interval=1e-3,
             qat_submit_max_retries=8)
PLAN = dict(response_loss=0.15, response_loss_window=(0.02, 0.04),
            outages=((0, 0.02, 0.035),))
UNTIL = 0.06


def run_faulted(seed=7):
    bed = Testbed("QTLS", workers=1, suites=("TLS-RSA",), seed=seed,
                  fault_plan=PLAN, **KNOBS)
    bed.add_s_time_fleet(n_clients=40)
    bed.sim.run(until=UNTIL)
    return bed


@pytest.fixture(scope="module")
def faulted_bed():
    return run_faulted()


def test_no_client_errors_under_faults(faulted_bed):
    assert faulted_bed.metrics.errors == 0


def test_handshakes_keep_completing_through_fault_window(faulted_bed):
    done_during = [t for t, _, _ in faulted_bed.metrics.handshakes
                   if 0.02 <= t < 0.04]
    done_after = [t for t, _, _ in faulted_bed.metrics.handshakes
                  if t >= 0.04]
    assert done_during and done_after


def test_faults_actually_injected(faulted_bed):
    plan = faulted_bed.fault_plan
    assert plan.responses_lost > 0
    assert plan.submits_rejected > 0


def test_failover_exercised_and_nothing_left_hanging(faulted_bed):
    worker = faulted_bed.server.workers[0]
    assert worker.engine.ops_fallback > 0
    now = faulted_bed.sim.now
    stale = 2 * KNOBS["qat_request_deadline"]
    for conn in worker.conns.values():
        if conn.in_async and conn.async_since is not None:
            assert now - conn.async_since <= stale, (
                f"conn {conn.conn_id} hung in TLS-ASYNC")
        job = conn.ssl.job
        if job is not None:
            assert job.state is not JobState.FINISHED or job.result


def test_stub_status_reports_degradation(faulted_bed):
    worker = faulted_bed.server.workers[0]
    st = worker.stub_status
    assert st.degraded
    page = st.render()
    fallback_ops = st.counters()["fallback_ops"]
    assert "offload degradation:" in page
    assert f"fallback_ops {fallback_ops}" in page
    assert fallback_ops == worker.engine.ops_fallback > 0


def test_faulted_run_is_deterministic(faulted_bed):
    replay = run_faulted()
    assert replay.metrics.handshakes == faulted_bed.metrics.handshakes
    assert replay.fault_plan.trace() == faulted_bed.fault_plan.trace()
    assert (replay.fault_plan.counters()
            == faulted_bed.fault_plan.counters())
