"""One QAT request on the calendar: an engine runs as two timeouts
(service, then response pipeline) and consults the fault plan at
service start, service end and landing, each at its own sim time."""

import pytest

from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.qat import (PCIE_LATENCY, QatDevice, qat_pipeline_latency,
                       qat_service_time)
from repro.qat.faults import FaultPlan
from repro.sim import Simulator
from repro.sim.rng import RngRegistry

SUBMIT_AT = 1e-3


def rsa_op():
    return CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048)


class RecordingPlan(FaultPlan):
    """A fault plan that logs every engine-side hook with its sim time."""

    def __init__(self, rng, **kw):
        super().__init__(rng, **kw)
        self.calls = []

    def latency_multiplier(self, endpoint_id, op, now):
        self.calls.append(("latency_multiplier", now))
        return super().latency_multiplier(endpoint_id, op, now)

    def corrupt(self, endpoint_id, op, now):
        self.calls.append(("corrupt", now))
        return super().corrupt(endpoint_id, op, now)

    def response_lost(self, endpoint_id, op, now):
        self.calls.append(("response_lost", now))
        return super().response_lost(endpoint_id, op, now)


def make_env(plan_kw=None):
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=1, engines_per_endpoint=4)
    plan = None
    if plan_kw is not None:
        plan = RecordingPlan(RngRegistry(7).stream("faults"), **plan_kw)
        dev.install_fault_plan(plan)
    return sim, dev, plan, dev.allocate_instances(1)[0]


def submit_later(sim, inst, op):
    """Submit ``op`` at SUBMIT_AT, so hook times are not all zero."""
    sim.call_at(SUBMIT_AT, lambda: inst.try_submit(op, compute=lambda: "sig"))
    sim.run(until=SUBMIT_AT)


def record_pushes(sim):
    pushed = []
    schedule = sim._schedule

    def recording(event, delay=0.0, **kw):
        pushed.append((event.name, delay))
        schedule(event, delay, **kw)

    sim._schedule = recording
    return pushed


def test_one_request_pushes_service_and_pipeline_timeouts_only():
    sim, dev, _, inst = make_env()
    op = rsa_op()
    pushed = record_pushes(sim)
    assert inst.try_submit(op, compute=lambda: "sig")
    sim.run()
    assert pushed == [
        ("qat-exec-1", PCIE_LATENCY + qat_service_time(op)),
        ("", PCIE_LATENCY + qat_pipeline_latency(op)),
    ]
    [response] = inst.poll()
    assert response.error is None and response.result == "sig"


def test_engine_is_held_for_service_only():
    sim, dev, _, inst = make_env()
    op = rsa_op()
    engines = dev.endpoints[0].engines
    inst.try_submit(op, compute=lambda: "sig")
    service_end = PCIE_LATENCY + qat_service_time(op)
    sim.run(until=service_end / 2)
    assert engines.in_use == 1
    sim.run(until=service_end + PCIE_LATENCY / 2)
    # The response is still in the pipeline, but the engine is free.
    assert engines.in_use == 0
    assert inst.poll() == []
    sim.run()
    assert engines.in_use == 0
    assert len(inst.poll()) == 1


def test_fault_hooks_run_at_service_start_end_and_landing():
    sim, _, plan, inst = make_env(dict(latency_spike_rate=1.0,
                                      latency_spike_factor=3.0))
    op = rsa_op()
    submit_later(sim, inst, op)
    sim.run()
    service_end = SUBMIT_AT + PCIE_LATENCY + 3.0 * qat_service_time(op)
    landed = service_end + PCIE_LATENCY + qat_pipeline_latency(op)
    assert plan.calls == [
        ("latency_multiplier", SUBMIT_AT),
        ("corrupt", pytest.approx(service_end)),
        ("response_lost", pytest.approx(landed)),
    ]
    [response] = inst.poll()
    assert response.error is None
    assert response.completed_at == pytest.approx(landed)


def test_corrupt_at_service_end_stamps_the_landed_response():
    sim, _, plan, inst = make_env(dict(corruption=1.0))
    op = rsa_op()
    submit_later(sim, inst, op)
    sim.run()
    service_end = SUBMIT_AT + PCIE_LATENCY + qat_service_time(op)
    assert plan.events[0][:2] == (pytest.approx(service_end),
                                  "response_corrupted")
    [response] = inst.poll()
    assert response.error is not None and response.result is None


def test_response_lost_at_landing_drops_it():
    sim, dev, plan, inst = make_env(dict(response_loss=1.0))
    op = rsa_op()
    submit_later(sim, inst, op)
    sim.run()
    landed = (SUBMIT_AT + 2 * PCIE_LATENCY + qat_service_time(op)
              + qat_pipeline_latency(op))
    assert plan.calls[-1] == ("response_lost", pytest.approx(landed))
    assert plan.events[0][:2] == (pytest.approx(landed), "response_lost")
    assert inst.poll() == []
    assert dev.endpoints[0].responses_lost == 1
    assert [r.in_flight for r in inst.rings.values()] == [0] * 3
