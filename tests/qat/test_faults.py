"""Fault-plan tests: deterministic injection at the QAT model layer."""

import pytest

from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.qat import QatDevice, qat_service_time
from repro.qat.faults import FaultPlan, OutageWindow, QatHardwareError
from repro.sim import Simulator
from repro.sim.rng import RngRegistry


def rsa_op():
    return CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048)


def make_env(seed=7, engines=10, **plan_kw):
    sim = Simulator()
    rng = RngRegistry(seed)
    dev = QatDevice(sim, n_endpoints=1, engines_per_endpoint=engines)
    plan = FaultPlan(rng.stream("faults"), **plan_kw)
    dev.install_fault_plan(plan)
    inst = dev.allocate_instances(1)[0]
    return sim, dev, plan, inst


def test_rate_validation():
    rng = RngRegistry(1).stream("faults")
    with pytest.raises(ValueError, match="outside"):
        FaultPlan(rng, response_loss=1.5)
    with pytest.raises(ValueError, match="spike factor"):
        FaultPlan(rng, latency_spike_factor=0.5)


def test_response_loss_drops_response_but_frees_ring_slot():
    sim, dev, plan, inst = make_env(response_loss=1.0)
    assert inst.try_submit(rsa_op(), compute=lambda: "sig")
    sim.run()
    # The response never landed...
    assert inst.poll() == []
    assert plan.responses_lost == 1
    assert dev.endpoints[0].responses_lost == 1
    # ...but the hardware credited the slot back: the ring is empty,
    # not leaking capacity.
    assert [r.in_flight for r in inst.rings.values()] == [0] * 3


def test_loss_window_limits_injection():
    service = qat_service_time(rsa_op())
    sim, dev, plan, inst = make_env(
        response_loss=1.0, response_loss_window=(0.0, service / 2))
    # Completion lands after the loss window closed: delivered intact.
    inst.try_submit(rsa_op(), compute=lambda: "sig")
    sim.run()
    assert len(inst.poll()) == 1
    assert plan.responses_lost == 0


def test_corruption_stamps_hardware_error():
    sim, dev, plan, inst = make_env(corruption=1.0)
    inst.try_submit(rsa_op(), compute=lambda: "sig")
    sim.run()
    (resp,) = inst.poll()
    assert isinstance(resp.error, QatHardwareError)
    assert resp.result is None
    assert plan.responses_corrupted == 1


def test_latency_spike_slows_service():
    factor = 10.0
    sim, dev, plan, inst = make_env(latency_spike_rate=1.0,
                                   latency_spike_factor=factor)
    inst.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    assert len(inst.poll()) == 1
    assert sim.now >= factor * qat_service_time(rsa_op())
    assert plan.latency_spikes == 1


def test_outage_rejects_submissions():
    sim, dev, plan, inst = make_env(outages=((0, 0.0, 1.0),))
    assert inst.try_submit(rsa_op(), compute=lambda: 1) is None
    assert plan.submits_rejected == 1
    assert inst.submit_failures == 1


def test_outage_loses_inflight_completions():
    """An op submitted just before the outage completes *during* it:
    the response is swallowed."""
    service = qat_service_time(rsa_op())
    sim, dev, plan, inst = make_env(
        outages=(OutageWindow(0, service / 2, 1.0),))
    inst.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    assert inst.poll() == []
    assert plan.responses_lost == 1


def test_outage_window_scoped_to_endpoint():
    sim = Simulator()
    rng = RngRegistry(7)
    dev = QatDevice(sim, n_endpoints=2)
    dev.install_fault_plan(FaultPlan(rng.stream("faults"),
                                     outages=((1, 0.0, 1.0),)))
    i0, i1 = dev.allocate_instances(2)
    assert i0.try_submit(rsa_op(), compute=lambda: 1)  # ep0 healthy
    assert i1.try_submit(rsa_op(), compute=lambda: 1) is None  # ep1 down


def test_ring_full_storm_window():
    sim, dev, plan, inst = make_env(ring_full_windows=((0.0, 1e-3),))
    assert inst.try_submit(rsa_op(), compute=lambda: 1) is None
    sim.run(until=2e-3)
    assert inst.try_submit(rsa_op(), compute=lambda: 1)


def test_scheduled_reset_wipes_queued_requests():
    """A reset drops ring-queued requests (their owners never see a
    response); the one already inside the hardware pipeline keeps its
    slot and completes normally."""
    service = qat_service_time(rsa_op())
    sim, dev, plan, inst = make_env(engines=1, resets=((0, service / 10),))
    for _ in range(3):
        inst.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    assert plan.resets_fired == 1
    assert any(kind == "endpoint_reset" for _, kind, _ in plan.trace())
    assert len(inst.poll()) == 1  # only the in-pipeline op survived
    assert [r.in_flight for r in inst.rings.values()] == [0] * 3


def test_fw_counter_totals_include_fault_and_driver_sections():
    sim, dev, plan, inst = make_env(response_loss=1.0)
    inst.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    totals = dev.fw_counter_totals()
    assert totals["responses_lost"] == 1
    assert totals["faults.responses_lost"] == 1
    assert totals["driver.submitted"] == 1
    for key in ("driver.submit_failures", "driver.op_timeouts",
                "driver.fallback_ops", "faults.submits_rejected"):
        assert key in totals


def _trace_for(seed):
    sim, dev, plan, inst = make_env(seed=seed, response_loss=0.4,
                                   corruption=0.2, latency_spike_rate=0.1)
    for _ in range(30):
        inst.try_submit(rsa_op(), compute=lambda: 1)
        sim.run()
        inst.poll()
    return plan.trace(), plan.counters()


def test_same_seed_replays_identical_trace():
    assert _trace_for(11) == _trace_for(11)


def test_different_seed_gives_different_trace():
    assert _trace_for(11)[0] != _trace_for(12)[0]
