"""Tests for the simulated QAT device: rings, engines, parallelism."""

import pytest

from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.qat import QatDevice, dh8970, qat_service_time
from repro.sim import Simulator


def rsa_op():
    return CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048)


def make_instance(sim, **kw):
    dev = QatDevice(sim, n_endpoints=1, **kw)
    return dev, dev.allocate_instances(1)[0]


def test_submit_and_poll_roundtrip():
    sim = Simulator()
    _, inst = make_instance(sim)
    assert inst.try_submit(rsa_op(), compute=lambda: "signature")
    sim.run()
    responses = inst.poll()
    assert len(responses) == 1
    assert responses[0].ok and responses[0].result == "signature"


def test_response_not_ready_before_service_time():
    sim = Simulator()
    _, inst = make_instance(sim)
    inst.try_submit(rsa_op(), compute=lambda: 1)
    service = qat_service_time(rsa_op())
    sim.run(until=service / 2)
    assert inst.poll() == []
    sim.run()
    assert len(inst.poll()) == 1


def test_completion_time_includes_pcie_and_pipeline_latency():
    from repro.qat import qat_pipeline_latency
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=1)
    inst = dev.allocate_instances(1)[0]
    inst.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    ep = dev.endpoints[0]
    expected = (qat_service_time(rsa_op()) + 2 * ep.pcie_latency
                + qat_pipeline_latency(rsa_op()))
    assert sim.now == pytest.approx(expected)


def test_single_engine_serializes():
    sim = Simulator()
    _, inst = make_instance(sim, engines_per_endpoint=1)
    for _ in range(3):
        inst.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    # 3 sequential services; per request pcie in/out overlap is serial
    # on one engine.
    per = qat_service_time(rsa_op())
    assert sim.now >= 3 * per


def test_parallel_engines_overlap():
    """Concurrent requests from ONE instance use many engines: the
    parallelism claim of paper section 2.3."""
    from repro.qat import qat_pipeline_latency
    sim = Simulator()
    _, inst = make_instance(sim, engines_per_endpoint=8)
    for _ in range(8):
        inst.try_submit(rsa_op(), compute=lambda: 1)
    sim.run()
    per = qat_service_time(rsa_op()) + qat_pipeline_latency(rsa_op())
    assert sim.now < per + qat_service_time(rsa_op())  # ran in parallel


def test_ring_full_submission_fails():
    sim = Simulator()
    _, inst = make_instance(sim, ring_capacity=4)
    for i in range(4):
        assert inst.try_submit(rsa_op(), compute=lambda: i)
    assert not inst.try_submit(rsa_op(), compute=lambda: 99)
    assert inst.submit_failures == 1


def test_ring_slot_freed_after_retrieval():
    sim = Simulator()
    _, inst = make_instance(sim, ring_capacity=2)
    assert inst.try_submit(rsa_op(), compute=lambda: 1)
    assert inst.try_submit(rsa_op(), compute=lambda: 2)
    assert not inst.try_submit(rsa_op(), compute=lambda: 3)
    sim.run()
    # Completed but not yet retrieved: slots still occupied.
    assert not inst.try_submit(rsa_op(), compute=lambda: 3)
    inst.poll()
    assert inst.try_submit(rsa_op(), compute=lambda: 3)


def test_in_flight_counter():
    sim = Simulator()
    _, inst = make_instance(sim)
    assert inst.in_flight == 0
    inst.try_submit(rsa_op(), compute=lambda: 1)
    inst.try_submit(rsa_op(), compute=lambda: 2)
    assert inst.in_flight == 2
    sim.run()
    assert inst.in_flight == 2  # completed, not yet retrieved
    inst.poll()
    assert inst.in_flight == 0


def test_compute_exception_becomes_errored_response():
    sim = Simulator()
    _, inst = make_instance(sim)

    def boom():
        raise ValueError("bad padding")

    inst.try_submit(rsa_op(), compute=boom)
    sim.run()
    (resp,) = inst.poll()
    assert not resp.ok
    assert isinstance(resp.error, ValueError)


def test_fairness_across_instances():
    """Two instances on one endpoint share engines round-robin."""
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=1, engines_per_endpoint=1)
    a, b = dev.allocate_instances(2)
    for _ in range(3):
        a.try_submit(rsa_op(), compute=lambda: "a")
        b.try_submit(rsa_op(), compute=lambda: "b")
    sim.run()
    order = []
    # completion order is recorded via completed_at on responses
    resp = a.poll() + b.poll()
    resp.sort(key=lambda r: r.completed_at)
    order = [r.result for r in resp]
    assert order == ["a", "b", "a", "b", "a", "b"]


def test_instances_distributed_across_endpoints():
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=3)
    insts = dev.allocate_instances(6)
    eps = [i.endpoint.endpoint_id for i in insts]
    assert eps == [0, 1, 2, 0, 1, 2]


def test_dh8970_shape():
    sim = Simulator()
    dev = dh8970(sim)
    assert len(dev.endpoints) == 3
    assert sum(ep.n_engines for ep in dev.endpoints) == 30


def test_fw_counters():
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=1)
    inst = dev.allocate_instances(1)[0]
    inst.try_submit(rsa_op(), compute=lambda: 1)
    inst.try_submit(CryptoOp(CryptoOpKind.PRF, nbytes=48), compute=lambda: 2)
    sim.run()
    totals = dev.fw_counter_totals()
    assert totals["total"] == 2
    assert totals["kind.rsa_priv"] == 1
    assert totals["cat.prf"] == 1


def test_card_rsa_capacity_calibration():
    """The simulated DH8970 should sustain ~100K RSA-2048 ops/s
    (the Fig. 7a plateau), +/- 15%."""
    sim = Simulator()
    dev = dh8970(sim)
    instances = dev.allocate_instances(6)

    done = {"n": 0}

    def feeder(sim, inst):
        # Keep 12 requests in flight per instance for 0.2 simulated sec.
        while sim.now < 0.2:
            while inst.in_flight < 12:
                inst.try_submit(rsa_op(), compute=lambda: 1)
            yield sim.timeout(200e-6)
            done["n"] += len(inst.poll())

    for inst in instances:
        sim.process(feeder(sim, inst))
    sim.run(until=0.2)
    rate = done["n"] / 0.2
    assert 85_000 < rate < 115_000, f"calibration off: {rate:.0f} ops/s"


def test_qat_service_time_validation():
    with pytest.raises(ValueError):
        qat_service_time(CryptoOp(CryptoOpKind.HKDF, nbytes=32))
    with pytest.raises(ValueError):
        qat_service_time(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=999))
    with pytest.raises(ValueError):
        qat_service_time(CryptoOp(CryptoOpKind.ECDH_COMPUTE, curve="P-999"))


def test_cipher_service_time_scales_with_bytes():
    small = qat_service_time(CryptoOp(CryptoOpKind.RECORD_CIPHER, nbytes=1024))
    big = qat_service_time(CryptoOp(CryptoOpKind.RECORD_CIPHER, nbytes=16384))
    assert big > small
