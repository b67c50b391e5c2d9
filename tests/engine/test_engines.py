"""Engine layer tests: software baseline, straight offload, async
submission, inflight counters, software fallback."""

import pytest

from repro.core.costmodel import CostModel
from repro.cpu import Core
from repro.crypto.ops import CryptoOp, CryptoOpKind
from repro.offload import (ALGORITHM_GROUPS, AsyncOffloadEngine, QatBackend,
                           SoftwareEngine)
from repro.qat import QatDevice, QatUserspaceDriver, qat_service_time
from repro.sim import Simulator
from repro.ssl.async_job import FiberAsyncJob
from repro.tls.actions import CryptoCall


def rsa_call(result="sig"):
    return CryptoCall(CryptoOp(CryptoOpKind.RSA_PRIV, rsa_bits=2048),
                      compute=lambda: result)


def hkdf_call():
    return CryptoCall(CryptoOp(CryptoOpKind.HKDF, nbytes=32),
                      compute=lambda: b"okm")


def make_qat_env(ring_capacity=64, algorithms=("RSA", "EC", "PKEY_CRYPTO",
                                               "CIPHER")):
    sim = Simulator()
    core = Core(sim, 0)
    dev = QatDevice(sim, n_endpoints=1, ring_capacity=ring_capacity)
    drv = QatUserspaceDriver(dev.allocate_instances(1)[0])
    eng = AsyncOffloadEngine(QatBackend([drv]), core, CostModel(),
                             algorithms=algorithms)
    return sim, core, eng


# -- software engine ----------------------------------------------------------

def test_software_engine_charges_cpu():
    sim = Simulator()
    core = Core(sim, 0)
    cm = CostModel()
    eng = SoftwareEngine(core, cm)
    out = {}

    def proc(sim):
        out["r"] = yield from eng.execute_blocking(rsa_call(), owner="w")

    sim.process(proc(sim))
    sim.run()
    assert out["r"] == "sig"
    assert sim.now == pytest.approx(cm.software_cost(rsa_call().op))
    assert not eng.offloads(rsa_call())


def test_software_engine_propagates_compute_error():
    sim = Simulator()
    eng = SoftwareEngine(Core(sim, 0), CostModel())
    call = CryptoCall(CryptoOp(CryptoOpKind.PRF, nbytes=48),
                      compute=lambda: (_ for _ in ()).throw(ValueError("x")))
    caught = {}

    def proc(sim):
        try:
            yield from eng.execute_blocking(call, owner="w")
        except ValueError as e:
            caught["e"] = str(e)

    sim.process(proc(sim))
    sim.run()
    assert caught["e"] == "x"


# -- straight (blocking) offload -------------------------------------------------

def test_blocking_offload_burns_core_while_waiting():
    sim, core, eng = make_qat_env()
    out = {}

    def proc(sim):
        out["r"] = yield from eng.execute_blocking(rsa_call(), owner="w")

    sim.process(proc(sim))
    sim.run()
    assert out["r"] == "sig"
    # The worker spent (nearly) the whole elapsed time busy-waiting:
    # this is the paper's section 2.4 blocking observation.
    assert core.stats.busy_time >= 0.9 * sim.now
    assert sim.now > qat_service_time(rsa_call().op)
    assert eng.ops_offloaded == 1
    assert eng.inflight.total == 0


def test_blocking_offload_software_fallback_for_hkdf():
    sim, core, eng = make_qat_env()
    out = {}

    def proc(sim):
        out["r"] = yield from eng.execute_blocking(hkdf_call(), owner="w")

    sim.process(proc(sim))
    sim.run()
    assert out["r"] == b"okm"
    assert eng.ops_software == 1
    assert eng.ops_offloaded == 0


def test_algorithm_groups_restrict_offload():
    sim, core, eng = make_qat_env(algorithms=("EC",))
    assert not eng.offloads(rsa_call())
    cipher = CryptoCall(CryptoOp(CryptoOpKind.RECORD_CIPHER, nbytes=1024),
                        compute=lambda: b"")
    assert not eng.offloads(cipher)
    ec = CryptoCall(CryptoOp(CryptoOpKind.ECDH_COMPUTE, curve="P-256"),
                    compute=lambda: b"")
    assert eng.offloads(ec)


def test_unknown_algorithm_group_rejected():
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=1)
    drv = QatUserspaceDriver(dev.allocate_instances(1)[0])
    with pytest.raises(ValueError, match="unknown algorithm group"):
        AsyncOffloadEngine(QatBackend([drv]), Core(sim, 0), CostModel(),
                           algorithms=("BOGUS",))


# -- async offload ------------------------------------------------------------------

def _job():
    return FiberAsyncJob(lambda: iter(()), kind="handshake")


def test_submit_async_returns_immediately_and_counts_inflight():
    sim, core, eng = make_qat_env()
    job = _job()
    out = {}

    def proc(sim):
        out["ok"] = yield from eng.submit_async(rsa_call(), job, owner="w")
        out["t"] = sim.now

    sim.process(proc(sim))
    sim.run(until=1e-5)
    assert out["ok"]
    assert out["t"] < 1e-5  # returned right after the submit cost
    assert eng.inflight.total == 1
    assert eng.inflight.asym == 1


def test_poll_and_dispatch_delivers_and_decrements():
    sim, core, eng = make_qat_env()
    job = _job()
    job.mark_paused(rsa_call())
    got = {}

    def proc(sim):
        yield from eng.submit_async(rsa_call(), job, owner="w")
        while True:
            jobs = yield from eng.poll_and_dispatch(owner="w")
            if jobs:
                got["jobs"] = jobs
                return
            yield sim.timeout(10e-6)

    sim.process(proc(sim))
    sim.run()
    assert got["jobs"] == [job]
    assert job.response_ready
    assert job.take_resume() == ("sig", None)
    assert eng.inflight.total == 0


def test_submit_async_ring_full_returns_false():
    sim, core, eng = make_qat_env(ring_capacity=1)
    out = {}

    def proc(sim):
        j1, j2 = _job(), _job()
        j1.mark_paused(rsa_call())
        ok1 = yield from eng.submit_async(rsa_call(), j1, owner="w")
        ok2 = yield from eng.submit_async(rsa_call(), j2, owner="w")
        out["oks"] = (ok1, ok2)

    sim.process(proc(sim))
    sim.run(until=1e-4)
    assert out["oks"] == (True, False)
    assert eng.inflight.total == 1  # failed submit not counted


def test_submit_async_rejects_non_offloadable():
    sim, core, eng = make_qat_env()

    def proc(sim):
        yield from eng.submit_async(hkdf_call(), _job(), owner="w")

    sim.process(proc(sim))
    with pytest.raises(ValueError, match="non-offloadable"):
        sim.run()


def test_callback_notification_invoked_on_dispatch():
    sim, core, eng = make_qat_env()
    job = _job()
    job.mark_paused(rsa_call())
    fired = []
    job.wait_ctx.set_callback(lambda arg: fired.append(arg), "handler-arg")

    def proc(sim):
        yield from eng.submit_async(rsa_call(), job, owner="w")
        while not fired:
            yield from eng.poll_and_dispatch(owner="w")
            yield sim.timeout(10e-6)

    sim.process(proc(sim))
    sim.run()
    assert fired == ["handler-arg"]


def test_fd_notification_written_on_dispatch():
    from repro.net import NotifyFd
    sim, core, eng = make_qat_env()
    job = _job()
    job.mark_paused(rsa_call())
    nfd = NotifyFd(sim)
    job.wait_ctx.set_fd(nfd)

    def proc(sim):
        yield from eng.submit_async(rsa_call(), job, owner="w")
        while not nfd.readable:
            yield from eng.poll_and_dispatch(owner="w")
            yield sim.timeout(10e-6)

    sim.process(proc(sim))
    sim.run()
    assert nfd.read_events() == 1
    # FD-based notification paid a kernel crossing (the cost the
    # kernel-bypass scheme avoids).
    assert core.stats.kernel_crossings >= 1


def test_engine_command_reports_rtotal():
    sim, core, eng = make_qat_env()
    job1, job2 = _job(), _job()
    job1.mark_paused(rsa_call())
    job2.mark_paused(rsa_call())

    def proc(sim):
        yield from eng.submit_async(rsa_call(), job1, owner="w")
        prf = CryptoCall(CryptoOp(CryptoOpKind.PRF, nbytes=48),
                         compute=lambda: b"x")
        yield from eng.submit_async(prf, job2, owner="w")

    sim.process(proc(sim))
    sim.run(until=1e-5)
    assert eng.get_num_requests_in_flight() == 2
    assert eng.inflight.asym == 1
    assert eng.inflight.prf == 1


def test_inflight_underflow_guarded():
    from repro.offload import InflightCounters
    from repro.crypto.ops import OpCategory
    c = InflightCounters()
    with pytest.raises(RuntimeError):
        c.decrement(OpCategory.ASYM)


def test_algorithm_groups_cover_paper_config():
    """Appendix A.7's example: RSA,EC,DH,PKEY_CRYPTO."""
    for group in ("RSA", "EC", "DH", "PKEY_CRYPTO"):
        assert group in ALGORITHM_GROUPS
