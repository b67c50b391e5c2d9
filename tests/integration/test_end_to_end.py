"""End-to-end integration: full server + client fleets, all five
configurations, data transfer, resumption, TLS 1.3, real crypto."""

import pytest

from repro.clients import AbFleet, STimeFleet
from repro.core import ClientMetrics, CostModel, make_server_config
from repro.crypto.provider import ModeledCryptoProvider, RealCryptoProvider
from repro.net import Network
from repro.qat import dh8970
from repro.server import TlsServer
from repro.sim import RngRegistry, Simulator
from repro.tls.config import TlsClientConfig
from repro.tls.constants import ProtocolVersion
from repro.tls.suites import get_suite


class World:
    """One simulated testbed."""

    def __init__(self, config_name, workers=2, suites=("TLS-RSA",),
                 curves=("P-256",), provider=None, tls_version="1.2",
                 rsa_bits=2048, seed=7, **overrides):
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.net = Network(self.sim)
        self.provider = provider or ModeledCryptoProvider()
        self.cm = CostModel()
        self.config = make_server_config(
            config_name, workers=workers, suites=suites, curves=curves,
            tls_version=tls_version, rsa_bits=rsa_bits, **overrides)
        self.device = dh8970(self.sim) if self.config.uses_qat else None
        self.server = TlsServer(self.sim, self.net, self.config,
                                self.provider, self.rng,
                                qat_device=self.device)
        self.server.start()
        self.metrics = ClientMetrics()
        self.suites = suites
        self.curves = curves
        self.version = (ProtocolVersion.TLS13 if tls_version == "1.3"
                        else ProtocolVersion.TLS12)

    def client_config_factory(self):
        suites = tuple(get_suite(s) for s in self.suites)

        def factory(cid):
            return TlsClientConfig(
                provider=self.provider, suites=suites,
                rng=self.rng.stream(f"client-{cid}"), curves=self.curves)

        return factory

    def s_time(self, n, **kw):
        fleet = STimeFleet(self.sim, self.net, self.server.addresses(),
                           self.client_config_factory(), self.cm,
                           self.metrics, n_clients=n, version=self.version,
                           mix_rng=self.rng.stream("mix"), **kw)
        fleet.start()
        return fleet

    def ab(self, n, size, **kw):
        fleet = AbFleet(self.sim, self.net, self.server.addresses(),
                        self.client_config_factory(), self.cm, self.metrics,
                        n_clients=n, file_size=size, version=self.version,
                        **kw)
        fleet.start()
        return fleet


ALL_CONFIGS = ("SW", "QAT+S", "QAT+A", "QAT+AH", "QTLS")


@pytest.mark.parametrize("name", ALL_CONFIGS)
def test_handshakes_complete_under_all_configs(name):
    w = World(name)
    w.s_time(30)
    w.sim.run(until=0.1)
    assert w.metrics.errors == 0
    assert len(w.metrics.handshakes) > 20
    snap = w.server.metrics_snapshot()
    assert snap["alerts"] == 0
    assert snap["handshakes_full"] >= len(w.metrics.handshakes)


def test_qtls_beats_sw_and_straight():
    results = {}
    for name in ("SW", "QAT+S", "QTLS"):
        w = World(name)
        w.s_time(60)
        w.sim.run(until=0.2)
        results[name] = w.metrics.cps(0.08, 0.2)
    assert results["QTLS"] > 3 * results["QAT+S"]
    assert results["QAT+S"] > 1.5 * results["SW"]


def test_qat_fw_counters_nonzero_after_offload():
    """The artifact appendix's fw_counters check."""
    w = World("QTLS")
    w.s_time(20)
    w.sim.run(until=0.05)
    totals = w.device.fw_counter_totals()
    assert totals["total"] > 0
    assert totals["kind.rsa_priv"] > 0
    assert totals.get("errors", 0) == 0
    # SW config never touches the device.
    w2 = World("SW")
    w2.s_time(20)
    w2.sim.run(until=0.05)
    assert w2.device is None


def test_data_transfer_keepalive():
    w = World("QTLS")
    w.ab(20, size=65536)
    w.sim.run(until=0.1)
    assert w.metrics.errors == 0
    assert len(w.metrics.requests) > 10
    assert w.metrics.throughput_bps(0.05, 0.1) > 1e9  # > 1 Gbps
    snap = w.server.metrics_snapshot()
    assert snap["requests_served"] >= len(w.metrics.requests)


def test_data_transfer_fragments_served():
    w = World("SW")
    w.ab(4, size=40000)  # 3 records per response
    w.sim.run(until=0.05)
    assert len(w.metrics.requests) > 3
    got = w.metrics.transfers[0][1]
    assert got == 40000


def test_response_time_mode_full_handshake_per_request():
    w = World("QTLS")
    w.ab(4, size=64, keepalive=False)
    w.sim.run(until=0.1)
    assert len(w.metrics.requests) > 10
    assert len(w.metrics.handshakes) == len(w.metrics.requests)
    lat = w.metrics.mean_latency(0.02, 0.1)
    assert 0.0002 < lat < 0.01


def test_session_resumption_reuse():
    w = World("QTLS", suites=("ECDHE-RSA",))
    w.s_time(30, reuse=True)
    w.sim.run(until=0.15)
    snap = w.server.metrics_snapshot()
    assert snap["handshakes_resumed"] > 0
    # Each client does one full handshake then resumes forever.
    assert snap["handshakes_full"] <= 31
    assert snap["handshakes_resumed"] > snap["handshakes_full"]


def test_mixed_ratio_roughly_one_to_nine():
    w = World("QTLS", suites=("ECDHE-RSA",))
    w.s_time(40, full_ratio=0.1)
    w.sim.run(until=0.3)
    snap = w.server.metrics_snapshot()
    total = snap["handshakes_full"] + snap["handshakes_resumed"]
    frac_full = snap["handshakes_full"] / total
    assert 0.05 < frac_full < 0.2


def test_tls13_end_to_end():
    w = World("QTLS", suites=("TLS1.3-ECDHE-RSA",), tls_version="1.3")
    w.s_time(20)
    w.sim.run(until=0.1)
    assert w.metrics.errors == 0
    assert len(w.metrics.handshakes) > 10


def test_real_crypto_end_to_end_qtls():
    """Full stack with REAL RSA/ECDHE/PRF crypto through the simulated
    QAT offload path."""
    w = World("QTLS", suites=("ECDHE-RSA",), rsa_bits=1024,
              provider=RealCryptoProvider())
    w.s_time(6)
    w.sim.run(until=0.03)
    assert w.metrics.errors == 0
    assert len(w.metrics.handshakes) > 3
    assert w.server.metrics_snapshot()["alerts"] == 0


def test_stack_async_end_to_end():
    w = World("QTLS", async_impl="stack")
    w.s_time(20)
    w.sim.run(until=0.08)
    assert w.metrics.errors == 0
    assert len(w.metrics.handshakes) > 10


def test_stack_async_keepalive_keeps_record_sequence():
    """A stack-async replay re-runs a paused record job from the top;
    it must reuse the record's sequence number, not take the next one,
    or every keepalive connection's second request fails its MAC."""
    served = {}
    for impl in ("fiber", "stack"):
        w = World("QTLS", workers=1, async_impl=impl)
        w.ab(4, size=40000)
        w.sim.run(until=0.05)
        assert w.metrics.errors == 0
        assert w.server.metrics_snapshot()["alerts"] == 0
        served[impl] = len(w.metrics.requests)
    assert served["fiber"] > 100
    assert served["stack"] >= 0.95 * served["fiber"]


def test_timer_interval_1ms_hurts_low_concurrency():
    """Figure 12's 1 ms interval pathology: with one client, every
    crypto op waits for the next poll tick."""
    results = {}
    for interval in (10e-6, 1e-3):
        w = World("QAT+A", workers=1, qat_timer_poll_interval=interval)
        w.ab(1, size=64, keepalive=False)
        w.sim.run(until=0.3)
        results[interval] = w.metrics.mean_latency(0.05, 0.3)
    assert results[1e-3] > 3 * results[10e-6]


def test_stub_status_consistent_after_load():
    w = World("QTLS")
    w.s_time(20)
    w.sim.run(until=0.1)
    for worker in w.server.workers:
        st = worker.stub_status
        assert 0 <= st.tls_idle <= st.tls_alive
        assert st.tls_alive == len(worker.conns)


def test_heuristic_poller_actually_used():
    w = World("QTLS")
    w.s_time(40)
    w.sim.run(until=0.1)
    polls = sum(wk.poller.polls for wk in w.server.workers)
    assert polls > 50
    for wk in w.server.workers:
        assert wk.timer_thread is None


def test_timer_thread_used_in_qat_a():
    w = World("QAT+A")
    w.s_time(20)
    w.sim.run(until=0.05)
    for wk in w.server.workers:
        assert wk.poller is None
        assert wk.timer_thread is not None
        assert wk.timer_thread.polls > 100


def test_interrupt_notify_mode_end_to_end():
    """The section 3.3 alternative: kernel interrupts retrieve
    responses. Functional, but slower than polling."""
    w = World("QTLS", qat_notify_mode="interrupt")
    w.s_time(30)
    w.sim.run(until=0.1)
    assert w.metrics.errors == 0
    assert len(w.metrics.handshakes) > 20
    irq = sum(wk.interrupt_retriever.interrupts for wk in w.server.workers)
    assert irq > 50
    for wk in w.server.workers:
        assert wk.poller is None and wk.timer_thread is None


def test_session_tickets_end_to_end_config():
    w = World("QTLS", suites=("ECDHE-RSA",), session_tickets=True,
              session_cache_enabled=False)
    w.s_time(20, reuse=True)
    w.sim.run(until=0.1)
    snap = w.server.metrics_snapshot()
    assert snap["handshakes_resumed"] > 0
    assert w.server.ticket_keeper.accepted > 0
