"""Mini-harness: runs server-side SSL against an in-memory client
without the full server event loop (tests the SSL/engine layers in
isolation)."""

from collections import deque

from repro.core.costmodel import CostModel
from repro.cpu import Core
from repro.offload.software import SoftwareEngine
from repro.offload.engine import AsyncOffloadEngine
from repro.offload.pool import InstancePool, StaticPolicy
from repro.qat import QatDevice
from repro.sim import Simulator
from repro.sim.rng import Stream
from repro.ssl import SslConnection, SslContext, SslStatus
from repro.tls import (TLS_RSA, TlsClientConfig, TlsServerConfig,
                       client_handshake12, client_handshake13)
from repro.tls.constants import ProtocolVersion
from repro.tls.loopback import SyncDriver
from repro.tls.suites import TLS13_ECDHE_RSA


class Env:
    """Bundle of simulator, core, engines and configs."""

    def __init__(self, suite=TLS_RSA, provider=None, async_mode="sync",
                 engine_kind="software", curve="P-256", rsa_bits=1024,
                 ring_capacity=64, session_cache=None):
        from repro.crypto.provider import ModeledCryptoProvider
        self.sim = Simulator()
        self.core = Core(self.sim, 0)
        self.cost_model = CostModel()
        self.provider = provider or ModeledCryptoProvider()
        rng = Stream

        kw = {}
        if suite.auth == "rsa":
            kw["credentials_rsa"] = self.provider.make_rsa_credentials(
                rsa_bits, rng(1))
        else:
            kw["credentials_ecdsa"] = self.provider.make_ecdsa_credentials(
                curve, rng(1))
        self.tls_config = TlsServerConfig(
            provider=self.provider, suites=(suite,), rng=rng(2),
            curves=(curve,), session_cache=session_cache, **kw)
        self.client_config = TlsClientConfig(
            provider=self.provider, suites=(suite,), rng=rng(3),
            curves=(curve,))

        if engine_kind == "software":
            self.engine = SoftwareEngine(self.core, self.cost_model)
            self.device = None
        else:
            self.device = QatDevice(self.sim, n_endpoints=1,
                                    ring_capacity=ring_capacity)
            self.instance = self.device.allocate_instances(1)[0]
            backend = InstancePool(self.sim, [self.instance], 1,
                                   StaticPolicy()).register(0)
            self.engine = AsyncOffloadEngine(backend, self.core,
                                             self.cost_model)

        version = (ProtocolVersion.TLS13 if suite is TLS13_ECDHE_RSA
                   else ProtocolVersion.TLS12)
        self.ctx = SslContext(self.tls_config, self.engine, self.core,
                              async_mode=async_mode, version=version)
        self.suite = suite
        self.version = version

    def connection(self, conn_id=0) -> SslConnection:
        return SslConnection(self.ctx, conn_id)

    def client_driver(self):
        gen = (client_handshake13(self.client_config)
               if self.version == ProtocolVersion.TLS13
               else client_handshake12(self.client_config))
        return SyncDriver(gen)


def handshake_process(env: Env, conn: SslConnection, log=None,
                      owner="worker", poll_interval=5e-6,
                      tamper=lambda msg: msg):
    """A sim process completing one handshake against a sync client.

    Handles WANT_READ by pumping the client, WANT_ASYNC/WANT_RETRY by
    polling the engine until the response arrives. ``tamper`` maps
    each client message on its way to the server. Returns the final
    status history.
    """
    client = env.client_driver()
    c2s = deque()
    s2c_list = []

    def proc(sim):
        statuses = []
        client.pump(deque(), s2c_list)  # initial client flight
        for m in s2c_list:
            conn.feed_message(tamper(m))
        s2c_list.clear()
        while True:
            status = yield from conn.do_handshake(owner)
            yield from env.core.settle()
            statuses.append(status)
            if log is not None:
                log.append((env.sim.now, status))
            # flush server outbox to the client
            out = [sm.message for sm in conn.outbox]
            conn.outbox.clear()
            if out:
                inbox = deque(out)
                sends = []
                client.pump(inbox, sends)
                for m in sends:
                    conn.feed_message(tamper(m))
            if status is SslStatus.OK:
                return statuses
            if status is SslStatus.WANT_READ:
                if not conn.hs_inbox:
                    raise RuntimeError("deadlock: server wants read, "
                                       "client has nothing to send")
                continue
            if status in (SslStatus.WANT_ASYNC, SslStatus.WANT_RETRY):
                while True:
                    jobs = yield from env.engine.poll_and_dispatch(owner)
                    yield from env.engine.core.settle()
                    if jobs or status is SslStatus.WANT_RETRY:
                        break
                    yield env.sim.timeout(poll_interval)

    return env.sim.process(proc(env.sim))
