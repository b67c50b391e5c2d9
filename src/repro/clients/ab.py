"""ApacheBench-like clients (paper sections 5.4 and 5.5).

Two modes:

- **keepalive** (Figure 10): connect + handshake once, then request a
  fixed-size file in a closed loop — measures data-transfer
  throughput with the handshake amortized away;
- **per-request handshake** (Figure 11): each request opens a fresh
  connection with a full handshake and fetches a small page —
  measures end-to-end response time under varied concurrency.
"""

from __future__ import annotations

from typing import List

from ..core.costmodel import CostModel
from ..core.metrics import ClientMetrics
from ..net.network import Network
from ..server.http import RESPONSE_HEADER_SIZE, encode_request
from ..tls.actions import TlsAlert
from ..tls.constants import ProtocolVersion
from .tls_session import ClientTlsSession

__all__ = ["AbFleet"]

#: The client machines ab runs on.
MACHINES = ("client0",)


class AbFleet:
    """A population of ab worker processes."""

    def __init__(self, sim, net: Network, addresses: List[str],
                 client_config_factory, cost_model: CostModel,
                 metrics: ClientMetrics, n_clients: int, file_size: int,
                 version: ProtocolVersion = ProtocolVersion.TLS12,
                 keepalive: bool = True, stagger: float = 0.02) -> None:
        if n_clients < 1:
            raise ValueError("need at least one client")
        if file_size < 0:
            raise ValueError("negative file size")
        self.sim = sim
        self.net = net
        self.addresses = addresses
        self.make_client_config = client_config_factory
        self.cm = cost_model
        self.metrics = metrics
        self.n_clients = n_clients
        self.file_size = file_size
        self.version = version
        self.keepalive = keepalive
        self.stagger = stagger
        self._procs = []

    def start(self) -> None:
        loop = (self._keepalive_loop if self.keepalive
                else self._full_handshake_loop)
        for i in range(self.n_clients):
            self._procs.append(
                self.sim.process(loop(i), name=f"ab-{i}"))

    # -- Figure 10 mode ------------------------------------------------------

    def _keepalive_loop(self, client_id: int):
        machine = MACHINES[client_id % len(MACHINES)]
        address = self.addresses[client_id % len(self.addresses)]
        expected = RESPONSE_HEADER_SIZE + self.file_size
        request = encode_request(self.file_size, keepalive=True)
        if self.stagger > 0:
            yield self.sim.timeout(
                self.stagger * (client_id + 1) / self.n_clients)
        while True:
            try:
                sock = yield from self.net.connect(
                    machine, address, label=f"ab{client_id}")
                session = ClientTlsSession(self.sim, sock,
                                           self.make_client_config(client_id),
                                           self.cm, version=self.version)
                yield from session.handshake()
                while True:
                    t0 = self.sim.now
                    yield from session.send_request(request)
                    got = yield from session.receive_payload(expected)
                    now = self.sim.now
                    self.metrics.record_request(now, now - t0,
                                                got - RESPONSE_HEADER_SIZE)
            except (TlsAlert, ConnectionError):
                self.metrics.record_error()
                yield self.sim.timeout(1e-3)

    # -- Figure 11 mode ---------------------------------------------------------

    def _full_handshake_loop(self, client_id: int):
        machine = MACHINES[client_id % len(MACHINES)]
        address = self.addresses[client_id % len(self.addresses)]
        expected = RESPONSE_HEADER_SIZE + self.file_size
        request = encode_request(self.file_size, keepalive=False)
        if self.stagger > 0:
            yield self.sim.timeout(
                self.stagger * (client_id + 1) / self.n_clients)
        while True:
            t0 = self.sim.now
            try:
                sock = yield from self.net.connect(
                    machine, address, label=f"ab{client_id}")
                session = ClientTlsSession(self.sim, sock,
                                           self.make_client_config(client_id),
                                           self.cm, version=self.version)
                result = yield from session.handshake()
                yield from session.send_request(request)
                got = yield from session.receive_payload(expected)
                now = self.sim.now
                self.metrics.record_request(now, now - t0,
                                            got - RESPONSE_HEADER_SIZE)
                self.metrics.record_handshake(now, now - t0, result.resumed)
                sock.close()
            except (TlsAlert, ConnectionError):
                self.metrics.record_error()
                yield self.sim.timeout(1e-3)
