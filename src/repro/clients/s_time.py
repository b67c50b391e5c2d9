"""The ``openssl s_time``-like CPS workload (paper section 5.2).

Each client is a closed loop: TCP connect, TLS handshake, close,
repeat. With ``reuse`` (section 5.3) the client resumes its previous
session (abbreviated handshake); a ``full_ratio`` between 0 and 1
mixes full and abbreviated handshakes (Figure 9b's 1:9 uses 0.1).
"""

from __future__ import annotations

from typing import List, Optional

from ..core.costmodel import CLIENT_STEP_COST, CostModel
from ..core.metrics import ClientMetrics
from ..net.network import Network
from ..sim.rng import Stream
from ..tls.actions import TlsAlert
from ..tls.config import TlsClientConfig
from ..tls.constants import ProtocolVersion
from .tls_session import ClientTlsSession, PeerAlert

__all__ = ["STimeFleet"]

#: The client machines s_time runs on (the testbed's two client
#: servers).
MACHINES = ("client0", "client1")


class STimeFleet:
    """A population of s_time client processes."""

    def __init__(self, sim, net: Network, addresses: List[str],
                 client_config_factory, cost_model: CostModel,
                 metrics: ClientMetrics, n_clients: int,
                 version: ProtocolVersion = ProtocolVersion.TLS12,
                 reuse: bool = False, full_ratio: float = 1.0,
                 mix_rng: Optional[Stream] = None,
                 stagger: float = 0.04) -> None:
        if n_clients < 1:
            raise ValueError("need at least one client")
        if not 0.0 <= full_ratio <= 1.0:
            raise ValueError("full_ratio in [0, 1]")
        if reuse and full_ratio == 1.0:
            full_ratio = 0.0  # pure-resumption mode ("reuse" flag)
        self.sim = sim
        self.net = net
        self.addresses = addresses
        self.make_client_config = client_config_factory
        self.cm = cost_model
        self.metrics = metrics
        self.n_clients = n_clients
        self.version = version
        self.reuse = reuse or full_ratio < 1.0
        self.full_ratio = full_ratio
        self.mix_rng = mix_rng if mix_rng is not None else Stream(0)
        #: Client processes start spread over [0, stagger] seconds —
        #: real benchmark processes never launch in lockstep, and
        #: synchronized starts distort short measurement windows.
        self.stagger = stagger
        self._procs = []

    def start(self) -> None:
        for i in range(self.n_clients):
            self._procs.append(
                self.sim.process(self._client_loop(i),
                                 name=f"s_time-{i}"))

    def _client_loop(self, client_id: int):
        machine = MACHINES[client_id % len(MACHINES)]
        address = self.addresses[client_id % len(self.addresses)]
        resume_cfg: Optional[TlsClientConfig] = None
        if self.stagger > 0:
            yield from self.sim.hold(self.mix_rng.random() * self.stagger)
        while True:
            base_cfg = self.make_client_config(client_id)
            want_full = (resume_cfg is None
                         or self.mix_rng.random() < self.full_ratio)
            cfg = base_cfg if want_full else resume_cfg

            start = self.sim.now
            try:
                sock = yield from self.net.connect(
                    machine, address, label=f"st{client_id}")
                session = ClientTlsSession(self.sim, sock, cfg, self.cm,
                                           version=self.version)
                result = yield from session.handshake()
            except (TlsAlert, ConnectionError) as exc:
                self.metrics.record_error()
                if isinstance(exc, PeerAlert):
                    # RFC 5246 7.2.2: the server forgot this session.
                    resume_cfg = None
                yield from self.sim.hold(1e-3)  # back off briefly
                continue
            now = self.sim.now
            self.metrics.record_handshake(now, now - start, result.resumed)
            sock.close()
            if self.reuse and not result.resumed \
                    and (result.session_id or result.session_ticket):
                resume_cfg = session.resumption_config(cfg.rng)
            # s_time immediately loops; a small client-side turnaround
            # keeps per-client cycles from being zero-time.
            yield from self.sim.hold(CLIENT_STEP_COST)
