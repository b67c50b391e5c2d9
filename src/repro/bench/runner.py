"""Experiment testbed: assembles the full simulated world (server
machine + QAT card + client machines) and measures CPS / throughput /
latency over a warmed-up window, as the paper's testbed does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..clients import AbFleet, STimeFleet
from ..core.configurations import make_server_config
from ..core.costmodel import CostModel
from ..core.metrics import ClientMetrics
from ..crypto.provider import ModeledCryptoProvider
from ..net.network import Network
from ..obs import RequestTracer
from ..qat.device import dh8970
from ..qat.faults import FaultPlan
from ..server.master import TlsServer
from ..sim.kernel import Simulator
from ..sim.rng import RngRegistry
from ..tls.config import TlsClientConfig
from ..tls.constants import ProtocolVersion
from ..tls.suites import get_suite

__all__ = ["Testbed", "Windows", "CLIENTS_PER_WORKER"]

#: Closed-loop client sizing per configuration ("multiple benchmark
#: processes may be needed to fully load the running Nginx" — artifact
#: appendix A.6). Blocking configs serialize per worker, so a handful
#: of clients saturates them; the async framework needs enough
#: concurrency to fill the accelerator.
CLIENTS_PER_WORKER: Dict[str, int] = {
    "SW": 16, "QAT+S": 16, "QAT+A": 100, "QAT+AH": 100, "QTLS": 100,
}


@dataclass(frozen=True)
class Windows:
    """Warm-up and measurement windows (simulated seconds)."""

    warmup: float = 0.1
    measure: float = 0.15

    @property
    def end(self) -> float:
        return self.warmup + self.measure


class Testbed:
    """One experiment run: a server under a config + a client fleet."""

    __test__ = False  # not a pytest collection target

    def __init__(self, config_name: str, workers: int,
                 suites: Tuple[str, ...] = ("TLS-RSA",),
                 curves: Tuple[str, ...] = ("P-256",),
                 tls_version: str = "1.2", rsa_bits: int = 2048,
                 cost_model: Optional[CostModel] = None,
                 seed: int = 7,
                 fault_plan: Optional[Dict] = None,
                 trace: bool = False,
                 **config_overrides) -> None:
        self.config_name = config_name
        self.sim = Simulator()
        #: Request-lifecycle tracing (``repro.obs``): attach a tracer
        #: before any server/client construction so every layer sees
        #: the same ``sim.obs``. None when tracing is off — the
        #: instrumentation then costs one attribute read per site.
        self.tracer: Optional[RequestTracer] = None
        if trace:
            self.tracer = RequestTracer()
            self.sim.obs = self.tracer
        self.rng = RngRegistry(seed)
        self.net = Network(self.sim)
        self.provider = ModeledCryptoProvider()
        self.cost_model = cost_model or CostModel()
        self.config = make_server_config(
            config_name, workers=workers, suites=suites, curves=curves,
            tls_version=tls_version, rsa_bits=rsa_bits, **config_overrides)
        self.device = dh8970(self.sim) if self.config.uses_qat else None
        #: Fault injection (robustness experiments): ``fault_plan`` is
        #: the FaultPlan kwargs; its randomness draws from the testbed's
        #: seeded registry, so the whole faulted run replays from seed.
        self.fault_plan: Optional[FaultPlan] = None
        if fault_plan is not None and self.device is not None:
            self.fault_plan = FaultPlan(self.rng.stream("faults"),
                                        **fault_plan)
            self.device.install_fault_plan(self.fault_plan)
        self.server = TlsServer(self.sim, self.net, self.config,
                                self.provider, self.rng,
                                qat_device=self.device,
                                cost_model=self.cost_model)
        self.server.start()
        self.metrics = ClientMetrics()
        self.suites = suites
        self.curves = curves
        self.version = (ProtocolVersion.TLS13 if tls_version == "1.3"
                        else ProtocolVersion.TLS12)

    # -- client plumbing ---------------------------------------------------

    def _client_config_factory(self):
        suites = tuple(get_suite(s) for s in self.suites)

        def factory(cid: int) -> TlsClientConfig:
            return TlsClientConfig(
                provider=self.provider, suites=suites,
                rng=self.rng.stream(f"client-{cid}"), curves=self.curves)

        return factory

    def default_clients(self) -> int:
        return (CLIENTS_PER_WORKER[self.config_name]
                * self.config.worker_processes)

    def add_s_time_fleet(self, n_clients: Optional[int] = None,
                         addresses: Optional[List[str]] = None,
                         **kw) -> STimeFleet:
        """``addresses`` overrides the per-worker listener list; pass a
        weighted (repeated) list to skew load across workers — clients
        map to ``addresses[client_id % len(addresses)]``."""
        fleet = STimeFleet(
            self.sim, self.net,
            addresses if addresses is not None else self.server.addresses(),
            self._client_config_factory(), self.cost_model, self.metrics,
            n_clients=(n_clients if n_clients is not None
                       else self.default_clients()),
            version=self.version, mix_rng=self.rng.stream("mix"), **kw)
        fleet.start()
        return fleet

    def add_ab_fleet(self, n_clients: int, file_size: int,
                     **kw) -> AbFleet:
        fleet = AbFleet(
            self.sim, self.net, self.server.addresses(),
            self._client_config_factory(), self.cost_model, self.metrics,
            n_clients=n_clients, file_size=file_size,
            version=self.version, **kw)
        fleet.start()
        return fleet

    # -- measurements ----------------------------------------------------------

    def run_window(self, windows: Windows) -> None:
        self.sim.run(until=windows.end)

    def measure_cps(self, windows: Windows,
                    n_clients: Optional[int] = None, **fleet_kw) -> float:
        """Full s_time run: returns connections/second."""
        self.add_s_time_fleet(n_clients, **fleet_kw)
        self.run_window(windows)
        return self.metrics.cps(windows.warmup, windows.end)

    def measure_throughput(self, windows: Windows, n_clients: int,
                           file_size: int, **fleet_kw) -> float:
        """Keepalive ab run: returns payload bits/second."""
        self.add_ab_fleet(n_clients, file_size, **fleet_kw)
        self.run_window(windows)
        return self.metrics.throughput_bps(windows.warmup, windows.end)

    def measure_latency(self, windows: Windows, n_clients: int,
                        file_size: int = 64) -> float:
        """Full-handshake-per-request ab run: mean response time (s)."""
        self.add_ab_fleet(n_clients, file_size, keepalive=False)
        self.run_window(windows)
        return self.metrics.mean_latency(windows.warmup, windows.end)
