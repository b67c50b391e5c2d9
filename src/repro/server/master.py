"""Master process: provisions cores, listeners, QAT instances and
workers (the paper's deployment shape, section 5.1: N workers on N
dedicated HT cores, one QAT instance per worker, instances spread
evenly over the card's endpoints)."""

from __future__ import annotations

from typing import List, Optional

from ..core.costmodel import CostModel, default_cost_model
from ..cpu.core import CpuTopology
from ..crypto.provider import CryptoProvider
from ..offload.software import SoftwareEngine
from ..net.link import Link
from ..net.network import Network
from ..offload.engine import AsyncOffloadEngine
from ..offload.pool import DynamicPolicy, InstancePool, make_policy
from ..offload.remote import RemoteAcceleratorBackend, RemoteCryptoService
from ..qat.device import QatDevice
from ..qat.driver import QatUserspaceDriver
from ..sim.rng import RngRegistry
from ..ssl.context import SslContext
from ..tls.config import TlsServerConfig
from ..tls.constants import ProtocolVersion
from ..tls.session import SessionCache
from ..tls.suites import get_suite
from .config import ServerConfig
from .lifecycle import WorkerSupervisor
from .worker import Worker

__all__ = ["TlsServer"]


class TlsServer:
    """The whole server machine: master + workers."""

    def __init__(self, sim, net: Network, config: ServerConfig,
                 provider: CryptoProvider, rng: RngRegistry,
                 qat_device: Optional[QatDevice] = None,
                 cost_model: Optional[CostModel] = None,
                 ht_efficiency: float = 1.0) -> None:
        config.validate()
        self.sim = sim
        self.net = net
        self.config = config
        self.provider = provider
        self.cost_model = cost_model or default_cost_model()
        self.qat_device = qat_device
        if config.uses_qat and qat_device is None:
            raise ValueError("QAT offload configured but no device given")
        self._rng = rng

        suites = tuple(get_suite(name) for name in config.suites)
        self._suites = suites
        self._version = (ProtocolVersion.TLS13 if config.tls_version == "1.3"
                         else ProtocolVersion.TLS12)

        # Shared server credentials (one cert, as in the testbed).
        cred_rng = rng.stream("server-credentials")
        self._cred_rsa = None
        self._cred_ecdsa = None
        if any(s.auth == "rsa" for s in suites):
            self._cred_rsa = provider.make_rsa_credentials(
                config.rsa_bits, cred_rng)
        if any(s.auth == "ecdsa" for s in suites):
            self._cred_ecdsa = provider.make_ecdsa_credentials(
                config.curves[0], cred_rng)

        self.session_cache = (SessionCache(sim,
                                           lifetime=config.session_lifetime)
                              if config.session_cache_enabled else None)
        # One STEK shared by all workers (as deployments rotate and
        # distribute ticket keys fleet-wide).
        self.ticket_keeper = None
        if config.session_tickets:
            from ..tls.ticket import TicketKeeper
            self.ticket_keeper = TicketKeeper(
                bytes(rng.stream("stek").bytes(16)),
                lifetime=config.session_lifetime)

        self.topology = CpuTopology(sim, config.worker_processes,
                                    ht_efficiency=ht_efficiency)
        per_worker = config.ssl_engine.qat_instances_per_worker
        self.instance_pool: Optional[InstancePool] = None
        if config.uses_qat:
            flat = qat_device.allocate_instances(
                config.worker_processes * per_worker)
            eng_cfg = config.ssl_engine
            if eng_cfg.qat_instance_policy == "dynamic":
                # A lane must settle for at least one tick before it
                # can migrate again (hysteresis against thrash).
                policy = DynamicPolicy(
                    min_dwell=eng_cfg.qat_rebalance_interval)
            else:
                policy = make_policy(eng_cfg.qat_instance_policy)
            # The pool owns one userspace driver per instance; the
            # policy's initial leases reproduce the historical
            # consecutive-chunk partition (with round-robin allocation
            # each worker's chunk lands on different endpoints).
            self.instance_pool = InstancePool(
                sim, [QatUserspaceDriver(inst) for inst in flat],
                config.worker_processes, policy)
        self._rebalance_proc_running = False

        # One shared network-attached crypto service per deployment
        # (offload_backend "remote"): all workers' RPC batches funnel
        # through one NIC-pair of links into one processor pool.
        self.remote_service: Optional[RemoteCryptoService] = None
        self._remote_tx: Optional[Link] = None
        self._remote_rx: Optional[Link] = None
        if config.uses_remote:
            eng_cfg = config.ssl_engine
            self.remote_service = RemoteCryptoService(
                sim, n_processors=eng_cfg.remote_processors,
                service_scale=eng_cfg.remote_service_scale)
            self._remote_tx = Link(
                sim, latency=eng_cfg.remote_link_latency,
                bandwidth_bps=eng_cfg.remote_link_bandwidth,
                name="server->accel")
            self._remote_rx = Link(
                sim, latency=eng_cfg.remote_link_latency,
                bandwidth_bps=eng_cfg.remote_link_bandwidth,
                name="accel->server")

        # Listen sockets outlive worker incarnations (nginx inherits
        # them across respawns and reloads), so they are bound once and
        # handed to whichever worker currently serves the slot.
        self.listeners = [net.bind(self.listen_addr(i))
                          for i in range(config.worker_processes)]
        self.supervisor = WorkerSupervisor(sim, self)
        #: Dead incarnations (crashed or drained out), kept so their
        #: metrics still aggregate into :meth:`metrics_snapshot`.
        self.retired_workers: List[Worker] = []
        self.workers: List[Worker] = [
            self._make_worker(i) for i in range(config.worker_processes)]

    def _ctx_factory(self, worker_id: int):
        """The SSL-context factory for one worker slot. Reads
        ``self.config`` at call time, so a replacement worker spawned
        after a reload picks up the new configuration; the worker's RNG
        stream is slot-keyed and cached by the registry, so a respawned
        incarnation *continues* the stream deterministically."""
        sim = self.sim
        worker_rng = self._rng.stream(f"worker-{worker_id}")

        def make_ctx(worker, core=None):
            config = self.config
            core = worker.core
            tls_cfg = TlsServerConfig(
                provider=self.provider, suites=self._suites,
                rng=worker_rng,
                credentials_rsa=self._cred_rsa,
                credentials_ecdsa=self._cred_ecdsa,
                curves=config.curves,
                session_cache=self.session_cache,
                issue_tickets=config.session_tickets,
                ticket_keeper=self.ticket_keeper,
                clock=lambda: sim.now)
            eng_cfg = config.ssl_engine
            engine_kw = dict(
                algorithms=eng_cfg.default_algorithm,
                request_deadline=eng_cfg.qat_request_deadline,
                submit_max_retries=eng_cfg.qat_submit_max_retries,
                breaker_failure_threshold=(
                    eng_cfg.qat_breaker_failure_threshold),
                breaker_reset_timeout=(
                    eng_cfg.qat_breaker_reset_timeout),
                software_fallback=eng_cfg.qat_software_fallback,
                batch_size=eng_cfg.qat_batch_size,
                batch_timeout=eng_cfg.qat_batch_timeout,
                admission_limit=(
                    eng_cfg.offload_admission_limit or None),
                sched_policy=eng_cfg.offload_sched_policy,
                sched_weights=(
                    dict(eng_cfg.offload_sched_weights) or None),
                conn_budget=(eng_cfg.offload_conn_budget or None),
                # Per-incarnation retry-backoff jitter seed: one draw
                # from the worker's stream, so simultaneous ring-full
                # bounces across workers desynchronize their retries
                # while same-seed runs replay bit-for-bit.
                backoff_jitter_seed=int(worker_rng.integers(1 << 63)))
            if config.uses_qat:
                backend = self.instance_pool.register(worker_id)
                engine = AsyncOffloadEngine(
                    backend, core, self.cost_model, **engine_kw)
            elif config.uses_remote:
                backend = RemoteAcceleratorBackend(
                    sim, self.remote_service,
                    tx_link=self._remote_tx, rx_link=self._remote_rx,
                    window=eng_cfg.remote_window)
                engine = AsyncOffloadEngine(
                    backend, core, self.cost_model, **engine_kw)
            else:
                engine = SoftwareEngine(core, self.cost_model)
            async_mode = (config.async_impl if config.async_offload
                          else "sync")
            return SslContext(tls_cfg, engine, core, self.cost_model,
                              async_mode=async_mode,
                              version=self._version)

        return make_ctx

    def _make_worker(self, slot: int, generation: int = 0) -> Worker:
        """Build (but don't start) a worker incarnation for ``slot``,
        reusing the slot's core and inherited listen socket."""
        return Worker(self.sim, slot, self.topology[slot],
                      self.listeners[slot], self._ctx_factory(slot),
                      self.config, self.cost_model,
                      generation=generation)

    # -- addressing -----------------------------------------------------------

    def listen_addr(self, worker_id: int) -> str:
        """Per-worker listen address (models SO_REUSEPORT sharding)."""
        return f"{self.config.listen}#{worker_id}"

    def addresses(self) -> List[str]:
        return [self.listen_addr(i) for i in range(len(self.workers))]

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        for i, w in enumerate(self.workers):
            self._start_worker(i, w)
        pool = self.instance_pool
        if pool is not None:
            if (isinstance(pool.policy, DynamicPolicy)
                    and not self._rebalance_proc_running):
                self._rebalance_proc_running = True
                self.sim.process(self._rebalance_loop(),
                                 name="pool-rebalance")
        # Deterministic worker-crash faults from the device's plan.
        plan = getattr(self.qat_device, "fault_plan", None)
        if plan is not None and getattr(plan, "worker_crashes", ()):
            self.supervisor.schedule_crashes(plan)

    def _start_worker(self, slot: int, worker: Worker) -> None:
        """Start an incarnation and wire it into the pool (pressure and
        breaker-health feeds) and the supervisor."""
        worker.start()
        pool = self.instance_pool
        if pool is not None:
            engine = worker.engine

            def pressure(engine=engine) -> float:
                return (engine.inflight.total
                        + engine.admission_queued)

            def healthy(engine=engine) -> bool:
                return engine.open_breakers == 0

            pool.set_pressure_source(slot, pressure)
            pool.set_health_source(slot, healthy)
        self.supervisor.watch(slot, worker)

    # -- supervision entry points ---------------------------------------------

    def reload(self, new_config: Optional[ServerConfig] = None) -> bool:
        """Graceful reload (SIGHUP semantics): validate the new config,
        swap it in, spawn a new worker generation and drain the old one.
        Returns False (old config keeps serving) if validation rejects
        the candidate."""
        return self.supervisor.reload(new_config)

    def crash_worker(self, slot: int) -> bool:
        """Kill one worker incarnation abruptly (test/fault hook)."""
        return self.supervisor.crash_worker(slot)

    def _rebalance_loop(self):
        interval = self.config.ssl_engine.qat_rebalance_interval
        try:
            while self._rebalance_proc_running:
                yield self.sim.timeout(interval)
                if not self._rebalance_proc_running:
                    return
                self.instance_pool.rebalance(self.sim.now)
        finally:
            self._rebalance_proc_running = False

    def stop(self) -> None:
        self._rebalance_proc_running = False
        for w in self.workers:
            w.stop()
        for w in self.retired_workers:
            if w.running:
                w.stop()

    # -- metrics ------------------------------------------------------------------

    def metrics_snapshot(self) -> dict:
        total: dict = {}
        for w in list(self.workers) + list(self.retired_workers):
            for k, v in w.metrics.snapshot().items():
                total[k] = total.get(k, 0) + v
        return total

    def consistent_status_snapshot(self) -> dict:
        """stub_status and firmware counters captured as one atomic
        pair: every worker's page is refreshed from its engine ledgers
        and the device's ``fw_counter_totals()`` is read in the same
        synchronous call, with no simulation step in between. This is
        the only read under which the two sides are guaranteed to
        agree mid-pass (see :meth:`Worker.status_snapshot`)."""
        workers = {}
        for w in list(self.workers) + list(self.retired_workers):
            key = f"w{w.worker_id}g{w.generation}"
            workers[key] = w.status_snapshot()
        fw = (self.qat_device.fw_counter_totals()
              if self.qat_device is not None else {})
        return {"workers": workers, "fw": fw}

    def total_busy_time(self) -> float:
        return self.topology.total_busy_time()
