"""Server configuration, including the SSL Engine Framework settings
(artifact appendix A.7): offload mode, notify mode, poll mode, and the
heuristic thresholds — all the knobs the ``ssl_engine`` block of the
paper's extended Nginx conf exposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["SslEngineConfig", "ServerConfig"]


@dataclass
class SslEngineConfig:
    """The ``ssl_engine { qat_engine { ... } }`` block."""

    use_engine: str = "qat_engine"                # or "" for software
    #: Which accelerator sits behind the engine: "qat" (the on-board
    #: card) or "remote" (network-attached crypto service).
    offload_backend: str = "qat"
    default_algorithm: Tuple[str, ...] = ("RSA", "EC", "PKEY_CRYPTO",
                                          "CIPHER")
    #: "sync" = straight offload; "async" = the QTLS framework.
    qat_offload_mode: str = "async"
    #: How QAT completions reach software: "poll" (userspace polling,
    #: QTLS's choice) or "interrupt" (kernel IRQ path — modelled so the
    #: section 3.3 trade-off can be measured).
    qat_notify_mode: str = "poll"
    #: "timer" = independent polling thread; "heuristic" = section 3.3.
    qat_poll_mode: str = "heuristic"
    qat_timer_poll_interval: float = 10e-6
    qat_heuristic_poll_asym_threshold: int = 48
    qat_heuristic_poll_sym_threshold: int = 24
    #: Failover timer for the heuristic scheme (section 4.3).
    qat_failover_timer: float = 5e-3
    #: QAT crypto instances assigned to each worker (section 2.3:
    #: multiple instances from different endpoints employ more
    #: computation engines).
    qat_instances_per_worker: int = 1
    #: How the instance pool apportions instances among workers:
    #: "static" (dedicated consecutive chunks, the paper's deployment),
    #: "shared" (any worker submits to any instance, paying an
    #: arbitration cost per submit) or "dynamic" (periodic rebalance
    #: migrates leases toward pressured workers).
    qat_instance_policy: str = "static"
    #: Rebalance tick period for the dynamic policy.
    qat_rebalance_interval: float = 2e-3
    #: Graceful-degradation knobs (robustness layer). The deadline is
    #: generous by default — worst-case legitimate queueing at card
    #: saturation is a few ms, so healthy runs never trip it.
    qat_request_deadline: float = 25e-3
    #: Worker watchdog sweep interval (0 disables the watchdog).
    qat_watchdog_interval: float = 5e-3
    qat_submit_max_retries: int = 32
    #: Submission batching: coalesce up to this many queued ops into
    #: one backend submit call (1 = no batching, the paper's behavior).
    qat_batch_size: int = 1
    #: Per-worker admission control (any backend): at most this many
    #: concurrently offloaded ops; excess submissions wait in the
    #: engine's class lanes instead of bouncing off full rings. The
    #: only setting that makes the engine queue. 0 disables (unbounded,
    #: the paper's behaviour).
    offload_admission_limit: int = 0
    #: Arbitration policy for the class-aware admission lanes and
    #: batched flushes: "fifo" (global arrival order),
    #: "strict-priority" (handshake-asym > prf > record-cipher, with a
    #: starvation-proof deficit fallback) or "weighted-fair" (deficit
    #: round robin by ``offload_sched_weights``).
    offload_sched_policy: str = "fifo"
    #: Weighted-fair quanta per scheduling class (ops per round);
    #: unlisted classes keep their defaults (handshake-asym=8, prf=2,
    #: record-cipher=1).
    offload_sched_weights: Dict[str, int] = field(default_factory=dict)

    def validate(self) -> None:
        """Reject out-of-range settings. Messages name the conf
        directive, since conf text is validated here too."""
        if self.use_engine not in ("", "qat_engine"):
            raise ValueError(
                f"use: unknown engine {self.use_engine!r}; expected "
                "qat_engine (omit use for the software engine)")
        if self.offload_backend not in ("qat", "remote"):
            raise ValueError(
                "offload_backend: unknown offload backend "
                f"{self.offload_backend!r}; expected qat or remote")
        if (self.offload_backend == "remote"
                and self.qat_notify_mode == "interrupt"):
            raise ValueError(
                "qat_notify_mode interrupt requires offload_backend qat "
                "(a remote service has no local IRQ line)")
        if self.qat_batch_size < 1:
            raise ValueError(
                f"qat_batch_size must be >= 1, got {self.qat_batch_size}")
        if self.qat_offload_mode not in ("sync", "async"):
            raise ValueError(
                "qat_offload_mode: unknown offload mode "
                f"{self.qat_offload_mode!r}; expected sync or async")
        if self.qat_notify_mode not in ("poll", "interrupt"):
            raise ValueError(
                "qat_notify_mode: unknown notify mode "
                f"{self.qat_notify_mode!r}; expected poll or interrupt")
        if self.qat_poll_mode not in ("timer", "heuristic"):
            raise ValueError(
                f"qat_poll_mode: unknown poll mode {self.qat_poll_mode!r}; "
                "expected timer or heuristic")
        if self.qat_timer_poll_interval <= 0:
            raise ValueError(
                "qat_timer_poll_interval must be positive, got "
                f"{self.qat_timer_poll_interval}")
        if self.qat_heuristic_poll_asym_threshold < 1:
            raise ValueError(
                "qat_heuristic_poll_asym_threshold must be >= 1, got "
                f"{self.qat_heuristic_poll_asym_threshold}")
        if self.qat_heuristic_poll_sym_threshold < 1:
            raise ValueError(
                "qat_heuristic_poll_sym_threshold must be >= 1, got "
                f"{self.qat_heuristic_poll_sym_threshold}")
        if self.qat_instances_per_worker < 1:
            raise ValueError(
                "qat_instances_per_worker must be >= 1, got "
                f"{self.qat_instances_per_worker}")
        if self.qat_instance_policy not in ("static", "shared", "dynamic"):
            raise ValueError(
                "qat_instance_policy: unknown instance policy "
                f"{self.qat_instance_policy!r}; expected static, shared "
                "or dynamic")
        if (self.qat_instance_policy != "static"
                and self.qat_notify_mode == "interrupt"):
            raise ValueError(
                "qat_notify_mode interrupt requires the static instance "
                "policy (IRQ callbacks are armed on dedicated instances)")
        if self.qat_rebalance_interval <= 0:
            raise ValueError(
                "qat_rebalance_interval must be positive, got "
                f"{self.qat_rebalance_interval}")
        if self.offload_admission_limit < 0:
            raise ValueError(
                "offload_admission_limit must be >= 0 (0 disables), got "
                f"{self.offload_admission_limit}")
        from ..offload.scheduler import DEFAULT_WEIGHTS, SCHED_POLICIES
        if self.offload_sched_policy not in SCHED_POLICIES:
            raise ValueError(
                "offload_sched_policy: unknown scheduling policy "
                f"{self.offload_sched_policy!r}; expected one of "
                f"{', '.join(SCHED_POLICIES)}")
        for name, weight in self.offload_sched_weights.items():
            if name not in DEFAULT_WEIGHTS:
                raise ValueError(
                    "offload_sched_weights: unknown scheduling class "
                    f"{name!r}; expected one of "
                    f"{', '.join(sorted(DEFAULT_WEIGHTS))}")
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(
                    f"offload_sched_weights: weight for {name!r} must be "
                    f">= 1 (an integer), got {weight!r}")
        if self.qat_request_deadline <= 0:
            raise ValueError(
                "qat_request_deadline must be positive, got "
                f"{self.qat_request_deadline}")
        if self.qat_watchdog_interval < 0:
            raise ValueError(
                "qat_watchdog_interval must be >= 0 (0 disables), got "
                f"{self.qat_watchdog_interval}")
        if self.qat_submit_max_retries < 1:
            raise ValueError(
                "qat_submit_max_retries must be >= 1, got "
                f"{self.qat_submit_max_retries}")


@dataclass
class ServerConfig:
    """Top-level Nginx-like configuration."""

    worker_processes: int = 1
    listen: str = "https"
    #: TLS suites enabled, in server preference order (names).
    suites: Tuple[str, ...] = ("TLS-RSA",)
    curves: Tuple[str, ...] = ("P-256",)
    rsa_bits: int = 2048
    #: TLS protocol version: "1.2" or "1.3".
    tls_version: str = "1.2"
    session_cache_enabled: bool = True
    #: Issue stateless session tickets (RFC 5077) alongside the cache.
    session_tickets: bool = False
    #: Async-notification scheme: "fd" (epoll-monitored notification
    #: FDs) or "queue" (kernel-bypass async queue).
    async_notify_mode: str = "fd"
    #: OpenSSL async implementation: "fiber" or "stack" (section 4.1).
    async_impl: str = "fiber"
    #: Share one notification FD across all async jobs of a connection
    #: (the section 4.4 optimization). False allocates one per job.
    share_notify_fd: bool = True
    #: Lifecycle supervision (nginx master behaviour): respawn a
    #: crashed worker on the same core. Off leaves the slot dead and
    #: reclaims its instance leases for the surviving workers.
    worker_respawn: bool = True
    #: Per-slot respawn budget; a worker crashing more than this many
    #: times stays down (crash-loop protection).
    max_respawns: int = 5
    #: Graceful-reload drain deadline: an old-generation worker still
    #: holding connections past it is force-aborted.
    worker_drain_timeout: float = 50e-3
    ssl_engine: SslEngineConfig = field(default_factory=SslEngineConfig)

    def validate(self) -> None:
        """Reject out-of-range settings (messages name the conf
        directive), then the ``ssl_engine`` block's."""
        if self.worker_processes < 1:
            raise ValueError(
                f"worker_processes must be >= 1, got {self.worker_processes}")
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.worker_drain_timeout <= 0:
            raise ValueError(
                "worker_drain_timeout must be positive, got "
                f"{self.worker_drain_timeout}")
        if self.tls_version not in ("1.2", "1.3"):
            raise ValueError(
                "ssl_protocols: unsupported TLS version "
                f"{self.tls_version!r}; expected 1.2 or 1.3")
        if self.async_notify_mode not in ("fd", "queue"):
            raise ValueError(
                "ssl_asynch_notify: unknown notify mode "
                f"{self.async_notify_mode!r}; expected fd or queue")
        if self.async_impl not in ("fiber", "stack"):
            raise ValueError(
                f"unknown async impl {self.async_impl!r}; expected fiber "
                "or stack")
        self.ssl_engine.validate()

    @property
    def uses_offload(self) -> bool:
        """An accelerator-backed engine is configured (any backend)."""
        return self.ssl_engine.use_engine == "qat_engine"

    @property
    def uses_qat(self) -> bool:
        """The engine is backed by the on-board QAT card specifically
        (allocates instances, supports the interrupt notify mode)."""
        return (self.uses_offload
                and self.ssl_engine.offload_backend == "qat")

    @property
    def uses_remote(self) -> bool:
        return (self.uses_offload
                and self.ssl_engine.offload_backend == "remote")

    @property
    def async_offload(self) -> bool:
        return (self.uses_offload
                and self.ssl_engine.qat_offload_mode == "async")
