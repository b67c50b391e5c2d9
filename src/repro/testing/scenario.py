"""Deterministic scenario generation and execution (simulation fuzzing).

FoundationDB-style testing for the offload stack: one seeded RNG draws
a random server configuration, a random client mix, a random fault
schedule and random mid-run lifecycle actions, so the whole scenario —
generation *and* execution — is identified by ``(HARNESS_VERSION,
seed)``. ``tools/fuzz_scenarios.py`` runs thousands of these and
checks the :mod:`repro.testing.invariants` catalogue after each;
failures shrink to a minimal spec via :mod:`repro.testing.shrink`.

Scenario specs are plain data (JSON round-trippable) so a shrunk
counterexample can be replayed directly, without its original seed.
The tier-1 seed corpus (:func:`load_corpus`) replays this way too, so
its scenarios survive generator changes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..bench.runner import Testbed
from ..core.configurations import make_server_config
from ..sim.rng import Stream

__all__ = ["HARNESS_VERSION", "ClientSpec", "ActionSpec", "ScenarioSpec",
           "ScenarioGen", "ScenarioResult", "run_scenario", "fingerprint",
           "load_corpus"]

#: Bump whenever generation changes: a fuzz seed names the scenario
#: produced by THIS generator, so drift must be explicit.
#: v2: retrieval-mode sampling (qat_poll_mode flips, timer poll
#: interval, failover timer). v3: no per-connection budget draws.
#: v4: no "software" offload backend draw.
HARNESS_VERSION = 4

#: Suite choices per TLS version (server preference order irrelevant
#: here — one or two suites are offered).
SUITES_12 = ("TLS-RSA", "ECDHE-RSA", "ECDHE-ECDSA")
SUITES_13 = ("TLS1.3-ECDHE-RSA",)

#: Paper configuration names, weighted toward the async framework (the
#: interleavings worth fuzzing live there).
CONFIG_WEIGHTS = (("QTLS", 0.40), ("QAT+AH", 0.25), ("QAT+A", 0.15),
                  ("QAT+S", 0.10), ("SW", 0.10))


@dataclass
class ClientSpec:
    """One client fleet: an s_time CPS load or an ab transfer load."""

    kind: str = "s_time"            # "s_time" | "ab"
    n_clients: int = 8
    full_ratio: float = 1.0         # s_time: 1.0 = all full handshakes
    stagger: float = 0.02
    keepalive: bool = True          # ab
    file_size: int = 4096           # ab


@dataclass
class ActionSpec:
    """One mid-run lifecycle action fired at an absolute sim time."""

    kind: str                        # "reload" | "crash"
    at: float
    slot: int = 0                    # crash target
    mutation: Dict[str, Any] = field(default_factory=dict)  # reload


@dataclass
class ScenarioSpec:
    """A complete randomized scenario, as replayable plain data."""

    seed: int
    config_name: str = "QTLS"
    workers: int = 1
    suites: Tuple[str, ...] = ("TLS-RSA",)
    tls_version: str = "1.2"
    duration: float = 0.05
    trace: bool = False
    overrides: Dict[str, Any] = field(default_factory=dict)
    clients: List[ClientSpec] = field(default_factory=list)
    faults: Optional[Dict[str, Any]] = None
    actions: List[ActionSpec] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["suites"] = list(self.suites)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        """Rebuild a spec from its JSON form (unknown keys raise). The
        spec is plain config data, so it replays under any generator
        version."""
        d = dict(d)
        d["suites"] = tuple(d.get("suites", ("TLS-RSA",)))
        d["clients"] = [ClientSpec(**c) for c in d.get("clients", [])]
        d["actions"] = [ActionSpec(**a) for a in d.get("actions", [])]
        return cls(**d)

    def describe(self) -> str:
        """One-line feature summary (corpus comments, shrink logs)."""
        bits = [self.config_name, f"w{self.workers}",
                f"tls{self.tls_version}",
                f"{len(self.clients)}fleet"]
        if self.overrides.get("offload_backend", "qat") != "qat":
            bits.append(self.overrides["offload_backend"])
        if self.overrides.get("qat_instance_policy", "static") != "static":
            bits.append(self.overrides["qat_instance_policy"])
        if self.overrides.get("offload_sched_policy", "fifo") != "fifo":
            bits.append(self.overrides["offload_sched_policy"])
        if self.overrides.get("offload_admission_limit"):
            bits.append(f"adm{self.overrides['offload_admission_limit']}")
        if self.overrides.get("qat_notify_mode") == "interrupt":
            bits.append("irq")
        if self.overrides.get("qat_poll_mode"):
            bits.append("poll-" + self.overrides["qat_poll_mode"])
        if self.overrides.get("qat_timer_poll_interval"):
            bits.append(
                f"tick{self.overrides['qat_timer_poll_interval'] * 1e6:.0f}us")
        if "qat_failover_timer" in self.overrides:
            fo = self.overrides["qat_failover_timer"]
            bits.append("fo-off" if fo == 0 else f"fo{fo * 1e3:g}ms")
        if self.faults:
            bits.append("faults:" + ",".join(sorted(
                k for k in self.faults
                if not k.endswith("_window") and not k.endswith("_factor"))))
        for a in self.actions:
            bits.append(a.kind)
        return " ".join(bits)


class ScenarioGen:
    """Draws :class:`ScenarioSpec`\\ s from a single seeded stream."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = Stream(seed)

    # small typed draw helpers (one RNG, deterministic order) ---------------

    def _choice(self, options, weights=None):
        if weights is not None:
            total = float(sum(weights))
            p = [w / total for w in weights]
            return options[self.rng.choice(len(options), p=p)]
        return options[self.rng.integers(len(options))]

    def _flag(self, p: float) -> bool:
        return self.rng.random() < p

    def _int(self, lo: int, hi: int) -> int:
        return self.rng.integers(lo, hi + 1)

    def _uniform(self, lo: float, hi: float) -> float:
        return self.rng.uniform(lo, hi)

    # scenario dimensions ---------------------------------------------------

    def generate(self) -> ScenarioSpec:
        names, weights = zip(*CONFIG_WEIGHTS)
        config_name = self._choice(names, weights)
        workers = self._choice((1, 1, 2, 2, 3))
        tls_version = "1.3" if self._flag(0.25) else "1.2"
        if tls_version == "1.3":
            suites = SUITES_13
        else:
            k = 1 if self._flag(0.7) else 2
            idx = self.rng.permutation(len(SUITES_12))[:k]
            suites = tuple(SUITES_12[i] for i in idx)
        duration = self._uniform(0.04, 0.08)
        overrides = self._gen_overrides(config_name, workers)
        uses_qat = (config_name != "SW"
                    and overrides.get("offload_backend", "qat") == "qat")
        spec = ScenarioSpec(
            seed=self.seed, config_name=config_name, workers=workers,
            suites=suites, tls_version=tls_version, duration=duration,
            trace=self._flag(0.3), overrides=overrides,
            clients=self._gen_clients(workers),
            faults=(self._gen_faults(workers, duration, uses_qat)
                    if uses_qat and self._flag(0.6) else None),
            actions=self._gen_actions(config_name, workers, duration,
                                      uses_qat))
        # Prove the composed configuration is valid before shipping the
        # spec anywhere (generation bugs fail here, not mid-run).
        make_server_config(spec.config_name, workers=spec.workers,
                           suites=spec.suites, tls_version=spec.tls_version,
                           **spec.overrides)
        return spec

    def _gen_overrides(self, config_name: str, workers: int) -> dict:
        ov: Dict[str, Any] = {}
        if config_name == "SW":
            return ov
        backend = self._choice(("qat", "qat", "qat", "qat", "qat",
                                "remote"))
        if backend != "qat":
            ov["offload_backend"] = backend
        async_config = config_name in ("QAT+A", "QAT+AH", "QTLS")
        if backend == "qat":
            if self._flag(0.4):
                ov["qat_instances_per_worker"] = 2
            policy = self._choice(("static", "static", "shared", "dynamic"))
            if policy != "static":
                ov["qat_instance_policy"] = policy
                if policy == "dynamic":
                    ov["qat_rebalance_interval"] = self._uniform(1e-3, 5e-3)
            elif async_config and self._flag(0.10):
                # Interrupt notification: qat + static only (validated).
                ov["qat_notify_mode"] = "interrupt"
        if async_config:
            if self._flag(0.45):
                ov["offload_admission_limit"] = self._int(4, 24)
            sched = self._choice(("fifo", "fifo", "strict-priority",
                                  "weighted-fair"))
            if sched != "fifo":
                ov["offload_sched_policy"] = sched
                if sched == "weighted-fair" and self._flag(0.5):
                    ov["offload_sched_weights"] = {
                        "handshake-asym": self._int(4, 12),
                        "prf": self._int(1, 4),
                        "record-cipher": self._int(1, 2)}
            if self._flag(0.4):
                ov["qat_batch_size"] = self._choice((2, 4, 8))
            if self._flag(0.5):
                ov["qat_request_deadline"] = self._uniform(8e-3, 25e-3)
            if self._flag(0.5):
                ov["qat_watchdog_interval"] = self._uniform(1e-3, 5e-3)
        if async_config and backend == "qat":
            # Retrieval mode: flip the configuration's default polling
            # scheme, stretch the timer tick, toggle the heuristic
            # failover sweep — the worker loop must wire all of them.
            default_poll = "timer" if config_name == "QAT+A" else "heuristic"
            if self._flag(0.25):
                mode = self._choice(("heuristic", "timer"))
                if mode != default_poll:
                    ov["qat_poll_mode"] = mode
            effective_poll = ov.get("qat_poll_mode", default_poll)
            if (ov.get("qat_notify_mode") != "interrupt"
                    and effective_poll == "timer" and self._flag(0.6)):
                ov["qat_timer_poll_interval"] = self._choice(
                    (5e-6, 10e-6, 25e-6, 50e-6))
            if self._flag(0.3):
                ov["qat_failover_timer"] = self._choice((0.0, 1e-3, 2.5e-3))
        if self._flag(0.3):
            ov["worker_respawn"] = self._flag(0.7)
            ov["max_respawns"] = self._int(0, 3)
        if self._flag(0.4):
            ov["worker_drain_timeout"] = self._uniform(10e-3, 50e-3)
        if self._flag(0.2):
            ov["session_tickets"] = True
        return ov

    def _gen_clients(self, workers: int) -> List[ClientSpec]:
        fleets = []
        for _ in range(self._int(1, 3)):
            if self._flag(0.6):
                fleets.append(ClientSpec(
                    kind="s_time",
                    n_clients=self._int(4, 8 * workers + 8),
                    full_ratio=self._choice((1.0, 1.0, 0.5, 0.0)),
                    stagger=self._uniform(0.005, 0.03)))
            else:
                fleets.append(ClientSpec(
                    kind="ab",
                    n_clients=self._int(2, 4 * workers + 4),
                    keepalive=self._flag(0.7),
                    file_size=self._choice((1024, 4096, 16384, 65536)),
                    stagger=self._uniform(0.005, 0.02)))
        return fleets

    def _gen_faults(self, workers: int, duration: float,
                    uses_qat: bool) -> Optional[Dict[str, Any]]:
        if not uses_qat:
            return None
        faults: Dict[str, Any] = {}
        if self._flag(0.45):
            faults["response_loss"] = self._uniform(0.05, 0.35)
            if self._flag(0.6):
                faults["response_loss_window"] = self._window(duration)
        if self._flag(0.35):
            faults["latency_spike_rate"] = self._uniform(0.1, 0.5)
            faults["latency_spike_factor"] = self._uniform(5.0, 20.0)
            if self._flag(0.6):
                faults["latency_spike_window"] = self._window(duration)
        if self._flag(0.3):
            # dh8970 has three endpoints; None = whole-card outage.
            ep = self._choice((None, 0, 1, 2))
            faults["outages"] = [(ep,) + self._window(duration)]
        if self._flag(0.2):
            faults["resets"] = [(self._int(0, 2),
                                 self._uniform(0.2, 0.8) * duration)]
        if self._flag(0.35):
            faults["worker_crashes"] = [
                (self._int(0, workers - 1),
                 self._uniform(0.2, 0.7) * duration)]
        if self._flag(0.15):
            faults["ring_full_windows"] = [self._window(duration)]
        return faults or None

    def _window(self, duration: float) -> Tuple[float, float]:
        a = self._uniform(0.1, 0.6) * duration
        b = a + self._uniform(0.1, 0.4) * duration
        return (a, b)

    def _gen_actions(self, config_name: str, workers: int,
                     duration: float, uses_qat: bool) -> List[ActionSpec]:
        actions: List[ActionSpec] = []
        async_config = config_name in ("QAT+A", "QAT+AH", "QTLS")
        if self._flag(0.35):
            actions.append(ActionSpec(
                kind="reload", at=self._uniform(0.25, 0.7) * duration,
                mutation=self._gen_reload_mutation(async_config)))
        if uses_qat and self._flag(0.3):
            actions.append(ActionSpec(
                kind="crash", at=self._uniform(0.25, 0.8) * duration,
                slot=self._int(0, workers - 1)))
        actions.sort(key=lambda a: a.at)
        return actions

    def _gen_reload_mutation(self, async_config: bool) -> Dict[str, Any]:
        """A config delta limited to reloadable fields (immutable ones
        — workers, suites, backend, instance policy — would make the
        supervisor reject the reload, which is its own test, exercised
        separately in tests/integration)."""
        mut: Dict[str, Any] = {}
        if async_config:
            if self._flag(0.5):
                mut["offload_admission_limit"] = self._choice((0, 4, 8, 16))
            if self._flag(0.4):
                mut["offload_sched_policy"] = self._choice(
                    ("fifo", "strict-priority", "weighted-fair"))
            if self._flag(0.3):
                mut["qat_batch_size"] = self._choice((1, 4, 8))
        if self._flag(0.4):
            mut["worker_drain_timeout"] = self._uniform(10e-3, 40e-3)
        if self._flag(0.2):
            mut["session_tickets"] = self._flag(0.5)
        return mut


def load_corpus(path) -> Dict[int, ScenarioSpec]:
    """A seed corpus file: a JSON object mapping each seed to the spec
    it names, in file order."""
    raw = json.loads(Path(path).read_text())
    return {int(seed): ScenarioSpec.from_dict(d) for seed, d in raw.items()}


# -- execution ---------------------------------------------------------------

@dataclass
class ScenarioResult:
    """A finished run: the world plus its replay fingerprint."""

    spec: ScenarioSpec
    bed: Testbed
    fingerprint: str


def _merged_overrides(spec: ScenarioSpec, mutation: Dict[str, Any]) -> dict:
    merged = dict(spec.overrides)
    merged.update(mutation)
    return merged


def build_reload_config(spec: ScenarioSpec, mutation: Dict[str, Any]):
    """The candidate config a scenario 'reload' action hands to the
    supervisor: the spec's own base with reloadable fields mutated."""
    return make_server_config(
        spec.config_name, workers=spec.workers, suites=spec.suites,
        tls_version=spec.tls_version, **_merged_overrides(spec, mutation))


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Execute one spec to completion and fingerprint the world."""
    bed = Testbed(spec.config_name, workers=spec.workers,
                  suites=spec.suites, tls_version=spec.tls_version,
                  seed=spec.seed % (2 ** 31) or 7,
                  fault_plan=spec.faults, trace=spec.trace,
                  **spec.overrides)
    for c in spec.clients:
        if c.kind == "s_time":
            bed.add_s_time_fleet(n_clients=c.n_clients,
                                 full_ratio=c.full_ratio,
                                 stagger=c.stagger)
        elif c.kind == "ab":
            bed.add_ab_fleet(n_clients=c.n_clients, file_size=c.file_size,
                             keepalive=c.keepalive, stagger=c.stagger)
        else:
            raise ValueError(f"unknown client kind {c.kind!r}")
    for action in spec.actions:
        if action.kind == "reload":
            mutation = dict(action.mutation)

            def fire_reload(mutation=mutation):
                bed.server.reload(build_reload_config(spec, mutation))
            bed.sim.call_at(action.at, fire_reload)
        elif action.kind == "crash":
            def fire_crash(slot=action.slot):
                bed.server.supervisor.crash_worker(slot, cause="scenario")
            bed.sim.call_at(action.at, fire_crash)
        else:
            raise ValueError(f"unknown action kind {action.kind!r}")
    bed.sim.run(until=spec.duration)
    return ScenarioResult(spec, bed, fingerprint(bed))


def fingerprint(bed: Testbed) -> str:
    """A byte-exact digest of everything observable about the finished
    world. Two same-seed runs must produce identical strings — the
    determinism invariant compares these directly."""
    from ..offload.engine import AsyncOffloadEngine
    server = bed.server
    lines: List[str] = []
    m = bed.metrics
    lines.append(f"handshakes={m.handshakes!r}")
    lines.append(f"requests={m.requests!r}")
    lines.append(f"errors={m.errors}")
    lines.append(f"server_metrics={sorted(server.metrics_snapshot().items())!r}")
    for w in list(server.workers) + list(server.retired_workers):
        tag = f"w{w.worker_id}g{w.generation}"
        eng = w.engine
        if isinstance(eng, AsyncOffloadEngine):
            ledger = eng.inflight
            enqueued = sum(lane.enqueued for lane in eng.scheduler.lanes)
            lines.append(
                f"{tag} ledger={ledger.accepted}/{ledger.retired} "
                f"off={eng.ops_offloaded} sw={eng.ops_software} "
                f"fb={eng.ops_fallback} to={eng.op_timeouts} "
                f"stale={eng.responses_stale} drain={eng.ops_drained} "
                f"abort={eng.ops_aborted} disp={eng.responses_dispatched} "
                f"adm={enqueued}/{eng.admission_admitted}")
            lines.append(f"{tag} sched={sorted(eng.scheduler.snapshot().items())!r}")
        lines.append(f"{tag} stub={w.stub_status.counters()!r}")
    lines.append(f"supervisor={sorted(server.supervisor.snapshot().items())!r}")
    lines.append(f"events={server.supervisor.events!r}")
    pool = server.instance_pool
    if pool is not None:
        lines.append(f"pool={sorted(pool.snapshot().items())!r}")
        lines.append(f"migrations={pool.migration_log!r}")
        lines.append(f"tombstones={pool.tombstone_log!r}")
    if bed.fault_plan is not None:
        lines.append(f"faults={sorted(bed.fault_plan.counters().items())!r}")
        lines.append(f"fault_trace={bed.fault_plan.trace()!r}")
    if bed.device is not None:
        lines.append(f"fw={sorted(bed.device.fw_counter_totals().items())!r}")
    if bed.tracer is not None:
        lines.append(f"trace={sorted(bed.tracer.snapshot_counts().items())!r}")
    return "\n".join(lines)
