"""Worker lifecycle supervision (the master's process-management role).

Nginx's master process does three things QTLS inherits and this module
reproduces:

* **crash respawn** — when a worker process dies (here: a deterministic
  ``worker_crash`` fault or an unexpected event-loop exception), the
  master reaps it, aborts the offload ops the dead incarnation left in
  flight, retires its pool lease epoch (late QAT completions for a dead
  epoch hit tombstones instead of being misdelivered to the successor)
  and forks a replacement onto the same core, up to ``max_respawns``
  per slot;
* **graceful reload** — SIGHUP semantics: the candidate configuration
  is validated first (rejected configs leave the old one serving), then
  a new worker generation inherits the listen sockets immediately while
  the old generation stops accepting and drains its open connections
  under ``worker_drain_timeout`` (force-aborted past the deadline), so
  connection throughput never drops to zero across the swap;
* **state bookkeeping** — every incarnation walks
  serving → draining → exited; the worker's stub_status page
  reads its :class:`WorkerRecord`, transitions publish to the obs
  layer, and the whole record is replayable bit-for-bit under a fixed
  seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .config import ServerConfig

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator
    from .master import TlsServer
    from .worker import Worker

__all__ = ["WorkerState", "WorkerRecord", "WorkerSupervisor",
           "DRAIN_POLL_INTERVAL"]

#: How often the drain monitor re-checks an old-generation worker.
#: Fine enough that the measured drain time is accurate, coarse enough
#: not to dominate the event count.
DRAIN_POLL_INTERVAL = 2.5e-4

#: Server-level directives a graceful reload cannot change (nginx would
#: need a binary upgrade / full restart for the equivalents).
_IMMUTABLE_SERVER_FIELDS = ("worker_processes", "listen", "suites",
                            "curves", "rsa_bits", "tls_version")
#: ssl_engine directives pinned for the same reason (they change the
#: provisioned hardware shape, not per-worker behaviour).
_IMMUTABLE_ENGINE_FIELDS = ("use_engine", "offload_backend",
                            "qat_instances_per_worker",
                            "qat_instance_policy")


class WorkerState(enum.Enum):
    """One worker incarnation's position in the lifecycle."""

    SERVING = "serving"
    DRAINING = "draining"
    EXITED = "exited"


@dataclass
class WorkerRecord:
    """Supervision bookkeeping for one worker incarnation."""

    worker: "Worker"
    slot: int
    generation: int
    epoch: int
    #: How many times the slot had been respawned when this
    #: incarnation was spawned.
    respawns: int = 0
    state: WorkerState = WorkerState.SERVING


class WorkerSupervisor:
    """The master's process supervisor: watches every worker
    incarnation's completion event, reaps crashes, runs graceful
    reloads and keeps the lifecycle ledger."""

    def __init__(self, sim: "Simulator", server: "TlsServer") -> None:
        self.sim = sim
        self.server = server
        #: Slot -> the *current* incarnation's record. Old-generation
        #: records move to :attr:`retired` / :attr:`draining_records`.
        self.records: Dict[int, WorkerRecord] = {}
        self.retired: List[WorkerRecord] = []
        self.draining_records: List[WorkerRecord] = []
        #: Config generation; bumped by each successful reload.
        self.generation = 0
        self.crashes = 0
        self.respawns = 0
        self.reloads = 0
        self.reload_rejections = 0
        self.forced_aborts = 0
        #: Slots abandoned after exhausting their respawn budget.
        self.dead_slots: set = set()
        self._respawn_counts: Dict[int, int] = {}
        #: (time, kind, detail) — the deterministic lifecycle journal.
        self.events: List[Tuple[float, str, str]] = []

    # -- journal -----------------------------------------------------------

    def _log(self, kind: str, detail: str) -> None:
        self.events.append((self.sim.now, kind, detail))
        obs = self.sim.obs
        if obs is not None:
            obs.event(f"lifecycle-{kind}", self.sim.now,
                      args={"detail": detail})

    def _sample_serving(self) -> None:
        obs = self.sim.obs
        if obs is not None:
            serving = sum(1 for r in self.records.values()
                          if r.state is WorkerState.SERVING)
            obs.util_sample("lifecycle.serving", self.sim.now, serving,
                            capacity=self.server.config.worker_processes)

    # -- watching ---------------------------------------------------------

    def watch(self, slot: int, worker: "Worker") -> WorkerRecord:
        """Adopt a freshly started incarnation: record it and hook its
        event-loop completion so the supervisor reaps every exit."""
        backend = getattr(worker.engine, "backend", None)
        record = WorkerRecord(
            worker=worker, slot=slot, generation=worker.generation,
            epoch=getattr(backend, "epoch", 0),
            respawns=self._respawn_counts.get(slot, 0))
        self.records[slot] = record
        worker.record = record
        self._sample_serving()
        proc = worker.proc
        if proc is not None and proc.callbacks is not None:
            proc.callbacks.append(
                lambda ev, record=record: self._on_worker_exit(record, ev))
        return record

    def _on_worker_exit(self, record: WorkerRecord, ev) -> None:
        """The incarnation's event loop returned (or died)."""
        if ev.exception is not None:
            ev.defuse()  # the supervisor is the reaper; don't crash the sim
        if record.state is WorkerState.EXITED:
            return  # already reaped (crash_worker / drain monitor)
        if record.state is WorkerState.DRAINING:
            # Old generation finished its last connection on its own.
            self._log("worker-drained",
                      f"w{record.slot} gen{record.generation}")
            self._terminate(record)
            return
        if ev.exception is None and not record.worker.running:
            # Clean server.stop(): no teardown needed beyond the ledger.
            record.state = WorkerState.EXITED
            self.retired.append(record)
            return
        cause = (repr(ev.exception) if ev.exception is not None
                 else "event loop exited unexpectedly")
        self._crash(record, cause)

    # -- crash / respawn ---------------------------------------------------

    def crash_worker(self, slot: int, cause: str = "injected") -> bool:
        """Kill the slot's current incarnation abruptly. Returns False
        if there is nothing alive to kill (already-dead slot)."""
        record = self.records.get(slot)
        if record is None or record.state is WorkerState.EXITED:
            return False
        self._crash(record, cause)
        return True

    def _crash(self, record: WorkerRecord, cause: str) -> None:
        slot = record.slot
        self.crashes += 1
        self._log("worker-crash",
                  f"w{slot} gen{record.generation} ({cause})")
        self._terminate(record)
        cfg = self.server.config
        if (cfg.worker_respawn
                and self._respawn_counts.get(slot, 0) < cfg.max_respawns):
            self._respawn(slot, record)
        else:
            self._abandon(slot, record)

    def _terminate(self, record: WorkerRecord) -> None:
        """Common teardown: kill the incarnation, retire its lease
        epoch (tombstoning late completions) and close the ledger
        entry. ``Worker.kill()`` stops the worker's background work —
        the timer thread cancels its pending tick, the interrupt
        retriever unhooks its ring callbacks, the sweeps tick-exit — so
        nothing of the dead incarnation keeps running against a retired
        epoch.
        Idempotent — the exit callback and the drain monitor can both
        land here."""
        if record.state is WorkerState.EXITED:
            return
        record.state = WorkerState.EXITED
        record.worker.kill()
        pool = self.server.instance_pool
        if pool is not None:
            pool.retire(record.slot, record.epoch)
        self._sample_serving()
        self.retired.append(record)

    def _respawn(self, slot: int, dead: WorkerRecord) -> None:
        self.respawns += 1
        self._respawn_counts[slot] = self._respawn_counts.get(slot, 0) + 1
        self._swap_in(slot)
        self._log("worker-respawn",
                  f"w{slot} gen{self.generation} "
                  f"respawn #{self._respawn_counts[slot]} "
                  f"epoch {self.records[slot].epoch}")

    def _swap_in(self, slot: int) -> None:
        """Start a current-generation worker in ``slot`` in place of
        the incarnation there (crashed or draining)."""
        server = self.server
        if server.instance_pool is not None:
            # The replacement registers under a fresh epoch, so any
            # completion still in the rings for the old incarnation
            # routes to a tombstone, never to the successor.
            server.instance_pool.advance_epoch(slot)
        replacement = server._make_worker(slot,
                                          generation=self.generation)
        server.retired_workers.append(server.workers[slot])
        server.workers[slot] = replacement
        server._start_worker(slot, replacement)

    def _abandon(self, slot: int, dead: WorkerRecord) -> None:
        """Respawn budget exhausted (or respawn disabled): the slot
        stays dark, but its QAT lanes go back to work for the
        survivors."""
        self.dead_slots.add(slot)
        pool = self.server.instance_pool
        if pool is not None:
            pool.set_pressure_source(slot, lambda: 0.0)
            pool.set_health_source(slot, lambda: False)
            pool.reclaim_leases(slot)
        if self.server.config.worker_respawn:
            why = (f"respawn budget {self.server.config.max_respawns} "
                   "exhausted")
        else:
            why = "respawn off"
        self._log("worker-abandoned",
                  f"w{slot} gen{dead.generation} ({why})")

    # -- graceful reload ---------------------------------------------------

    def reload(self, new_config: Optional[ServerConfig] = None) -> bool:
        """SIGHUP: validate, swap, spawn the next generation, drain the
        old one. Returns False — old config untouched and still serving
        every request — when the candidate fails validation."""
        server = self.server
        old_config = server.config
        if new_config is None:
            new_config = old_config  # plain SIGHUP re-read (worker cycle)
        try:
            new_config.validate()
            if new_config is not old_config:
                self._check_reloadable(old_config, new_config)
        except ValueError as exc:
            self.reload_rejections += 1
            self._log("reload-rejected", str(exc))
            return False
        self.reloads += 1
        self.generation += 1
        self._log("reload", f"generation {self.generation}")
        server.config = new_config
        for slot in sorted(self.records):
            record = self.records[slot]
            if record.state is not WorkerState.SERVING:
                continue  # dead slots stay dark across reloads
            # Old incarnation: stop accepting *first* so the listener
            # has exactly one watcher at a time...
            record.worker.begin_drain()
            record.state = WorkerState.DRAINING
            self.draining_records.append(record)
            # ...then the new generation takes the listen socket
            # immediately: the accept backlog is never unwatched, so
            # CPS cannot drop to zero during the handover.
            self._swap_in(slot)
            self.sim.process(
                self._drain_monitor(record,
                                    new_config.worker_drain_timeout),
                name=f"drain-w{slot}.g{record.generation}")
        self._sample_serving()
        return True

    def _check_reloadable(self, old: ServerConfig,
                          new: ServerConfig) -> None:
        for name in _IMMUTABLE_SERVER_FIELDS:
            if getattr(old, name) != getattr(new, name):
                raise ValueError(
                    f"reload cannot change {name!r} (requires a restart)")
        for name in _IMMUTABLE_ENGINE_FIELDS:
            if getattr(old.ssl_engine, name) != getattr(new.ssl_engine,
                                                        name):
                raise ValueError(
                    f"reload cannot change ssl_engine {name!r} "
                    "(requires a restart)")

    def _drain_monitor(self, record: WorkerRecord, deadline_s: float):
        """Watch one draining incarnation; force-abort past the
        deadline (nginx worker_shutdown_timeout semantics)."""
        deadline = self.sim.now + deadline_s
        while self.sim.now < deadline:
            yield self.sim.timeout(DRAIN_POLL_INTERVAL)
            if record.state is WorkerState.EXITED:
                return  # exited on its own, already reaped
            if record.worker.drained:
                # Finished, but parked inside a blocked epoll_wait with
                # nothing left to wake it: reap it here.
                self._log("worker-drained",
                          f"w{record.slot} gen{record.generation}")
                self._terminate(record)
                return
        if record.state is WorkerState.EXITED:
            return
        self.forced_aborts += 1
        self._log("drain-forced",
                  f"w{record.slot} gen{record.generation} "
                  f"({len(record.worker.conns)} conns aborted after "
                  f"{deadline_s * 1e3:.1f} ms)")
        self._terminate(record)

    # -- fault-plan integration -------------------------------------------

    def schedule_crashes(self, plan) -> None:
        """Arm the fault plan's deterministic ``worker_crashes``."""
        for slot, when in plan.worker_crashes:
            def fire(slot=slot):
                if self.crash_worker(slot, cause="fault plan"):
                    plan.on_worker_crash(slot, self.sim.now)
            self.sim.call_at(when, fire)

    # -- reporting ---------------------------------------------------------

    @property
    def draining_count(self) -> int:
        return sum(1 for r in self.draining_records
                   if r.state is WorkerState.DRAINING)

    def snapshot(self) -> dict:
        return {
            "generation": self.generation,
            "crashes": self.crashes,
            "respawns": self.respawns,
            "reloads": self.reloads,
            "reload_rejections": self.reload_rejections,
            "forced_aborts": self.forced_aborts,
            "draining": self.draining_count,
            "dead_slots": sorted(self.dead_slots),
        }
