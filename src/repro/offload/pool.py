"""Shared QAT instance pool with pluggable allocation policies.

QTLS maps crypto instances to worker processes at startup (paper
section 2.3: "each process/thread is assigned dedicated instance(s)").
That mapping was hard-coded in the server master as a consecutive-chunk
partition; this module lifts instance *ownership* into an explicit
:class:`InstancePool` owning every allocated
:class:`~repro.qat.instance.CryptoInstance` (shared by all workers)
plus a pluggable :class:`AllocationPolicy` deciding which worker may
submit to which instance at any moment:

- ``static`` — today's consecutive-chunk partition. The default, and
  bit-for-bit identical to the pre-pool wiring: each worker leases a
  fixed chunk, pays no arbitration cost, and polls only its own
  instances.
- ``shared`` — every worker leases every instance. Any worker can
  submit into any ring, soaking up skewed load, but each submission
  acquires the instance under a lock shared with the other workers and
  pays :data:`ARBITRATION_CPU_COST` on top of the ring submit cost
  (the multi-worker-per-instance arbitration the paper avoids by
  dedicating instances).
- ``dynamic`` — starts from the static partition; a periodic rebalance
  tick *migrates* instance leases from the least- to the most-pressured
  worker (engine in-flight + admission-queue depth), with hysteresis
  (minimum lease dwell time and a pressure-gap threshold) so leases
  don't thrash.

Workers see the pool through :class:`PooledQatBackend`, an
:class:`~repro.offload.backend.OffloadBackend` whose *lane ids are
global* (lane = instance index in the pool) but which only *admits*
submissions on currently-leased lanes. Completions are routed by
request ownership: whichever worker polls a ring, a response belongs
to the worker that submitted the request and is delivered to that
worker's inbox — so a lease migration never loses in-flight work.

Worker *incarnations* are told apart by a per-slot **lease epoch**:
ownership is recorded as ``(worker, epoch)`` and each registered
backend is bound to the epoch it was created under. When a worker
crashes or an old generation drains out (see
:mod:`repro.server.lifecycle`), its epoch is :meth:`retired
<InstancePool.retire>`: completions still in flight on the accelerator
under the dead epoch are *tombstoned* — counted and dropped at poll
time — instead of being misdelivered to the replacement worker that
now serves the same slot. A slot that stays dead (respawn disabled or
budget exhausted) can have its leases :meth:`reclaimed
<InstancePool.reclaim_leases>` for the surviving workers.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from ..qat.instance import CryptoInstance, poll_cpu_cost, submit_cpu_cost
from ..qat.request import QatRequest
from ..tls.actions import CryptoCall
from .backend import OffloadBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.kernel import Simulator

__all__ = ["ARBITRATION_CPU_COST", "AllocationPolicy", "StaticPolicy",
           "SharedPolicy", "DynamicPolicy", "POLICIES", "PRESSURE_GAP",
           "make_policy", "InstancePool", "PooledQatBackend"]

#: CPU seconds to acquire an instance that other workers may also be
#: submitting to (userspace spinlock + cache-line bounce on the ring
#: tail pointer). Charged per submit call under the ``shared`` policy;
#: exclusive leases (``static``, ``dynamic``) submit lock-free.
ARBITRATION_CPU_COST = 0.3e-6

#: ``dynamic`` hysteresis: a lease migrates only when the most- and
#: least-pressured workers' pressures differ by at least this much.
PRESSURE_GAP = 4.0


class AllocationPolicy:
    """How pool instances are apportioned among workers over time."""

    name = "abstract"
    #: Extra CPU per submit call for lock/arbitration on instances the
    #: worker does not exclusively own.
    arbitration_cost = 0.0

    def initial_leases(self, n_workers: int, n_lanes: int
                       ) -> List[List[int]]:
        """Per-worker ordered list of leased lane indices at startup."""
        raise NotImplementedError

    def rebalance(self, pool: "InstancePool", now: float
                  ) -> List[Tuple[int, int, int]]:
        """Lease migrations ``(lane, from_worker, to_worker)`` to apply
        at this tick. Static policies return nothing."""
        return []


def _chunks(n_workers: int, n_lanes: int) -> List[List[int]]:
    """Consecutive chunks of ``n_lanes // n_workers`` lanes per worker
    — with round-robin device allocation each chunk spans distinct
    endpoints (see ``tests/qat/test_endpoint_spread.py``)."""
    if n_lanes % n_workers:
        raise ValueError(
            f"{n_lanes} instances do not partition over {n_workers} workers")
    per = n_lanes // n_workers
    return [list(range(w * per, (w + 1) * per)) for w in range(n_workers)]


class StaticPolicy(AllocationPolicy):
    """Fixed consecutive-chunk partition (the paper's dedicated
    instances; pre-pool behaviour, bit-for-bit)."""

    name = "static"

    def initial_leases(self, n_workers: int, n_lanes: int
                       ) -> List[List[int]]:
        return _chunks(n_workers, n_lanes)


class SharedPolicy(AllocationPolicy):
    """Every worker leases every instance; submission pays the
    arbitration cost."""

    name = "shared"
    arbitration_cost = ARBITRATION_CPU_COST

    def initial_leases(self, n_workers: int, n_lanes: int
                       ) -> List[List[int]]:
        # Each worker's lease list starts at its static chunk and wraps
        # around the whole pool, so lightly-loaded workers spread their
        # round-robin submissions instead of all piling onto lane 0.
        return [[(chunk[0] + i) % n_lanes for i in range(n_lanes)]
                for chunk in _chunks(n_workers, n_lanes)]


class DynamicPolicy(AllocationPolicy):
    """Static start; leases migrate toward pressured workers.

    One migration per tick at most: the least-pressured worker owning
    a spare lease (> 1) donates its least-busy lane to the
    most-pressured worker — and only when the pressure gap reaches
    :data:`PRESSURE_GAP` and the lane has been settled for
    ``min_dwell`` seconds (hysteresis against thrash).
    """

    name = "dynamic"

    def __init__(self, min_dwell: float) -> None:
        if min_dwell <= 0:
            raise ValueError("min_dwell must be positive")
        self.min_dwell = min_dwell

    def initial_leases(self, n_workers: int, n_lanes: int
                       ) -> List[List[int]]:
        return _chunks(n_workers, n_lanes)

    def rebalance(self, pool: "InstancePool", now: float
                  ) -> List[Tuple[int, int, int]]:
        pressures = [pool.pressure(w) for w in range(pool.n_workers)]
        # A worker with an open circuit breaker (or a dead slot) is
        # pressured *because* it is failing ops over, not because it
        # could use more lanes — migrating leases toward it would just
        # starve the healthy workers. Skip it as a recipient; it may
        # still donate.
        hi, hi_p = -1, 0.0
        for w in range(pool.n_workers):
            if not pool.healthy(w):
                continue
            if hi < 0 or pressures[w] > hi_p:
                hi, hi_p = w, pressures[w]
        if hi < 0:
            return []
        lo, lo_p = -1, None
        for w in range(pool.n_workers):
            if w == hi or len(pool.leases[w]) <= 1:
                continue  # donors must keep at least one lease
            if lo_p is None or pressures[w] < lo_p:
                lo, lo_p = w, pressures[w]
        if lo < 0 or hi_p - lo_p < PRESSURE_GAP:
            return []
        settled = [lane for lane in pool.leases[lo]
                   if now - pool.lease_since(lane) >= self.min_dwell]
        if not settled:
            return []
        lane = min(settled,
                   key=lambda ln: (pool.instances[ln].in_flight, ln))
        return [(lane, lo, hi)]


POLICIES: Dict[str, Callable[..., AllocationPolicy]] = {
    "static": StaticPolicy,
    "shared": SharedPolicy,
    "dynamic": DynamicPolicy,
}


def make_policy(name: str, rebalance_interval: float) -> AllocationPolicy:
    """The allocation policy called ``name``. The dynamic policy's
    ``min_dwell`` is the rebalance interval: a lane must settle for at
    least one tick before it can migrate again (hysteresis against
    thrash)."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown instance policy {name!r}; "
            f"expected one of {sorted(POLICIES)}") from None
    if factory is DynamicPolicy:
        return DynamicPolicy(min_dwell=rebalance_interval)
    return factory()


class InstancePool:
    """Owns every allocated QAT crypto instance and the worker ->
    instance lease map the policy maintains."""

    def __init__(self, sim: "Simulator",
                 instances: Sequence[CryptoInstance],
                 n_workers: int, policy: AllocationPolicy) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.sim = sim
        self.instances: List[CryptoInstance] = list(instances)
        if not self.instances:
            raise ValueError("need at least one instance")
        self.n_workers = n_workers
        self.policy = policy
        self.leases: List[List[int]] = policy.initial_leases(
            n_workers, len(self.instances))
        self._lease_sets = [set(ls) for ls in self.leases]
        self._lease_since: Dict[int, float] = {
            lane: sim.now for lane in range(len(self.instances))}
        #: Current lease epoch per slot; bumped on respawn/reload so
        #: a replacement worker never inherits its predecessor's ops.
        self.epochs: List[int] = [0] * n_workers
        self._retired: set = set()  # {(worker, epoch)} dead incarnations
        #: Request -> (worker, epoch) that submitted it, so completions
        #: polled by any worker route back to their owner — or to the
        #: tombstone counter if the owner's incarnation is dead.
        self._owner: Dict[Any, Tuple[int, int]] = {}
        self._inboxes: Dict[Tuple[int, int], List[QatRequest]] = {
            (w, 0): [] for w in range(n_workers)}
        self._pressure: List[Optional[Callable[[], float]]] = \
            [None] * n_workers
        self._health: List[Optional[Callable[[], bool]]] = \
            [None] * n_workers
        self._backends: List[Optional[PooledQatBackend]] = \
            [None] * n_workers
        self.migrations = 0
        self.routed_completions = 0
        self.migration_log: List[Tuple[float, int, int, int]] = []
        #: Completions for retired incarnations, dropped at poll time:
        #: ``(now, worker, epoch)`` per drop.
        self.tombstone_log: List[Tuple[float, int, int]] = []
        #: Lanes taken back from permanently-dead slots.
        self.reclaimed = 0
        #: Lease-map snapshots, one per mutation (initial map, each
        #: rebalance tick, each reclamation): ``(now, ((lanes of w0),
        #: (lanes of w1), ...))``. repro.testing invariants replay the
        #: audit to prove exclusive policies partition the instances at
        #: every tick, not just at exit.
        self.lease_audit: List[Tuple[float, Tuple[Tuple[int, ...], ...]]] = []
        self._audit_leases()

    # -- worker-facing ------------------------------------------------------

    def register(self, worker_id: int) -> "PooledQatBackend":
        """The backend handle worker ``worker_id`` submits through."""
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(f"worker {worker_id} out of range")
        backend = self._backends[worker_id]
        if backend is None:
            backend = PooledQatBackend(self, worker_id,
                                       epoch=self.epochs[worker_id])
            self._backends[worker_id] = backend
            self._sample_leases(worker_id)
        return backend

    def set_pressure_source(self, worker_id: int,
                            fn: Callable[[], float]) -> None:
        """Install the pressure metric (engine in-flight + admission
        queue depth) the dynamic policy rebalances on."""
        self._pressure[worker_id] = fn

    def pressure(self, worker_id: int) -> float:
        fn = self._pressure[worker_id]
        return fn() if fn is not None else 0.0

    def set_health_source(self, worker_id: int,
                          fn: Callable[[], bool]) -> None:
        """Install the health predicate (no open circuit breakers) the
        dynamic policy consults before migrating leases *toward* a
        worker."""
        self._health[worker_id] = fn

    def healthy(self, worker_id: int) -> bool:
        fn = self._health[worker_id]
        return fn() if fn is not None else True

    def admits(self, worker_id: int, lane: int, epoch: int) -> bool:
        if (worker_id, epoch) in self._retired:
            return False
        return lane in self._lease_sets[worker_id]

    def lease_since(self, lane: int) -> float:
        return self._lease_since[lane]

    # -- submission / completion routing ------------------------------------

    def submit(self, worker_id: int, calls: List[CryptoCall], lane: int,
               epoch: int) -> List[Any]:
        if not self.admits(worker_id, lane, epoch):
            return [None] * len(calls)
        inst = self.instances[lane]
        tokens = [inst.try_submit(call.op, call.compute) for call in calls]
        for token in tokens:
            if token is not None:
                self._owner[token] = (worker_id, epoch)
        return tokens

    def poll(self, worker_id: int, start: int,
             max_responses: Optional[int], epoch: int) -> List[QatRequest]:
        """Drain worker ``worker_id``'s inbox, then its leased rings
        (round-robin from ``start`` within the lease list); each
        polled request is its own completion. Responses
        owned by other live incarnations are routed to their inboxes
        (without consuming this worker's budget); responses owned by
        retired incarnations are tombstoned and dropped."""
        me = (worker_id, epoch)
        if me in self._retired:
            return []
        out: List[QatRequest] = []
        inbox = self._inboxes.setdefault(me, [])
        while inbox and (max_responses is None
                         or len(out) < max_responses):
            out.append(inbox.pop(0))
        lanes = self.leases[worker_id]
        n = len(lanes)
        for i in range(n):
            budget = (None if max_responses is None
                      else max_responses - len(out))
            if budget == 0:
                break
            inst = self.instances[lanes[(start + i) % n]]
            for request in inst.poll(budget):
                owner = self._owner.pop(request, me)
                if self.completion_retired(owner):
                    self._tombstone(owner)
                elif owner == me:
                    out.append(request)
                else:
                    self._inboxes.setdefault(owner, []).append(request)
                    self.routed_completions += 1
        return out

    # -- worker lifecycle (epochs / reclamation) -----------------------------

    def advance_epoch(self, worker_id: int) -> int:
        """Open a fresh lease epoch for the slot (crash respawn or
        reload): the next :meth:`register` hands out a backend bound to
        the new epoch. The previous epoch stays live — a draining
        old-generation worker keeps polling under it — until
        :meth:`retire`\\ d."""
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(f"worker {worker_id} out of range")
        self.epochs[worker_id] += 1
        epoch = self.epochs[worker_id]
        self._inboxes.setdefault((worker_id, epoch), [])
        self._backends[worker_id] = None
        return epoch

    def retire(self, worker_id: int, epoch: int) -> int:
        """Mark incarnation ``(worker_id, epoch)`` dead. Completions
        already sitting in its inbox are tombstoned immediately; its
        ops still in flight on the accelerator are tombstoned when
        their responses surface at some later poll. Returns the number
        of ops the dead incarnation leaves in flight (they drain to
        tombstones, never to the in-flight table of a live worker)."""
        key = (worker_id, epoch)
        if key in self._retired:
            return 0
        self._retired.add(key)
        for _ in self._inboxes.pop(key, ()):
            self._tombstone(key)
        if self._backends[worker_id] is not None \
                and self._backends[worker_id].epoch == epoch:
            self._backends[worker_id] = None
        orphans = sum(1 for owner in self._owner.values() if owner == key)
        obs = self.sim.obs
        if obs is not None:
            obs.event(f"epoch-retire w{worker_id}", self.sim.now,
                      args={"worker": worker_id, "epoch": epoch,
                            "orphans": orphans})
        return orphans

    def is_retired(self, worker_id: int, epoch: int) -> bool:
        return (worker_id, epoch) in self._retired

    def completion_retired(self, owner: Tuple[int, int]) -> bool:
        """Is a surfacing completion owned by a dead incarnation?  The
        poll loop's lease-epoch check, kept as a seam so the fuzz
        harness (``tools/fuzz_scenarios.py --inject-bug lease-epoch``)
        can disable it and prove the invariant suite catches the leak."""
        return owner in self._retired

    def retired_inbox_entries(self) -> int:
        """Completions sitting in an inbox owned by a retired
        incarnation. Always zero when the poll loop's lease-epoch check
        holds: :meth:`retire` pops the inbox and later completions
        tombstone at the ring; a nonzero value means a dead epoch's
        response was queued for delivery — the leak the fuzz harness's
        ``lease-epoch`` bug injection recreates."""
        return sum(len(box) for key, box in self._inboxes.items()
                   if key in self._retired)

    def dead_epoch_inflight(self) -> int:
        """Ownership entries still held by retired incarnations — the
        experiment's zero-leak assertion drives this to zero once the
        accelerator rings drain."""
        return sum(1 for owner in self._owner.values()
                   if owner in self._retired)

    def _tombstone(self, owner: Tuple[int, int]) -> None:
        self.tombstone_log.append((self.sim.now, owner[0], owner[1]))

    def reclaim_leases(self, worker_id: int) -> List[Tuple[int, int]]:
        """A permanently-dead slot (crash with respawn disabled or
        budget exhausted) donates every lease round-robin to the other
        slots. Returns the ``(lane, new_worker)`` moves."""
        targets = [w for w in range(self.n_workers) if w != worker_id]
        moves: List[Tuple[int, int]] = []
        if not targets:
            return moves
        now = self.sim.now
        for i, lane in enumerate(list(self.leases[worker_id])):
            dst = targets[i % len(targets)]
            self._move_lease(lane, worker_id, dst, now, "lease-reclaim")
            self.reclaimed += 1
            moves.append((lane, dst))
            self._sample_leases(dst)
        self._sample_leases(worker_id)
        if moves:
            self._audit_leases()
        return moves

    # -- rebalancing --------------------------------------------------------

    def rebalance(self, now: float) -> List[Tuple[int, int, int]]:
        """Apply one policy rebalance tick; returns the migrations."""
        moves = self.policy.rebalance(self, now)
        for lane, src, dst in moves:
            self._move_lease(lane, src, dst, now, "lease-migrate")
            self.migrations += 1
            self._sample_leases(src)
            self._sample_leases(dst)
        if moves:
            self._audit_leases()
        return moves

    def _move_lease(self, lane: int, src: int, dst: int, now: float,
                    event: str) -> None:
        """Hand ``lane``'s lease from worker ``src`` to ``dst``: logged
        in :attr:`migration_log` and traced as ``event``."""
        self.leases[src].remove(lane)
        self._lease_sets[src].discard(lane)
        self.leases[dst].append(lane)
        self._lease_sets[dst].add(lane)
        self._lease_since[lane] = now
        self.migration_log.append((now, lane, src, dst))
        obs = self.sim.obs
        if obs is not None:
            obs.event(f"{event} lane{lane}", now,
                      args={"lane": lane, "from": src, "to": dst})

    def _audit_leases(self) -> None:
        self.lease_audit.append(
            (self.sim.now, tuple(tuple(ls) for ls in self.leases)))

    def _sample_leases(self, worker_id: int) -> None:
        obs = self.sim.obs
        if obs is not None:
            obs.util_sample(f"pool.w{worker_id}.leases", self.sim.now,
                            len(self.leases[worker_id]),
                            capacity=len(self.instances))

    # -- introspection ------------------------------------------------------

    def lease_counts(self) -> List[int]:
        return [len(ls) for ls in self.leases]

    def snapshot(self) -> dict:
        return {
            "policy": self.policy.name,
            "instances": len(self.instances),
            "workers": self.n_workers,
            "leases": self.lease_counts(),
            "epochs": list(self.epochs),
            "migrations": self.migrations,
            "routed_completions": self.routed_completions,
            "tombstone_drops": len(self.tombstone_log),
        }


class PooledQatBackend(OffloadBackend):
    """One worker's view of the shared pool.

    Lane ids are *global* instance indices, so engine breaker state stays
    attached to the physical instance across lease migrations; lanes
    outside the current lease set are simply not admitted
    (:meth:`admits` / zero :meth:`capacity_hint`).
    """

    name = "qat"

    def __init__(self, pool: InstancePool, worker_id: int,
                 epoch: int = 0) -> None:
        self.pool = pool
        self.worker_id = worker_id
        #: Lease epoch this handle was issued under; a retired epoch's
        #: backend admits nothing and polls nothing.
        self.epoch = epoch
        self._poll_rr = 0

    @property
    def instances(self) -> List[CryptoInstance]:
        """The currently-leased instances (interrupt-mode arming and
        tests iterate these)."""
        return [self.pool.instances[lane]
                for lane in self.pool.leases[self.worker_id]]

    @property
    def lanes(self) -> int:
        return len(self.pool.instances)

    def admits(self, lane: int) -> bool:
        return self.pool.admits(self.worker_id, lane, self.epoch)

    def submit_batch(self, calls: List[CryptoCall], lane: int
                     ) -> List[Any]:
        return self.pool.submit(self.worker_id, calls, lane, self.epoch)

    def poll_completions(self, max_responses: Optional[int] = None
                         ) -> List[QatRequest]:
        start = self._poll_rr
        self._poll_rr += 1
        return self.pool.poll(self.worker_id, start, max_responses,
                              self.epoch)

    def submit_cpu_cost(self, n_ops: int) -> float:
        return submit_cpu_cost(n_ops) + self.pool.policy.arbitration_cost

    def poll_cpu_cost(self, n_responses: int) -> float:
        return poll_cpu_cost(n_responses)

    def capacity_hint(self, lane: int, category: Any) -> int:
        if not self.admits(lane):
            return 0
        ring = self.pool.instances[lane].rings[category]
        return max(0, ring.capacity - ring.in_flight)

    def lane_stats(self, lane: int) -> CryptoInstance:
        return self.pool.instances[lane]
