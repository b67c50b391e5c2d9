"""Class-aware admission scheduling for the offload engine.

QTLS distinguishes asymmetric, cipher and PRF offload traffic (the
Rasym/Rcipher/Rprf counters of the heuristic polling scheme), yet the
original engine funnelled every queued op through one FIFO admission
queue. Under mixed load that lets a few bulk transfers — eight record
ciphers per 128 KB file (Figure 10) — park dozens of cipher ops ahead
of new handshakes and blow handshake CPS p99. This module splits the
admission queue into per-class *lanes* (one per
:data:`~repro.crypto.ops.SCHED_CLASSES` entry) and arbitrates between
them with a pluggable policy:

- ``fifo`` (default) — pop the globally-oldest queued op. Every entry
  carries a monotonically increasing arrival sequence number, so the
  min-seq pop across lanes reproduces the single-FIFO order
  *bit-for-bit* (including :meth:`push_front` restores after ring
  backpressure, which keep their original sequence number).
- ``strict-priority`` — serve the highest-priority non-empty lane
  (handshake-asym > prf > record-cipher). Starvation-proof: each time
  a non-empty lane is passed over its deficit counter grows; a lane
  whose deficit reaches :data:`STARVATION_THRESHOLD` is served next
  regardless of priority (counted in ``starved``).
- ``weighted-fair`` — deficit round robin over the lanes. Each lane's
  quantum is its configured weight (ops are the service unit — the
  device model charges per request, not per byte), so the accelerator
  is shared in weight proportion under saturation while any lane alone
  gets full capacity.

Within a lane, entries keep arrival order: engine deadlines are
``enqueue-time + request_deadline`` with one engine-wide constant, so
arrival order already is deadline order. The scheduler only orders
ops; whether an op queues at all is the engine's admission cap.

Everything here is pure bookkeeping — no RNG, no wall-clock — so
scheduling decisions replay bit-for-bit from the simulation seed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional

from ..crypto.ops import OpCategory, SCHED_CLASSES

__all__ = ["ClassScheduler", "SchedLane", "SCHED_POLICIES",
           "DEFAULT_WEIGHTS", "PRIORITY_ORDER", "STARVATION_THRESHOLD"]

SCHED_POLICIES = ("fifo", "strict-priority", "weighted-fair")

#: Lane priority, highest first: handshakes gate new-connection latency
#: (and each asym op frees a whole connection's worth of state), key
#: derivation gates handshake completion, record ciphers are bulk.
PRIORITY_ORDER = (OpCategory.ASYM, OpCategory.PRF, OpCategory.CIPHER)

#: Default weighted-fair quanta (ops per DRR round).
DEFAULT_WEIGHTS = {"handshake-asym": 8, "prf": 2, "record-cipher": 1}

#: strict-priority deficit fallback: a lane passed over this many times
#: in a row is served next regardless of priority.
STARVATION_THRESHOLD = 16


class SchedLane:
    """One per-class admission lane plus its service counters."""

    __slots__ = ("name", "category", "priority", "weight", "q",
                 "enqueued", "served", "starved", "expired", "peak",
                 "deficit")

    def __init__(self, name: str, category: OpCategory, priority: int,
                 weight: int) -> None:
        self.name = name
        self.category = category
        self.priority = priority          # 0 = highest
        self.weight = weight              # DRR quantum (ops)
        self.q: Deque[Any] = deque()      # entries in arrival order
        self.enqueued = 0                 # total pushes
        self.served = 0                   # total policy pops
        self.starved = 0                  # deficit-fallback services
        self.expired = 0                  # deadline/no-lane expiries
        self.peak = 0                     # max depth observed
        self.deficit = 0                  # policy bookkeeping

    @property
    def depth(self) -> int:
        return len(self.q)

    def snapshot(self) -> dict:
        return {"depth": self.depth, "peak": self.peak,
                "enqueued": self.enqueued, "served": self.served,
                "starved": self.starved, "expired": self.expired,
                "weight": self.weight}


class ClassScheduler:
    """Priority lanes + arbitration policy.

    Queue entries are the engine's ``_QueuedOp`` records (anything with
    a writable ``seq`` attribute works): :meth:`push` stamps the global
    arrival sequence number the fifo policy and the expiry iteration
    order are built on.
    """

    def __init__(self, policy: str = "fifo",
                 weights: Optional[Dict[str, int]] = None) -> None:
        if policy not in SCHED_POLICIES:
            raise ValueError(
                f"unknown scheduling policy {policy!r}; expected one of "
                f"{', '.join(SCHED_POLICIES)}")
        merged = dict(DEFAULT_WEIGHTS)
        for name, w in (weights or {}).items():
            if name not in merged:
                raise ValueError(
                    f"unknown scheduling class {name!r}; expected one of "
                    f"{', '.join(sorted(merged))}")
            if not isinstance(w, int) or w < 1:
                raise ValueError(
                    f"weight for {name!r} must be an integer >= 1")
            merged[name] = w
        self.policy = policy
        self._lanes: List[SchedLane] = [
            SchedLane(SCHED_CLASSES[cat], cat, prio,
                      merged[SCHED_CLASSES[cat]])
            for prio, cat in enumerate(PRIORITY_ORDER)]
        self._by_category: Dict[OpCategory, SchedLane] = {
            lane.category: lane for lane in self._lanes}
        self._by_name: Dict[str, SchedLane] = {
            lane.name: lane for lane in self._lanes}
        self._seq = 0
        self._drr_idx = 0
        #: Total entries waiting across all lanes, kept live.
        self.queued = 0

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return self.queued

    def __contains__(self, item: Any) -> bool:
        return any(item in lane.q for lane in self._lanes)

    def lane(self, name: str) -> SchedLane:
        return self._by_name[name]

    @property
    def lanes(self) -> List[SchedLane]:
        return list(self._lanes)

    def snapshot(self) -> dict:
        """stub_status / experiment payload."""
        return {"policy": self.policy,
                "lanes": {lane.name: lane.snapshot()
                          for lane in self._lanes}}

    def items(self) -> List[Any]:
        """Every queued entry, in global arrival (seq) order — the
        expiry paths iterate this so fifo-policy expiry scans match the
        historical single-queue iteration exactly."""
        merged: List[Any] = []
        for lane in self._lanes:
            merged.extend(lane.q)
        merged.sort(key=lambda item: item.seq)
        return merged

    # -- queue mutation ------------------------------------------------------

    def push(self, item: Any, category: OpCategory) -> int:
        """Append ``item`` to its class lane and stamp its global
        arrival sequence number."""
        lane = self._by_category[category]
        self._seq += 1
        item.seq = self._seq
        lane.q.append(item)
        self.queued += 1
        lane.enqueued += 1
        if lane.depth > lane.peak:
            lane.peak = lane.depth
        return item.seq

    def push_front(self, item: Any, category: OpCategory) -> None:
        """Restore a popped entry at the head of its lane (ring
        backpressure requeue). The entry keeps its original sequence
        number, so the fifo policy re-pops it first."""
        self._by_category[category].q.appendleft(item)
        self.queued += 1

    def remove(self, item: Any) -> bool:
        """Drop a specific queued entry (expiry / drain / rescue)."""
        for lane in self._lanes:
            try:
                lane.q.remove(item)
                self.queued -= 1
                return True
            except ValueError:
                continue
        return False

    def note_expired(self, category: OpCategory) -> None:
        self._by_category[category].expired += 1

    # -- arbitration ---------------------------------------------------------

    def pop(self) -> Optional[Any]:
        """Remove and return the lane head the policy picks next. None
        only when every lane is empty."""
        if self.policy == "strict-priority":
            return self._pop_strict()
        if self.policy == "weighted-fair":
            return self._pop_drr()
        return self._pop_fifo()

    def _take(self, lane: SchedLane) -> Any:
        lane.served += 1
        self.queued -= 1
        return lane.q.popleft()

    def _pop_fifo(self) -> Optional[Any]:
        busy = [lane for lane in self._lanes if lane.q]
        if not busy:
            return None
        return self._take(min(busy, key=lambda lane: lane.q[0].seq))

    def _pop_strict(self) -> Optional[Any]:
        busy = [lane for lane in self._lanes if lane.q]  # priority order
        if not busy:
            return None
        chosen = busy[0]                 # highest-priority non-empty
        for lane in busy:                # starvation-proof fallback
            if lane.deficit >= STARVATION_THRESHOLD:
                chosen = lane
                lane.starved += 1
                break
        chosen.deficit = 0
        for other in busy:
            if other is not chosen:
                other.deficit += 1       # passed over while non-empty
        return self._take(chosen)

    def _pop_drr(self) -> Optional[Any]:
        n = len(self._lanes)
        for _ in range(n):
            lane = self._lanes[self._drr_idx]
            if not lane.q:
                # Classic DRR: an empty lane forfeits its deficit.
                lane.deficit = 0
                self._drr_idx = (self._drr_idx + 1) % n
                continue
            if lane.deficit <= 0:
                lane.deficit += lane.weight
            item = self._take(lane)
            lane.deficit -= 1
            if lane.deficit <= 0 or not lane.q:
                if not lane.q:
                    lane.deficit = 0
                self._drr_idx = (self._drr_idx + 1) % n
            return item
        return None

    # -- batched-flush ordering ---------------------------------------------

    def flush_order(self, items: Iterable[Any]) -> List[Any]:
        """Order a coalescing-queue flush chunk by the arbitration
        policy. ``fifo`` preserves the queue order untouched (the
        bit-for-bit guarantee); ``strict-priority`` sorts (stably) by
        lane priority; ``weighted-fair`` interleaves weight-many ops
        per lane per round so one class cannot fill the whole batch."""
        if self.policy == "fifo":
            return list(items)
        per_lane: Dict[str, List[Any]] = {lane.name: []
                                          for lane in self._lanes}
        for item in items:
            per_lane[item.call.op.category.sched_class].append(item)
        if self.policy == "strict-priority":
            ordered: List[Any] = []
            for lane in self._lanes:
                ordered.extend(per_lane[lane.name])
            return ordered
        ordered = []
        while any(per_lane.values()):
            for lane in self._lanes:
                bucket = per_lane[lane.name]
                take = min(lane.weight, len(bucket))
                ordered.extend(bucket[:take])
                del bucket[:take]
        return ordered
