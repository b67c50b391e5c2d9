"""Cross-layer invariants checked after every fuzzed scenario.

Each checker inspects the finished world (a
:class:`~repro.bench.runner.Testbed`) and returns a list of violation
strings — empty means the invariant holds. The registry is the
catalogue DESIGN.md section 10 documents; ``tools/fuzz_scenarios.py``
runs every applicable checker after every scenario, and the corpus
replay tests run them as ordinary assertions.

Checkers read only introspection surfaces (ledgers, audit logs,
snapshots) added for this purpose; they never mutate the world, so a
post-check fingerprint equals a pre-check one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

__all__ = ["Violation", "INVARIANTS", "register", "check_all",
           "iter_engines", "all_workers"]

#: Sum-of-exact-floats slack (simulated timestamps are exact doubles,
#: but span-duration sums accumulate rounding).
EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach: which checker, and what it saw."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


#: (name, checker) registry, in check order.
INVARIANTS: List[Tuple[str, Callable]] = []


def register(name: str):
    def deco(fn):
        INVARIANTS.append((name, fn))
        return fn
    return deco


def check_all(bed) -> List[Violation]:
    """Run every registered checker; collect all violations."""
    out: List[Violation] = []
    for name, fn in INVARIANTS:
        for detail in fn(bed):
            out.append(Violation(name, detail))
    return out


# -- world iteration helpers -------------------------------------------------

def all_workers(server) -> list:
    """Every incarnation that ever served: live, retired, and any still
    draining under the supervisor (deduplicated)."""
    seen, out = set(), []
    candidates = list(server.workers) + list(server.retired_workers)
    for record in getattr(server.supervisor, "draining_records", ()):
        worker = getattr(record, "worker", None)
        if worker is not None:
            candidates.append(worker)
    for w in candidates:
        if id(w) not in seen:
            seen.add(id(w))
            out.append(w)
    return out


def iter_engines(server):
    """(worker, AsyncOffloadEngine) pairs across every incarnation."""
    from ..offload.engine import AsyncOffloadEngine
    for w in all_workers(server):
        if isinstance(w.engine, AsyncOffloadEngine):
            yield w, w.engine


def _tag(w) -> str:
    return f"w{w.worker_id}g{w.generation}"


# -- 1. op conservation ------------------------------------------------------

@register("op-conservation")
def check_op_conservation(bed) -> List[str]:
    """Every accepted op is retired exactly once: the in-flight count
    (the lifetime ledger's accepted minus retired) equals what the
    engine tables actually hold. A double-retire cannot drive it
    negative: InflightCounters.decrement raises on every per-category
    underflow before it counts the retire. A lost op strands it above
    the table population."""
    out = []
    for w, eng in iter_engines(bed.server):
        diff = eng.inflight.total
        tables = len(eng._pending) + len(eng._batch)
        # Sync (blocking) offload charges the in-flight counters while
        # the fiber waits inline, without a _pending entry: the table
        # identity — and the everything-retired-at-death guarantee the
        # async teardown path provides via abort_all() — are
        # async-mode properties.
        if w.config.ssl_engine.qat_offload_mode != "async":
            continue
        if diff != tables:
            out.append(f"{_tag(w)}: ledger diff {diff} != "
                       f"pending+batch {tables}")
        if not w.running and not w.conns and diff != 0:
            out.append(f"{_tag(w)}: dead worker still holds {diff} "
                       "unretired op(s)")
    return out


# -- 2. tombstoned-epoch isolation -------------------------------------------

@register("tombstone-isolation")
def check_tombstone_isolation(bed) -> List[str]:
    """A completion owned by a retired (crashed/reloaded-away) lease
    epoch must be tombstoned at the ring — never queued for delivery to
    any live worker. The injected ``lease-epoch`` bug violates exactly
    this."""
    pool = bed.server.instance_pool
    if pool is None:
        return []
    out = []
    leaked = pool.retired_inbox_entries()
    if leaked:
        out.append(f"{leaked} completion(s) queued for retired epochs")
    for when, worker, epoch in pool.tombstone_log:
        if (worker, epoch) not in pool._retired:
            out.append(f"tombstone at t={when} for live epoch "
                       f"({worker},{epoch})")
    for w in all_workers(bed.server):
        backend = getattr(w.engine, "backend", None)
        if backend is None or not hasattr(backend, "epoch"):
            continue
        if w.running and pool.is_retired(backend.worker_id, backend.epoch) \
                and w in bed.server.workers:
            out.append(f"{_tag(w)}: live worker bound to retired epoch "
                       f"({backend.worker_id},{backend.epoch})")
    return out


# -- 3. pool lease partition -------------------------------------------------

@register("lease-partition")
def check_lease_partition(bed) -> List[str]:
    """Under the exclusive policies (static, dynamic) the lease map
    must partition the instances at every mutation tick: no lane leased
    twice, no lane unleased. (The shared policy overlaps by design and
    is exempt.)"""
    pool = bed.server.instance_pool
    if pool is None or pool.policy.name == "shared":
        return []
    out = []
    lanes = set(range(len(pool.instances)))
    for when, snapshot in pool.lease_audit:
        seen: dict = {}
        for wid, leased in enumerate(snapshot):
            if len(set(leased)) != len(leased):
                out.append(f"t={when}: w{wid} leases a lane twice "
                           f"{leased}")
            for lane in leased:
                if lane in seen:
                    out.append(f"t={when}: lane {lane} leased to both "
                               f"w{seen[lane]} and w{wid}")
                seen[lane] = wid
        missing = lanes - set(seen)
        if missing:
            out.append(f"t={when}: lanes {sorted(missing)} leased to "
                       "no worker")
    # The mirror set must match the list representation right now.
    for wid, leased in enumerate(pool.leases):
        if set(leased) != pool._lease_sets[wid]:
            out.append(f"w{wid}: lease list {leased} != lease set "
                       f"{sorted(pool._lease_sets[wid])}")
    return out


# -- 4. scheduler lanes and admission cap -------------------------------------

@register("scheduler-sanity")
def check_scheduler(bed) -> List[str]:
    """Lane depths and counters never negative, the aggregate queue
    count is the sum of the lanes, and in-flight ops never exceed the
    admission cap."""
    out = []
    for w, eng in iter_engines(bed.server):
        sched = eng.scheduler
        if sched.queued != sum(lane.depth for lane in sched.lanes):
            out.append(f"{_tag(w)}: queued {sched.queued} != sum of "
                       "lane depths")
        for lane in sched.lanes:
            for attr in ("enqueued", "served", "starved", "expired",
                         "peak"):
                if getattr(lane, attr) < 0:
                    out.append(f"{_tag(w)}/{lane.name}: {attr} negative")
            if lane.depth > lane.peak:
                out.append(f"{_tag(w)}/{lane.name}: depth {lane.depth} "
                           f"above peak {lane.peak}")
        if eng.admission_limit is not None \
                and eng.inflight.total > eng.admission_limit:
            out.append(f"{_tag(w)}: {eng.inflight.total} ops in flight "
                       f"above admission limit {eng.admission_limit}")
    return out


# -- 5. span-tree well-formedness --------------------------------------------

@register("span-well-formed")
def check_spans(bed) -> List[str]:
    """Every closed trace is a well-formed span tree with monotone
    stage marks and a terminal status (the tests/obs invariants, run
    against arbitrary fuzzed schedules)."""
    tracer = bed.tracer
    if tracer is None:
        return []
    from ..obs import MARK_ORDER, SpanStatus
    out = []
    for trace in tracer.traces:
        spans = trace.spans()
        root, stages = spans[0], spans[1:]
        if root.parent is not None or root.start != trace.created \
                or root.end != trace.finished:
            out.append(f"{trace}: malformed root span")
            continue
        if any(s.parent != root.name for s in stages):
            out.append(f"{trace}: stage outside the root")
        if root.duration < 0 or any(s.duration < 0 for s in stages):
            out.append(f"{trace}: negative span duration")
        if any(s.start < root.start - EPS or s.end > root.end + EPS
               for s in stages):
            out.append(f"{trace}: stage outside root lifetime")
        if sum(s.duration for s in stages) > root.duration + EPS:
            out.append(f"{trace}: stage durations exceed root wall time")
        recorded = [trace.marks[m] for m in MARK_ORDER if m in trace.marks]
        if recorded != sorted(recorded):
            out.append(f"{trace}: marks out of pipeline order")
        if recorded and (trace.created > recorded[0]
                         or recorded[-1] > trace.finished):
            out.append(f"{trace}: marks outside op lifetime")
        if trace.status not in SpanStatus.TERMINAL:
            out.append(f"{trace}: closed with non-terminal status")
    for trace in tracer.open.values():
        if trace.closed:
            out.append(f"{trace}: closed trace still in the open table")
    return out


# -- 6. stub_status consistency ----------------------------------------------

@register("stub-consistency")
def check_stub_status(bed) -> List[str]:
    """The stub_status connection accounting must balance, and the
    instance-level firmware totals may only lag the engine totals."""
    out = []
    for w in list(bed.server.workers) + list(bed.server.retired_workers):
        key = f"w{w.worker_id}g{w.generation}"
        stub = w.stub_status
        if stub.tls_alive != stub.total_accepted - stub.total_closed:
            out.append(f"{key}: alive {stub.tls_alive} != accepted "
                       f"{stub.total_accepted} - closed {stub.total_closed}")
        if not 0 <= stub.tls_idle <= stub.tls_alive:
            out.append(f"{key}: idle {stub.tls_idle} outside "
                       f"[0, alive={stub.tls_alive}]")
    # Instance-level totals can only lag the engine totals (ops that
    # expired while still queued never reached an instance).
    device = bed.server.qat_device
    fw = device.fw_counter_totals() if device is not None else {}
    if fw:
        engines = [eng for _, eng in iter_engines(bed.server)]
        if engines:
            eng_timeouts = sum(e.op_timeouts for e in engines)
            eng_fallbacks = sum(e.ops_fallback for e in engines)
            if fw.get("driver.op_timeouts", 0) > eng_timeouts:
                out.append(f"fw driver.op_timeouts "
                           f"{fw['driver.op_timeouts']} exceeds engine "
                           f"total {eng_timeouts}")
            if fw.get("driver.fallback_ops", 0) > eng_fallbacks:
                out.append(f"fw driver.fallback_ops "
                           f"{fw['driver.fallback_ops']} exceeds engine "
                           f"total {eng_fallbacks}")
    return out


# -- 7. lifecycle journal ----------------------------------------------------

@register("lifecycle-journal")
def check_lifecycle(bed) -> List[str]:
    """The supervision journal is time-ordered and its counters match
    the events it records."""
    sup = bed.server.supervisor
    out = []
    times = [t for t, _, _ in sup.events]
    if times != sorted(times):
        out.append("journal timestamps out of order")
    crashes = sum(1 for _, kind, _ in sup.events if kind == "worker-crash")
    if crashes != sup.crashes:
        out.append(f"crash counter {sup.crashes} != {crashes} "
                   "journaled crash events")
    if sup.respawns > sup.crashes:
        out.append(f"respawns {sup.respawns} exceed crashes "
                   f"{sup.crashes}")
    for counter in ("crashes", "respawns", "reloads",
                    "reload_rejections", "forced_aborts"):
        if getattr(sup, counter) < 0:
            out.append(f"negative counter {counter}")
    return out


# -- 8. client metrics sanity ------------------------------------------------

@register("metrics-sanity")
def check_metrics(bed) -> List[str]:
    """Client-side measurements are physically possible: non-negative
    durations, completion times inside the run, recorded in completion
    order."""
    out = []
    m = bed.metrics
    now = bed.sim.now
    for series_name, series in (("handshakes", m.handshakes),
                                ("requests", m.requests)):
        times = [e[0] for e in series]
        if times != sorted(times):
            out.append(f"{series_name} not in completion order")
        if any(t < 0 or t > now + EPS for t in times):
            out.append(f"{series_name} timestamp outside the run")
        if any(e[1] < 0 for e in series):
            out.append(f"{series_name} with negative duration")
    if m.errors < 0:
        out.append("negative error count")
    return out
