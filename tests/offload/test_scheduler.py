"""Class-aware offload scheduler: lane mapping, arbitration policies
(fifo / strict-priority / weighted-fair), arrival order within a lane,
and the engine's rule that only the admission cap makes it queue."""

import pytest

from repro.crypto.ops import SCHED_CLASSES, OpCategory
from repro.offload.scheduler import (DEFAULT_WEIGHTS, SCHED_POLICIES,
                                     STARVATION_THRESHOLD, ClassScheduler)
from repro.testing import make_job, make_qat_env, rsa_call

ASYM, CIPHER, PRF = OpCategory.ASYM, OpCategory.CIPHER, OpCategory.PRF


class Call:
    """Just enough of a CryptoCall for flush_order bucketing."""

    class _Op:
        def __init__(self, category):
            self.category = category

    def __init__(self, category):
        self.op = self._Op(category)


class Item:
    """Just enough of an engine _QueuedOp for the scheduler."""

    def __init__(self, category, deadline=1.0):
        self.call = Call(category)
        self.category = category
        self.deadline = deadline
        self.seq = -1

    def __repr__(self):
        return f"Item({self.category.value}, seq={self.seq})"


def drain(s):
    out = []
    while True:
        item = s.pop()
        if item is None:
            return out
        out.append(item)


# -- class mapping -----------------------------------------------------------

def test_every_category_has_a_lane():
    assert set(SCHED_CLASSES) == set(OpCategory)
    assert ASYM.sched_class == "handshake-asym"
    assert CIPHER.sched_class == "record-cipher"
    assert PRF.sched_class == "prf"
    s = ClassScheduler()
    assert {lane.name for lane in s.lanes} == set(SCHED_CLASSES.values())


def test_validation():
    with pytest.raises(ValueError, match="policy"):
        ClassScheduler(policy="round-robin")
    with pytest.raises(ValueError, match="class"):
        ClassScheduler(weights={"bulk": 3})
    with pytest.raises(ValueError, match="weight"):
        ClassScheduler(weights={"prf": 0})
    assert "fifo" in SCHED_POLICIES


# -- fifo: bit-for-bit the single queue --------------------------------------

def test_fifo_pops_in_global_arrival_order():
    s = ClassScheduler(policy="fifo")
    items = [Item(c) for c in (CIPHER, ASYM, CIPHER, PRF, ASYM, CIPHER)]
    for it in items:
        s.push(it, it.category)
    assert s.queued == 6
    assert drain(s) == items  # arrival order, classes interleaved


def test_fifo_push_front_restores_head():
    s = ClassScheduler(policy="fifo")
    items = [Item(c) for c in (CIPHER, ASYM, PRF)]
    for it in items:
        s.push(it, it.category)
    head = s.pop()
    assert head is items[0]
    s.push_front(head, head.category)  # ring-full requeue
    assert drain(s) == items           # original order intact


def test_items_and_remove():
    s = ClassScheduler()
    items = [Item(c) for c in (PRF, CIPHER, ASYM)]
    for it in items:
        s.push(it, it.category)
    assert s.items() == items
    assert items[1] in s
    assert s.remove(items[1])
    assert not s.remove(items[1])  # already gone
    assert s.items() == [items[0], items[2]]


def test_lane_keeps_arrival_order_whatever_the_deadline():
    s = ClassScheduler()
    late = Item(ASYM, deadline=2.0)
    later = Item(ASYM, deadline=3.0)
    urgent = Item(ASYM, deadline=1.0)
    for it in (late, later, urgent):
        s.push(it, ASYM)
    # Lanes append: an earlier deadline does not jump the queue.
    assert drain(s) == [late, later, urgent]


def test_constant_deadlines_keep_arrival_order():
    # Engine deadlines are enqueue-time + constant, i.e. monotone, so
    # arrival order is deadline order.
    s = ClassScheduler()
    items = [Item(ASYM, deadline=float(i)) for i in range(5)]
    for it in items:
        s.push(it, ASYM)
    assert drain(s) == items


# -- strict-priority ---------------------------------------------------------

def test_strict_priority_orders_lanes():
    s = ClassScheduler(policy="strict-priority")
    cipher, prf, asym = Item(CIPHER), Item(PRF), Item(ASYM)
    for it in (cipher, prf, asym):
        s.push(it, it.category)
    assert drain(s) == [asym, prf, cipher]


def test_strict_priority_starvation_fallback():
    s = ClassScheduler(policy="strict-priority")
    starving = Item(CIPHER)
    s.push(starving, CIPHER)
    popped = []
    # A steady stream of high-priority arrivals: without the deficit
    # fallback the cipher op would never be served.
    for _ in range(STARVATION_THRESHOLD + 1):
        s.push(Item(ASYM), ASYM)
        popped.append(s.pop())
    assert starving in popped  # served despite constant pressure
    assert s.lane("record-cipher").starved == 1
    # Priority resumes once the deficit is repaid.
    s.push(Item(CIPHER), CIPHER)
    s.push(Item(ASYM), ASYM)
    assert s.pop().category == ASYM


# -- weighted-fair (DRR) -----------------------------------------------------

def test_weighted_fair_serves_in_weight_proportion():
    s = ClassScheduler(policy="weighted-fair",
                       weights={"handshake-asym": 3, "prf": 2,
                                "record-cipher": 1})
    for _ in range(30):
        s.push(Item(ASYM), ASYM)
        s.push(Item(PRF), PRF)
        s.push(Item(CIPHER), CIPHER)
    first = [s.pop().category for _ in range(12)]
    # Two full DRR rounds: 3 asym, 2 prf, 1 cipher each.
    assert first == [ASYM] * 3 + [PRF] * 2 + [CIPHER] \
        + [ASYM] * 3 + [PRF] * 2 + [CIPHER]


def test_weighted_fair_no_lane_starves():
    s = ClassScheduler(policy="weighted-fair")  # defaults 8/2/1
    for _ in range(44):
        s.push(Item(ASYM), ASYM)
    for _ in range(11):
        s.push(Item(CIPHER), CIPHER)
    served = [s.pop().category for _ in range(55)]
    # 4 full rounds of 8+1 plus the tail: cipher is served regularly,
    # roughly once per 8 asym ops, never pushed to the end.
    assert served.count(CIPHER) == 11
    assert CIPHER in served[:9]


def test_weighted_fair_idle_lane_forfeits_credit():
    s = ClassScheduler(policy="weighted-fair",
                       weights={"handshake-asym": 8})
    s.push(Item(CIPHER), CIPHER)
    assert s.pop().category == CIPHER  # alone -> full service
    # A lane that emptied does not bank credit for later bursts.
    assert s.lane("record-cipher").deficit == 0


def test_default_weights_cover_every_lane():
    assert set(DEFAULT_WEIGHTS) == set(SCHED_CLASSES.values())
    assert all(w >= 1 for w in DEFAULT_WEIGHTS.values())


# -- flush ordering ----------------------------------------------------------

def test_flush_order_fifo_is_identity():
    s = ClassScheduler(policy="fifo")
    items = [Item(c) for c in (CIPHER, ASYM, PRF, CIPHER)]
    assert s.flush_order(items) == items


def test_flush_order_strict_priority_sorts_stably():
    s = ClassScheduler(policy="strict-priority")
    c1, a1, p1, c2, a2 = (Item(CIPHER), Item(ASYM), Item(PRF),
                          Item(CIPHER), Item(ASYM))
    assert s.flush_order([c1, a1, p1, c2, a2]) == [a1, a2, p1, c1, c2]


def test_flush_order_weighted_fair_interleaves():
    s = ClassScheduler(policy="weighted-fair",
                       weights={"handshake-asym": 2, "prf": 1,
                                "record-cipher": 1})
    a = [Item(ASYM) for _ in range(4)]
    c = [Item(CIPHER) for _ in range(4)]
    ordered = s.flush_order(c + a)
    # Per round: 2 asym then 1 cipher -> no class fills the batch head.
    assert ordered == [a[0], a[1], c[0], a[2], a[3], c[1], c[2], c[3]]


# -- counters ---------------------------------------------------------------

def test_lane_counters_and_snapshot():
    s = ClassScheduler(policy="strict-priority")
    for _ in range(3):
        s.push(Item(ASYM), ASYM)
    s.push(Item(CIPHER), CIPHER)
    s.pop()
    s.note_expired(CIPHER)
    snap = s.snapshot()
    assert snap["policy"] == "strict-priority"
    lanes = snap["lanes"]
    assert lanes["handshake-asym"]["enqueued"] == 3
    assert lanes["handshake-asym"]["served"] == 1
    assert lanes["handshake-asym"]["peak"] == 3
    assert lanes["record-cipher"]["expired"] == 1
    assert lanes["record-cipher"]["depth"] == 1


# -- engine integration ------------------------------------------------------

def submit_all(env, pairs):
    oks = []

    def proc(sim):
        for call, job in pairs:
            ok = yield from env.engine.submit_async(call, job, owner="w")
            oks.append(ok)

    p = env.sim.process(proc(env.sim))
    env.sim.run(until=p)
    return oks


def test_engine_default_is_inactive_scheduler():
    env = make_qat_env()
    eng = env.engine
    assert eng.scheduler.policy == "fifo"
    assert eng.admission_limit is None
    assert eng.scheduler.queued == 0


@pytest.mark.parametrize("limit", [None, 8])
def test_only_the_admission_cap_parks_a_ring_full_op(limit):
    env = make_qat_env(ring_capacity=1, sched_policy="weighted-fair",
                       admission_limit=limit)
    calls = [rsa_call(f"r{i}") for i in range(2)]
    jobs = [make_job(paused_on=c) for c in calls]
    # The second op finds the one-slot ring full: without a cap it
    # bounces back for a WANT_RETRY pause whatever the policy; under a
    # cap it waits in its lane.
    assert submit_all(env, list(zip(calls, jobs))) == [True, limit == 8]
    eng = env.engine
    assert eng.inflight.total == 1
    assert eng.admission_queued == (1 if limit else 0)
    assert jobs[1].submit_attempts == (0 if limit else 1)
