"""Property-based tests for :class:`repro.offload.scheduler.ClassScheduler`.

Three properties the unit tests in ``test_scheduler.py`` spot-check at
fixed points, here driven across randomly generated command sequences:

1. ``fifo`` policy over per-class lanes is *extensionally equal* to a
   single min-seq FIFO queue — including ``push_front`` restores, which
   keep their original sequence number.
2. Weighted-fair (DRR) never starves a lane that has eligible work: the
   number of consecutive pops that bypass a non-empty lane is bounded
   by the sum of the other lanes' weights.
3. Under every policy a pop takes a lane head and returns None only
   when every lane is empty, so each lane drains in arrival order.

Hypothesis shrinks any counterexample to a minimal command sequence,
and ``derandomize=True`` keeps tier-1 runs reproducible.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.crypto.ops import OpCategory  # noqa: E402
from repro.offload.scheduler import ClassScheduler  # noqa: E402

CATEGORIES = (OpCategory.ASYM, OpCategory.PRF, OpCategory.CIPHER)

DETERMINISTIC = settings(max_examples=120, deadline=None,
                         derandomize=True)


class Entry:
    """Minimal stand-in for the engine's _QueuedOp: the scheduler only
    needs a writable ``seq``."""

    __slots__ = ("deadline", "seq", "category")

    def __init__(self, deadline: float,
                 category: OpCategory = OpCategory.ASYM) -> None:
        self.deadline = deadline
        self.seq = -1
        self.category = category

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Entry seq={self.seq} cat={self.category.name}>"


# ---------------------------------------------------------------------------
# Property 1: fifo == one min-seq queue (bit-for-bit, incl. push_front)
# ---------------------------------------------------------------------------

# Command alphabet: push on a random lane, pop, or restore the most
# recently popped entry (ring-backpressure requeue).
_FIFO_CMD = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(CATEGORIES)),
    st.just(("pop",)),
    st.just(("restore",)),
)


@DETERMINISTIC
@given(st.lists(_FIFO_CMD, max_size=80))
def test_fifo_policy_equals_single_min_seq_queue(cmds):
    sched = ClassScheduler(policy="fifo")
    model = []          # queued entries, sorted by seq
    restorable = []     # popped entries eligible for push_front
    clock = 0           # engine deadlines are arrival-ordered
    for cmd in cmds:
        if cmd[0] == "push":
            clock += 1
            entry = Entry(deadline=float(clock), category=cmd[1])
            sched.push(entry, cmd[1])
            model.append(entry)          # seq stamped in push order
        elif cmd[0] == "pop":
            got = sched.pop()
            expect = model.pop(0) if model else None
            assert got is expect, \
                f"fifo pop returned {got!r}, single queue says {expect!r}"
            if got is not None:
                restorable.append(got)
        elif restorable:                 # restore
            entry = restorable.pop()
            sched.push_front(entry, entry.category)
            # Original seq retained: reinsert at the model position the
            # seq dictates (the front, for the most recent pop).
            model.append(entry)
            model.sort(key=lambda e: e.seq)
    # Drain: the tail must come out in global arrival order too.
    while model:
        assert sched.pop() is model.pop(0)
    assert sched.pop() is None
    assert sched.queued == 0


# ---------------------------------------------------------------------------
# Property 2: DRR never starves an active lane
# ---------------------------------------------------------------------------

@DETERMINISTIC
@given(
    weights=st.tuples(st.integers(1, 6), st.integers(1, 6),
                      st.integers(1, 6)),
    depths=st.tuples(st.integers(0, 25), st.integers(0, 25),
                     st.integers(0, 25)),
)
def test_drr_bypass_of_nonempty_lane_is_bounded(weights, depths):
    names = ("handshake-asym", "prf", "record-cipher")
    sched = ClassScheduler(policy="weighted-fair",
                           weights=dict(zip(names, weights)))
    clock = 0
    for cat, depth in zip(CATEGORIES, depths):
        for _ in range(depth):
            clock += 1
            sched.push(Entry(deadline=float(clock), category=cat), cat)
    total_weight = sum(weights)
    bypassed = {name: 0 for name in names}
    while sched.queued:
        nonempty = {lane.name for lane in sched.lanes if lane.depth}
        item = sched.pop()
        assert item is not None, "pop() blocked with work queued"
        served = item.category.sched_class
        for name in nonempty:
            if name == served:
                bypassed[name] = 0
            else:
                bypassed[name] += 1
                lane_weight = sched.lane(name).weight
                bound = total_weight - lane_weight
                assert bypassed[name] <= bound, \
                    f"lane {name} bypassed {bypassed[name]}x " \
                    f"(> sum of other weights {bound}) while non-empty"
    assert sched.pop() is None


# ---------------------------------------------------------------------------
# Property 3: pops never block and drain each lane in arrival order
# ---------------------------------------------------------------------------

_POP_CMD = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(CATEGORIES)),
    st.just(("pop",)),
)


@DETERMINISTIC
@given(
    policy=st.sampled_from(("fifo", "strict-priority", "weighted-fair")),
    cmds=st.lists(_POP_CMD, max_size=80),
)
def test_pop_never_blocks_and_keeps_lane_arrival_order(policy, cmds):
    sched = ClassScheduler(policy=policy)
    clock = 0
    popped_by_lane = {}           # lane -> [seq, ...] in pop order
    for cmd in cmds + [("pop",)] * len(cmds):
        if cmd[0] == "push":
            clock += 1
            sched.push(Entry(deadline=float(clock), category=cmd[1]),
                       cmd[1])
            continue
        queued = sched.queued
        got = sched.pop()
        assert (got is None) == (queued == 0), \
            f"pop() returned {got!r} with {queued} entries queued"
        if got is not None:
            popped_by_lane.setdefault(
                got.category.sched_class, []).append(got.seq)
    assert sched.queued == 0
    for lane, seqs in popped_by_lane.items():
        assert seqs == sorted(seqs), \
            f"lane {lane} served out of arrival order: {seqs}"
