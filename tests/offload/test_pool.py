"""The shared QAT instance pool (``repro.offload.pool``): allocation
policies, lease migration with hysteresis, ownership-routed completion
delivery, and the pooled backend's admission surface."""

import pytest

from repro.crypto.ops import OpCategory
from repro.offload.pool import (ARBITRATION_CPU_COST, DynamicPolicy,
                                InstancePool, PooledQatBackend,
                                SharedPolicy, StaticPolicy, make_policy)
from repro.qat.device import QatDevice
from repro.qat.instance import submit_cpu_cost
from repro.sim.kernel import Simulator
from repro.testing import rsa_call


def make_pool(n_workers=2, n_instances=4, policy=None, n_endpoints=3):
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=n_endpoints)
    if policy is None:
        policy = StaticPolicy()
    pool = InstancePool(sim, dev.allocate_instances(n_instances),
                        n_workers, policy)
    return sim, pool


# -- policies ---------------------------------------------------------------

def test_static_leases_are_consecutive_chunks():
    assert StaticPolicy().initial_leases(2, 4) == [[0, 1], [2, 3]]
    assert StaticPolicy().initial_leases(4, 4) == [[0], [1], [2], [3]]


def test_shared_leases_wrap_the_whole_pool():
    # Each worker's round-robin starts at its static chunk so light
    # load does not pile every worker onto lane 0.
    assert SharedPolicy().initial_leases(2, 4) == [[0, 1, 2, 3],
                                                  [2, 3, 0, 1]]


def test_dynamic_starts_from_the_static_partition():
    assert (DynamicPolicy(min_dwell=1e-3).initial_leases(2, 4)
            == StaticPolicy().initial_leases(2, 4))


@pytest.mark.parametrize("policy", [StaticPolicy(), SharedPolicy(),
                                    DynamicPolicy(min_dwell=1e-3)])
def test_indivisible_pool_rejected(policy):
    with pytest.raises(ValueError, match="do not partition"):
        policy.initial_leases(3, 4)


def test_make_policy_resolves_names():
    assert isinstance(make_policy("static", 2e-3), StaticPolicy)
    assert isinstance(make_policy("shared", 2e-3), SharedPolicy)
    dynamic = make_policy("dynamic", 2e-3)
    assert isinstance(dynamic, DynamicPolicy)
    # The rebalance interval is the dynamic policy's hysteresis.
    assert dynamic.min_dwell == 2e-3


def test_make_policy_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown instance policy"):
        make_policy("bogus", 2e-3)


def test_dynamic_policy_validates_hysteresis_knobs():
    with pytest.raises(ValueError, match="min_dwell"):
        DynamicPolicy(min_dwell=0)


# -- pool construction / admission ------------------------------------------

def test_pool_constructor_validates():
    sim, pool = make_pool()
    with pytest.raises(ValueError, match="at least one worker"):
        InstancePool(sim, pool.instances, 0, StaticPolicy())
    with pytest.raises(ValueError, match="at least one instance"):
        InstancePool(sim, [], 1, StaticPolicy())
    with pytest.raises(ValueError, match="out of range"):
        pool.register(2)


def test_register_returns_one_backend_per_worker():
    _, pool = make_pool()
    b0 = pool.register(0)
    assert pool.register(0) is b0
    assert isinstance(b0, PooledQatBackend) and b0.name == "qat"


def test_static_partition_admits_only_own_chunk():
    _, pool = make_pool(n_workers=2, n_instances=4)
    b0, b1 = pool.register(0), pool.register(1)
    assert [b0.admits(ln) for ln in range(4)] == [True, True, False, False]
    assert [b1.admits(ln) for ln in range(4)] == [False, False, True, True]
    # Unadmitted lanes reject the whole batch and advertise zero room.
    assert b0.submit_batch([rsa_call(), rsa_call()], lane=2) == [None, None]
    assert b0.capacity_hint(lane=2, category=OpCategory.ASYM) == 0
    assert b0.capacity_hint(lane=0, category=OpCategory.ASYM) > 0


def test_arbitration_cost_only_for_shared_leases():
    _, static_pool = make_pool(policy=StaticPolicy())
    _, shared_pool = make_pool(policy=SharedPolicy())
    base = submit_cpu_cost(1)
    assert static_pool.register(0).submit_cpu_cost(1) == base
    assert (shared_pool.register(0).submit_cpu_cost(1)
            == base + ARBITRATION_CPU_COST)


# -- submission / completion routing ----------------------------------------

def test_submit_poll_round_trip():
    sim, pool = make_pool(n_workers=2, n_instances=4)
    b0 = pool.register(0)
    tokens = b0.submit_batch([rsa_call("r0")], lane=0)
    assert tokens[0] is not None
    sim.run(until=0.05)
    got = b0.poll_completions()
    assert [c.result for c in got] == ["r0"]
    assert got[0].token is tokens[0]
    assert pool.routed_completions == 0


def test_static_pool_behaves_like_plain_backend():
    # One worker leasing both instances: poll batches rotate their
    # starting lane (so lane 0 cannot monopolise a bounded budget) and
    # spill into the next lane when the first runs dry. The expected
    # values are pinned from the retired plain QAT backend that the
    # static pool replaced, so its behaviour stays checked.
    sim = Simulator()
    dev = QatDevice(sim, n_endpoints=2)
    instances = dev.allocate_instances(2)
    backend = InstancePool(sim, instances, 1, StaticPolicy()).register(0)
    for i in range(6):
        tokens = backend.submit_batch([rsa_call(f"r{i}")], lane=i % 2)
        assert tokens[0] is not None
    sim.run(until=0.1)
    results = []
    while True:
        got = backend.poll_completions(2)
        if not got:
            break
        results.append([c.result for c in got])
    assert results == [["r0", "r2"], ["r1", "r3"], ["r4", "r5"]]
    assert [inst.submitted for inst in instances] == [3, 3]


def test_shared_pool_lets_any_worker_use_any_lane():
    sim, pool = make_pool(n_workers=2, n_instances=4,
                          policy=SharedPolicy())
    b1 = pool.register(1)
    assert all(b1.admits(ln) for ln in range(4))
    tokens = b1.submit_batch([rsa_call("x")], lane=0)
    assert tokens[0] is not None
    sim.run(until=0.05)
    assert [c.result for c in b1.poll_completions()] == ["x"]


# -- dynamic rebalancing ----------------------------------------------------

def pressured(pool, *values):
    for w, v in enumerate(values):
        pool.set_pressure_source(w, lambda v=v: float(v))


def test_rebalance_migrates_one_lane_toward_pressure():
    sim, pool = make_pool(policy=DynamicPolicy(min_dwell=1e-3))
    pressured(pool, 0, 10)
    moves = pool.rebalance(now=1.0)
    # Worker 0 (idle) donates its least-busy lane to worker 1.
    assert moves == [(0, 0, 1)]
    assert pool.leases == [[1], [2, 3, 0]]
    assert pool.lease_counts() == [1, 3]
    assert pool.migrations == 1
    assert pool.migration_log == [(1.0, 0, 0, 1)]
    assert pool.lease_since(0) == 1.0
    assert not pool.admits(0, 0, 0) and pool.admits(1, 0, 0)


def test_rebalance_prefers_the_least_busy_lane():
    sim, pool = make_pool(policy=DynamicPolicy(min_dwell=1e-3))
    b0 = pool.register(0)
    assert b0.submit_batch([rsa_call()], lane=0)[0] is not None
    pressured(pool, 0, 10)
    # Lane 0 carries an in-flight op, so the idle lane 1 moves.
    assert pool.rebalance(now=1.0) == [(1, 0, 1)]


def test_rebalance_hysteresis():
    policy = DynamicPolicy(min_dwell=1.0)
    sim, pool = make_pool(policy=policy)
    pressured(pool, 0, 10)
    # Leases younger than min_dwell stay put.
    assert pool.rebalance(now=0.5) == []
    # A pressure gap below the threshold never migrates.
    pressured(pool, 8, 10)
    assert pool.rebalance(now=2.0) == []


def test_donor_keeps_its_last_lease():
    sim, pool = make_pool(n_workers=2, n_instances=2,
                          policy=DynamicPolicy(min_dwell=1e-3))
    pressured(pool, 0, 100)
    assert pool.rebalance(now=1.0) == []
    assert pool.lease_counts() == [1, 1]


def test_migration_routes_inflight_completions_to_owner():
    sim, pool = make_pool(policy=DynamicPolicy(min_dwell=1e-3))
    b0, b1 = pool.register(0), pool.register(1)
    # Worker 0 loads lane 1 so the rebalance donates lane 0 — which
    # still carries worker 0's in-flight ops.
    assert b0.submit_batch([rsa_call("mine")], lane=0)[0] is not None
    assert b0.submit_batch([rsa_call("a"), rsa_call("b")], lane=1) != [None, None]
    pressured(pool, 0, 10)
    assert pool.rebalance(now=1e-3) == [(0, 0, 1)]
    sim.run(until=0.05)
    # Worker 1 polls the migrated ring; the response is not its to
    # keep — it lands in worker 0's inbox instead.
    assert b1.poll_completions() == []
    assert pool.routed_completions == 1
    results = {c.result for c in b0.poll_completions()}
    assert results == {"mine", "a", "b"}
    assert b0.poll_completions() == []  # the inbox drained


# -- introspection ----------------------------------------------------------

def test_snapshot_and_health():
    _, pool = make_pool(n_workers=2, n_instances=4,
                        policy=DynamicPolicy(min_dwell=1e-3))
    snap = pool.snapshot()
    assert snap == {"policy": "dynamic", "instances": 4, "workers": 2,
                    "leases": [2, 2], "migrations": 0,
                    "routed_completions": 0, "epochs": [0, 0],
                    "tombstone_drops": 0}
    # No health source registered: every worker counts as healthy.
    assert pool.healthy(0) and pool.healthy(1)
    pool.set_health_source(1, lambda: False)
    assert pool.healthy(0) and not pool.healthy(1)


def test_backend_views_leased_instances_but_global_lanes():
    _, pool = make_pool(n_workers=2, n_instances=4)
    b1 = pool.register(1)
    assert b1.lanes == 4
    assert b1.instances == [pool.instances[2], pool.instances[3]]
    assert b1.lane_stats(0) is pool.instances[0]


# -- lease epochs / retirement (worker lifecycle) ---------------------------

def healthy(pool, *values):
    for w, v in enumerate(values):
        pool.set_health_source(w, lambda v=v: bool(v))


def test_rebalance_skips_unhealthy_receivers():
    # Regression: a worker with an open circuit breaker must never be
    # chosen as the migration target, no matter how high its pressure.
    sim, pool = make_pool(policy=DynamicPolicy(min_dwell=1e-3))
    pressured(pool, 0, 10)
    healthy(pool, 1, 0)  # worker 1 is pressured but broken
    assert pool.rebalance(now=1.0) == []
    # Once the breaker closes again, the same tick migrates.
    healthy(pool, 1, 1)
    assert pool.rebalance(now=2.0) == [(0, 0, 1)]


def test_rebalance_with_every_receiver_unhealthy_is_a_noop():
    sim, pool = make_pool(policy=DynamicPolicy(min_dwell=1e-3))
    pressured(pool, 10, 10)
    healthy(pool, 0, 0)
    assert pool.rebalance(now=1.0) == []


def test_advance_epoch_rebinds_the_backend():
    _, pool = make_pool()
    b_old = pool.register(0)
    assert b_old.epoch == 0
    assert pool.advance_epoch(0) == 1
    b_new = pool.register(0)
    assert b_new is not b_old and b_new.epoch == 1
    assert pool.snapshot()["epochs"] == [1, 0]


def test_retired_epoch_stops_admitting_and_polling():
    sim, pool = make_pool()
    b_old = pool.register(0)
    pool.advance_epoch(0)
    b_new = pool.register(0)
    assert b_old.admits(0) and b_new.admits(0)
    pool.retire(0, 0)
    assert pool.is_retired(0, b_old.epoch)
    assert not pool.is_retired(0, b_new.epoch)
    assert not b_old.admits(0) and b_new.admits(0)
    # A retired backend's submissions bounce and its polls are empty.
    assert b_old.submit_batch([rsa_call("x")], lane=0) == [None]
    assert b_old.poll_completions() == []


def test_dead_epoch_completions_tombstone_not_misdeliver():
    # Ops submitted by epoch 0 complete after the incarnation died; the
    # successor (epoch 1) polls the same lanes and must never see them.
    sim, pool = make_pool()
    b_old = pool.register(0)
    assert b_old.submit_batch([rsa_call("stale")], lane=0)[0] is not None
    pool.advance_epoch(0)
    pool.retire(0, 0)
    assert pool.dead_epoch_inflight() == 1
    b_new = pool.register(0)
    sim.run(until=0.05)
    assert b_new.poll_completions() == []
    assert pool.snapshot()["tombstone_drops"] == 1
    assert pool.tombstone_log == [(sim.now, 0, 0)]
    assert pool.dead_epoch_inflight() == 0


def test_retire_tombstones_parked_inbox_completions():
    # A completion already routed to the dead incarnation's inbox is
    # tombstoned at retire time, not delivered to anyone later.
    sim, pool = make_pool(policy=SharedPolicy())
    b0, b1 = pool.register(0), pool.register(1)
    assert b0.submit_batch([rsa_call("w0-op")], lane=2)[0] is not None
    sim.run(until=0.05)
    # Worker 1 polls lane 2 first and parks w0's completion in its inbox.
    assert b1.poll_completions() == []
    assert pool.routed_completions == 1
    pool.retire(0, 0)
    assert pool.retired_inbox_entries() == 0
    assert pool.snapshot()["tombstone_drops"] == 1


def test_reclaim_leases_donates_to_survivors_round_robin():
    sim, pool = make_pool(n_workers=2, n_instances=4)
    moves = pool.reclaim_leases(0)
    assert moves == [(0, 1), (1, 1)]
    assert pool.lease_counts() == [0, 4]
    assert pool.reclaimed == 2
    assert not pool.admits(0, 0, 0) and pool.admits(1, 0, 0)
    # Sole-survivor edge: nothing to donate to.
    sim2, pool2 = make_pool(n_workers=1, n_instances=2)
    assert pool2.reclaim_leases(0) == []


def test_retire_is_idempotent():
    _, pool = make_pool()
    pool.register(0)
    pool.advance_epoch(0)
    assert pool.retire(0, 0) == 0  # nothing in flight
    assert pool.retire(0, 0) == 0
    assert pool.is_retired(0, 0) and not pool.is_retired(0, 1)
