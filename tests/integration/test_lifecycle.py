"""End-to-end worker lifecycle supervision: crash respawn with lease
reclamation, graceful reload under load, and validated-config
rollback."""

import pytest

from repro.bench.runner import Testbed
from repro.core.configurations import make_server_config
from repro.server.lifecycle import WorkerState

KNOBS = dict(qat_request_deadline=8e-3, qat_watchdog_interval=1e-3,
             qat_submit_max_retries=8, worker_drain_timeout=20e-3)
CRASH_AT = 0.03
UNTIL = 0.10
WORKERS = 2
SUITES = ("TLS-RSA",)


def make_bed(seed=7, crashed=True, **extra):
    plan = dict(worker_crashes=((0, CRASH_AT),)) if crashed else None
    bed = Testbed("QTLS", workers=WORKERS, suites=SUITES, seed=seed,
                  fault_plan=plan, **dict(KNOBS, **extra))
    bed.add_s_time_fleet(n_clients=40)
    return bed


# -- crash -> respawn --------------------------------------------------------

@pytest.fixture(scope="module")
def crashed_bed():
    bed = make_bed()
    bed.sim.run(until=UNTIL)
    return bed


def test_crash_fault_fires_and_respawns(crashed_bed):
    sup = crashed_bed.server.supervisor
    assert sup.crashes == 1 and sup.respawns == 1
    assert crashed_bed.fault_plan.workers_crashed == 1
    kinds = [kind for _, kind, _ in sup.events]
    assert kinds[:2] == ["worker-crash", "worker-respawn"]


def test_respawned_worker_serves_on_the_same_core(crashed_bed):
    replacement = crashed_bed.server.workers[0]
    dead = crashed_bed.server.retired_workers[0]
    assert replacement is not dead
    assert replacement.core is dead.core
    assert replacement.listener is dead.listener
    # The replacement actually completed handshakes after the crash.
    assert (replacement.metrics.handshakes_full
            + replacement.metrics.handshakes_resumed) > 0


def test_crash_retires_epoch_and_strands_nothing(crashed_bed):
    pool = crashed_bed.server.instance_pool
    assert pool.is_retired(0, 0)
    assert pool.epochs[0] == 1
    # Every op the dead incarnation left on the card surfaced and was
    # tombstoned — nothing leaked, nothing delivered to the successor.
    assert pool.dead_epoch_inflight() == 0
    dead = crashed_bed.server.retired_workers[0]
    assert dead.engine.idle
    assert crashed_bed.server.workers[0].engine.backend.epoch == 1


def test_crash_ledger_and_stub_status(crashed_bed):
    sup = crashed_bed.server.supervisor
    record = sup.retired[0]
    assert record.state is WorkerState.EXITED
    assert record.slot == 0
    # The journal is where a crash is recorded.
    tag = f"w{record.slot} gen{record.generation} "
    assert any(kind == "worker-crash" and detail.startswith(tag)
               for _, kind, detail in sup.events)
    # Each incarnation's page shows its own record: the crashed one
    # keeps its epoch and respawn count, the replacement has its own.
    dead = crashed_bed.server.retired_workers[0].stub_status.render()
    assert "lifecycle: state exited generation 0 epoch 0 respawns 0\n" \
        in dead
    page = crashed_bed.server.workers[0].stub_status.render()
    assert "lifecycle: state serving generation 0 epoch 1 respawns 1\n" \
        in page


def test_cps_recovers_after_respawn(crashed_bed):
    pre = crashed_bed.metrics.cps(0.01, CRASH_AT)
    post = crashed_bed.metrics.cps(0.06, UNTIL)
    assert pre > 0
    assert post >= 0.9 * pre


def test_crash_run_replays_bit_for_bit():
    a, b = make_bed(seed=11), make_bed(seed=11)
    a.sim.run(until=UNTIL)
    b.sim.run(until=UNTIL)
    assert a.metrics.handshakes == b.metrics.handshakes
    assert a.fault_plan.trace() == b.fault_plan.trace()
    assert a.server.supervisor.events == b.server.supervisor.events
    assert (a.server.instance_pool.tombstone_log
            == b.server.instance_pool.tombstone_log)


def test_respawn_budget_exhaustion_abandons_and_reclaims():
    bed = make_bed(crashed=False, max_respawns=0)
    bed.sim.run(until=0.02)
    assert bed.server.crash_worker(0) is True
    sup = bed.server.supervisor
    assert sup.crashes == 1 and sup.respawns == 0
    assert sup.dead_slots == {0}
    pool = bed.server.instance_pool
    assert pool.lease_counts()[0] == 0
    assert pool.reclaimed > 0
    # A second crash on the dead slot is a no-op.
    assert bed.server.crash_worker(0) is False
    # The survivor keeps completing handshakes.
    before = len(bed.metrics.handshakes)
    bed.sim.run(until=0.06)
    assert len(bed.metrics.handshakes) > before


# -- graceful reload ---------------------------------------------------------

def reload_config(**overrides):
    return make_server_config("QTLS", workers=WORKERS, suites=SUITES,
                              **dict(KNOBS, **overrides))


@pytest.fixture(scope="module")
def reloaded_bed():
    bed = make_bed(crashed=False)

    def do_reload():
        bed.reload_ok = bed.server.reload(
            reload_config(qat_heuristic_poll_asym_threshold=32))

    bed.reload_ok = False
    bed.sim.call_at(CRASH_AT, do_reload)
    bed.sim.run(until=UNTIL)
    return bed


def test_reload_swaps_generation_without_errors(reloaded_bed):
    sup = reloaded_bed.server.supervisor
    assert reloaded_bed.reload_ok
    assert sup.generation == 1 and sup.reloads == 1
    assert reloaded_bed.metrics.errors == 0
    for worker in reloaded_bed.server.workers:
        assert worker.generation == 1
        assert (worker.config.ssl_engine
                .qat_heuristic_poll_asym_threshold) == 32


def test_reload_drains_old_generation(reloaded_bed):
    sup = reloaded_bed.server.supervisor
    assert sup.draining_count == 0
    assert len(reloaded_bed.server.retired_workers) == WORKERS
    for record in sup.draining_records:
        assert record.state is WorkerState.EXITED
        assert record.worker.drained
    pool = reloaded_bed.server.instance_pool
    assert pool.epochs == [1] * WORKERS
    assert pool.dead_epoch_inflight() == 0


def test_reload_never_zeroes_throughput(reloaded_bed):
    # 5 ms buckets across the swap: the new generation owns the
    # listeners before the old one stops, so handshakes keep landing.
    times = [t for t, _, _ in reloaded_bed.metrics.handshakes]
    start, width = 0.01, 5e-3
    n = int((UNTIL - start) / width)
    buckets = [0] * n
    for t in times:
        if start <= t < start + n * width:
            buckets[int((t - start) / width)] += 1
    assert min(buckets) > 0


def test_reload_metrics_survive_across_generations(reloaded_bed):
    # Aggregated snapshot covers retired + current incarnations: the
    # old generation's handshakes must not vanish from the totals.
    # (Server-side completion can lead the client's record by the
    # final flight's RTT, hence the 1-2 op slack at the run cutoff.)
    snap = reloaded_bed.server.metrics_snapshot()
    total_hs = snap["handshakes_full"] + snap["handshakes_resumed"]
    client_hs = len(reloaded_bed.metrics.handshakes)
    assert client_hs <= total_hs <= client_hs + WORKERS
    retired_hs = sum(w.metrics.handshakes_full
                     + w.metrics.handshakes_resumed
                     for w in reloaded_bed.server.retired_workers)
    assert retired_hs > 0


# -- reload validation / rollback -------------------------------------------

def test_invalid_reload_is_rejected_and_old_config_serves():
    bed = make_bed(crashed=False)
    old_config = bed.server.config

    def do_bad_reload():
        bed.reload_ok = bed.server.reload(
            make_server_config("QTLS", workers=WORKERS + 1,
                               suites=SUITES, **KNOBS))

    bed.reload_ok = None
    bed.sim.call_at(CRASH_AT, do_bad_reload)
    bed.sim.run(until=0.06)
    sup = bed.server.supervisor
    assert bed.reload_ok is False
    assert sup.reload_rejections == 1 and sup.generation == 0
    assert bed.server.config is old_config
    assert bed.metrics.errors == 0
    assert not bed.server.retired_workers


def test_reload_rejects_engine_shape_changes():
    bed = make_bed(crashed=False)
    bad = reload_config(qat_instances_per_worker=2)
    assert bed.server.reload(bad) is False
    assert bed.server.supervisor.reload_rejections == 1
    journal = bed.server.supervisor.events
    assert journal and journal[-1][1] == "reload-rejected"
    assert "qat_instances_per_worker" in journal[-1][2]


def test_plain_sighup_cycles_workers_on_same_config():
    bed = make_bed(crashed=False)
    bed.sim.call_at(CRASH_AT, lambda: bed.server.reload())
    bed.sim.run(until=UNTIL)
    sup = bed.server.supervisor
    assert sup.generation == 1
    assert bed.metrics.errors == 0
    assert sup.draining_count == 0


# -- reload x outage cross-product (via the scenario harness) ----------------

@pytest.fixture(scope="module")
def reload_during_outage():
    """Graceful reload fired while the whole card is dark: the old
    generation drains into an endpoint outage, so every drain op must
    fail over (deadline -> software fallback), not strand."""
    from repro.testing.scenario import (ActionSpec, ClientSpec,
                                        ScenarioSpec, run_scenario)
    spec = ScenarioSpec(
        seed=1021, config_name="QTLS", workers=WORKERS,
        suites=SUITES, duration=0.12, trace=True,
        overrides=dict(KNOBS),
        clients=[ClientSpec(kind="s_time", n_clients=40,
                            stagger=0.002)],
        faults={"outages": [(None, 0.025, 0.06)]},
        actions=[ActionSpec(kind="reload", at=0.03,
                            mutation={"qat_batch_size": 8})],
    )
    return run_scenario(spec)


def test_reload_during_outage_passes_all_invariants(reload_during_outage):
    from repro.testing.invariants import check_all
    assert check_all(reload_during_outage.bed) == []


def test_reload_during_outage_swaps_generation(reload_during_outage):
    bed = reload_during_outage.bed
    sup = bed.server.supervisor
    assert sup.generation == 1 and sup.reloads == 1
    assert sup.draining_count == 0
    for worker in bed.server.workers:
        assert worker.generation == 1
        assert worker.config.ssl_engine.qat_batch_size == 8


def test_reload_during_outage_fails_over_instead_of_stranding(
        reload_during_outage):
    bed = reload_during_outage.bed
    # The outage actually bit: submissions were rejected and drain ops
    # had to be rescued off the dead card.
    assert bed.fault_plan.submits_rejected > 0
    retired = bed.server.retired_workers
    assert len(retired) == WORKERS
    rescued = sum(w.engine.op_timeouts + w.engine.ops_fallback
                  + w.engine.submit_rejections for w in retired)
    assert rescued > 0
    # ...and nothing stayed behind: every old-generation op retired.
    for w in retired:
        assert w.engine.inflight.total == 0
    pool = bed.server.instance_pool
    assert pool.dead_epoch_inflight() == 0
    assert pool.retired_inbox_entries() == 0


def test_service_recovers_after_outage_and_reload(reload_during_outage):
    bed = reload_during_outage.bed
    # Handshakes complete after the outage window ends at t=0.06 —
    # the new generation is live and the card is back.
    post = [t for t, _, _ in bed.metrics.handshakes if t > 0.07]
    assert post, "no handshakes completed after recovery"
