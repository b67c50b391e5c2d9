"""Worker lifecycle supervision: crash respawn and graceful reload.

Not a paper figure — a robustness experiment over the paper's testbed
exercising the supervision layer (``repro.server.lifecycle``):

* **crash run** — a deterministic ``worker_crash`` fault kills worker 0
  mid-run. The master must reap it, abort its in-flight offload ops,
  retire its pool-lease epoch (late QAT completions tombstone instead
  of misdelivering to the successor) and respawn on the same core; CPS
  dips while the killed worker's clients reconnect and must recover.
* **reload run** — a mid-run ``Server.reload`` swaps in a validated
  config (nginx SIGHUP): the new worker generation takes the listeners
  immediately while the old generation drains, so the handshake rate
  never touches zero and no client sees an error.
* **rollback run** — a reload with an invalid candidate (changed
  ``worker_processes``) must be rejected with the old config untouched
  and still serving.

Checks: post-respawn CPS within 10% of pre-crash; zero ops stranded in
dead epochs and every retired engine idle (nothing leaked, nothing
misrouted); reload with zero client errors and no zero-CPS bucket;
rejected reload leaves zero errors; and the crash run replays
bit-for-bit from its seed (handshake record, fault trace, lifecycle
journal and tombstone log all identical).
"""

from __future__ import annotations

from typing import List, Tuple

from ...core.configurations import make_server_config
from ..reporting import ExperimentResult
from ..runner import Testbed

__all__ = ["run"]

#: Same rationale as the faults experiment: deadlines must clear
#: legitimate post-disruption catch-up queueing, and the retry budget
#: is cut so rejected submissions degrade fast. The drain timeout is
#: the config default (50 ms): a draining generation shares each core
#: with its successor, so ~80 mid-flight handshakes x ~4 remaining ops
#: on half a core legitimately take ~35 ms to finish — a shorter
#: deadline force-aborts drains that are making steady progress.
LIFECYCLE_OVERRIDES = dict(qat_request_deadline=8e-3,
                           qat_watchdog_interval=1e-3,
                           qat_submit_max_retries=8,
                           worker_drain_timeout=50e-3)

#: Closed-loop fleets are bursty (~15-20 ms rounds), so the windows
#: span several rounds and the no-zero-CPS scan uses 5 ms buckets.
QUICK_TIMELINE = dict(warmup=0.02, pre=(0.02, 0.05), event_at=0.05,
                      dip=(0.05, 0.08), recovery=(0.09, 0.15),
                      until=0.15, bucket=5e-3)
FULL_TIMELINE = dict(warmup=0.04, pre=(0.04, 0.10), event_at=0.10,
                     dip=(0.10, 0.14), recovery=(0.16, 0.24),
                     until=0.24, bucket=5e-3)

WORKERS = 2
SUITES = ("TLS-RSA",)


def _make_bed(seed: int, quick: bool, crashed: bool) -> Testbed:
    tl = QUICK_TIMELINE if quick else FULL_TIMELINE
    plan = (dict(worker_crashes=((0, tl["event_at"]),))
            if crashed else None)
    bed = Testbed("QTLS", workers=WORKERS, suites=SUITES, seed=seed,
                  fault_plan=plan, **LIFECYCLE_OVERRIDES)
    bed.add_s_time_fleet(n_clients=60 if quick else None)
    return bed


def _cps_buckets(handshakes: List[Tuple[float, float, bool]],
                 start: float, end: float,
                 width: float) -> List[int]:
    n = max(1, int(round((end - start) / width)))
    buckets = [0] * n
    for t, _dur, _resumed in handshakes:
        if start <= t < end:
            buckets[min(n - 1, int((t - start) / width))] += 1
    return buckets


def _retired_engines_idle(bed: Testbed) -> bool:
    from ...offload.engine import AsyncOffloadEngine
    for worker in bed.server.retired_workers:
        if isinstance(worker.engine, AsyncOffloadEngine):
            if not worker.engine.idle:
                return False
    return True


def run(quick: bool = True, seed: int = 7) -> ExperimentResult:
    tl = QUICK_TIMELINE if quick else FULL_TIMELINE
    result = ExperimentResult(
        exp_id="lifecycle",
        title="Worker lifecycle: crash respawn + graceful reload "
              f"({WORKERS} workers, drain timeout "
              f"{LIFECYCLE_OVERRIDES['worker_drain_timeout'] * 1e3:.0f}"
              " ms)",
        columns=["scenario", "metric", "value"],
        notes="windows in simulated seconds; crash kills worker 0 "
              "mid-run, reload swaps a validated config under load")

    # ---- crash -> respawn -> recovery -----------------------------------
    crash = _make_bed(seed, quick, crashed=True)
    crash.sim.run(until=tl["until"])
    sup = crash.server.supervisor
    pool = crash.server.instance_pool
    p0, p1 = tl["pre"]
    d0, d1 = tl["dip"]
    r0, r1 = tl["recovery"]
    pre_cps = crash.metrics.cps(p0, p1)
    dip_cps = crash.metrics.cps(d0, d1)
    recovery_cps = crash.metrics.cps(r0, r1)
    dead_inflight = pool.dead_epoch_inflight()
    vals = {
        "pre_crash_cps": pre_cps,
        "dip_cps": dip_cps,
        "recovery_cps": recovery_cps,
        "crashes": sup.crashes,
        "respawns": sup.respawns,
        "client_errors": crash.metrics.errors,
        "engine_ops_aborted": sum(
            getattr(w.engine, "ops_aborted", 0)
            for w in crash.server.retired_workers),
        "dead_epoch_inflight": dead_inflight,
        "tombstone_drops": len(pool.tombstone_log),
        "leases_reclaimed": pool.reclaimed,
        "faults.workers_crashed": crash.fault_plan.workers_crashed,
    }
    for metric, value in vals.items():
        result.add_row(scenario="crash", metric=metric, value=value)
    result.add_check("crash: fault fired and worker respawned",
                     "crashes == respawns == 1",
                     f"crashes {sup.crashes} respawns {sup.respawns}",
                     sup.crashes == 1 and sup.respawns == 1)
    ratio = recovery_cps / pre_cps if pre_cps else 0.0
    result.add_check("crash: CPS recovers to within 10% of pre-crash",
                     ">= 0.90x", f"{ratio:.3f}x", ratio >= 0.90)
    result.add_check("crash: no completion stranded in a dead epoch",
                     "0", str(dead_inflight), dead_inflight == 0)
    result.add_check("crash: retired incarnations' engines fully idle",
                     "idle", "idle" if _retired_engines_idle(crash)
                     else "ops left", _retired_engines_idle(crash))

    # ---- graceful reload under load -------------------------------------
    reload_bed = _make_bed(seed, quick, crashed=False)

    def do_reload() -> None:
        new_cfg = make_server_config(
            "QTLS", workers=WORKERS, suites=SUITES,
            **dict(LIFECYCLE_OVERRIDES,
                   qat_heuristic_poll_asym_threshold=32))
        reload_bed.reload_ok = reload_bed.server.reload(new_cfg)

    reload_bed.reload_ok = False
    reload_bed.sim.call_at(tl["event_at"], do_reload)
    reload_bed.sim.run(until=tl["until"])
    rsup = reload_bed.server.supervisor
    buckets = _cps_buckets(reload_bed.metrics.handshakes,
                           tl["warmup"], tl["until"], tl["bucket"])
    min_bucket = min(buckets) if buckets else 0
    vals = {
        "reload_accepted": int(reload_bed.reload_ok),
        "generation": rsup.generation,
        "client_errors": reload_bed.metrics.errors,
        "min_bucket_handshakes": min_bucket,
        "forced_aborts": rsup.forced_aborts,
        "still_draining": rsup.draining_count,
        "recovery_cps": reload_bed.metrics.cps(r0, r1),
    }
    for metric, value in vals.items():
        result.add_row(scenario="reload", metric=metric, value=value)
    result.add_check("reload: accepted and generation bumped",
                     "ok, generation 1",
                     f"ok={reload_bed.reload_ok} gen={rsup.generation}",
                     reload_bed.reload_ok and rsup.generation == 1)
    result.add_check("reload: zero client errors across the swap", "0",
                     str(reload_bed.metrics.errors),
                     reload_bed.metrics.errors == 0)
    result.add_check(
        f"reload: CPS never zero (every {tl['bucket'] * 1e3:.0f} ms "
        "bucket post-warmup)", "> 0 handshakes/bucket",
        f"min {min_bucket}", min_bucket > 0)
    result.add_check("reload: old generation fully drained", "0",
                     str(rsup.draining_count), rsup.draining_count == 0)

    # ---- invalid reload -> rollback -------------------------------------
    rollback = _make_bed(seed, quick, crashed=False)

    def do_bad_reload() -> None:
        bad = make_server_config(
            "QTLS", workers=WORKERS + 1, suites=SUITES,
            **LIFECYCLE_OVERRIDES)
        rollback.reload_ok = rollback.server.reload(bad)

    rollback.reload_ok = None
    rollback.sim.call_at(tl["event_at"], do_bad_reload)
    rollback.sim.run(until=tl["until"])
    bsup = rollback.server.supervisor
    for metric, value in (("reload_accepted", int(bool(rollback.reload_ok))),
                          ("reload_rejections", bsup.reload_rejections),
                          ("client_errors", rollback.metrics.errors),
                          ("generation", bsup.generation)):
        result.add_row(scenario="rollback", metric=metric, value=value)
    result.add_check("rollback: invalid config rejected, old one serving",
                     "rejected, generation 0, 0 errors",
                     f"ok={rollback.reload_ok} gen={bsup.generation} "
                     f"errors={rollback.metrics.errors}",
                     rollback.reload_ok is False
                     and bsup.reload_rejections == 1
                     and bsup.generation == 0
                     and rollback.metrics.errors == 0)

    # ---- bit-for-bit replay ---------------------------------------------
    replay = _make_bed(seed, quick, crashed=True)
    replay.sim.run(until=tl["until"])
    same_hs = replay.metrics.handshakes == crash.metrics.handshakes
    same_trace = replay.fault_plan.trace() == crash.fault_plan.trace()
    same_journal = (replay.server.supervisor.events
                    == crash.server.supervisor.events)
    same_tombs = (replay.server.instance_pool.tombstone_log
                  == crash.server.instance_pool.tombstone_log)
    result.add_check(
        "crash run replays bit-for-bit from seed",
        "identical handshakes + fault trace + lifecycle journal "
        "+ tombstone log",
        f"handshakes {'==' if same_hs else '!='}, "
        f"trace {'==' if same_trace else '!='}, "
        f"journal {'==' if same_journal else '!='}, "
        f"tombstones {'==' if same_tombs else '!='}",
        same_hs and same_trace and same_journal and same_tombs)
    return result
