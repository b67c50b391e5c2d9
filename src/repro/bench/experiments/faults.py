"""Fault injection: CPS through fault -> degradation -> recovery.

Not a paper figure — a robustness experiment over the paper's testbed.
A deterministic :class:`~repro.qat.faults.FaultPlan` drops >= 10% of
QAT responses and takes endpoint 0 down for a window mid-run; the
engine's deadlines, circuit breakers and software failover must keep
every handshake completing, and CPS must recover to the fault-free
baseline once the card heals.

Timeline (``--full``, simulated seconds)::

    0.00          0.04        0.10           0.16   0.20        0.48
    |-- warmup --|-- baseline --|-- FAULTS ---|------|-- recovery --|
                                ep0 outage 0.10-0.14
                                12% response loss 0.10-0.16

Checks: zero client errors and zero connections left hanging in
TLS-ASYNC; software fallback actually exercised (fallback_ops > 0,
responses actually lost); recovery-window CPS within 5% of a fault-free
run's same window; and the faulted run replays bit-for-bit from its
seed (identical handshake record and fault event trace).
"""

from __future__ import annotations

from typing import Optional

from ..reporting import ExperimentResult
from ..runner import Testbed

__all__ = ["run"]

#: Engine knobs tightened for fault runs. The deadline must clear the
#: worst-case *legitimate* queueing at the offered load (~100 clients
#: per worker => ~3-4 ms at the card's service rate) with margin, or
#: post-outage catch-up bursts trip spurious timeouts, open the
#: breakers and the system oscillates between offload and software
#: (a metastable failure, not graceful degradation). 8 ms = ~2x worst
#: legitimate queueing while still detecting lost responses well
#: inside the outage window. The submit-retry budget is cut so that
#: rejected submissions degrade to software after ~0.4 ms instead of
#: the default ~5 ms dance.
FAULT_OVERRIDES = dict(qat_request_deadline=8e-3,
                       qat_watchdog_interval=1e-3,
                       qat_submit_max_retries=8)

#: Closed-loop fleets produce a bursty CPS signal (clients finish in
#: near-synchronized rounds ~15-20 ms apart), so recovery windows must
#: span several burst periods or the clean/faulted comparison measures
#: phase jitter instead of residual degradation: CPS swings 0.8-1.25x
#: between 60 ms windows, so both sizes measure recovery over 0.2 s or
#: more.
QUICK_TIMELINE = dict(
    warmup=0.02, baseline=(0.02, 0.04), fault=(0.04, 0.07),
    outage=(0, 0.04, 0.06), recovery=(0.09, 0.29), until=0.30)
FULL_TIMELINE = dict(
    warmup=0.04, baseline=(0.04, 0.10), fault=(0.10, 0.16),
    outage=(0, 0.10, 0.14), recovery=(0.20, 0.48), until=0.50)

RESPONSE_LOSS = 0.12


def _fault_plan_kwargs(tl: dict) -> dict:
    return dict(response_loss=RESPONSE_LOSS,
                response_loss_window=tl["fault"],
                outages=(tl["outage"],))


def _run_one(config: str, workers: int, seed: int, tl: dict,
             faulted: bool) -> Testbed:
    bed = Testbed(config, workers=workers, suites=("TLS-RSA",), seed=seed,
                  fault_plan=_fault_plan_kwargs(tl) if faulted else None,
                  **FAULT_OVERRIDES)
    bed.add_s_time_fleet()
    bed.sim.run(until=tl["until"])
    return bed


def _stuck_connections(bed: Testbed, max_age: float) -> int:
    """Connections still parked in TLS-ASYNC longer than ``max_age``
    at the end of the run (a hung handshake the degradation machinery
    failed to rescue)."""
    now = bed.sim.now
    stuck = 0
    for worker in bed.server.workers:
        for conn in worker.conns.values():
            if (conn.in_async and conn.async_since is not None
                    and now - conn.async_since > max_age):
                stuck += 1
    return stuck


def _degradation(bed: Testbed) -> dict:
    out = dict(fallback_ops=0, op_timeouts=0, watchdog_rescues=0,
               submit_failures=0)
    for worker in bed.server.workers:
        st = worker.stub_status.counters()
        for key in ("fallback_ops", "op_timeouts", "watchdog_rescues",
                    "submit_failures"):
            out[key] += st[key]
    if bed.fault_plan is not None:
        out.update({f"faults.{k}": v
                    for k, v in bed.fault_plan.counters().items()})
    return out


def run(quick: bool = True, seed: int = 7) -> ExperimentResult:
    tl = QUICK_TIMELINE if quick else FULL_TIMELINE
    workers = 1 if quick else 2
    configs = ("QTLS",) if quick else ("QTLS", "QAT+A")
    result = ExperimentResult(
        exp_id="faults",
        title="CPS through QAT fault -> degradation -> recovery "
              f"({RESPONSE_LOSS:.0%} response loss + endpoint outage)",
        columns=["config", "metric", "value"],
        notes="windows in simulated seconds; clean = fault-free run "
              "with identical seed and knobs")

    stuck_age = 2 * FAULT_OVERRIDES["qat_request_deadline"]
    repro_ref: Optional[Testbed] = None
    for config in configs:
        clean = _run_one(config, workers, seed, tl, faulted=False)
        faulted = _run_one(config, workers, seed, tl, faulted=True)
        if config == "QTLS":
            repro_ref = faulted

        b0, b1 = tl["baseline"]
        f0, f1 = tl["fault"]
        r0, r1 = tl["recovery"]
        clean_recovery = clean.metrics.cps(r0, r1)
        vals = {
            "baseline_cps": faulted.metrics.cps(b0, b1),
            "fault_cps": faulted.metrics.cps(f0, f1),
            "recovery_cps": faulted.metrics.cps(r0, r1),
            "clean_recovery_cps": clean_recovery,
            "client_errors": faulted.metrics.errors,
            "stuck_connections": _stuck_connections(faulted, stuck_age),
        }
        vals.update(_degradation(faulted))
        for metric, value in vals.items():
            result.add_row(config=config, metric=metric, value=value)

        result.add_check(
            f"{config}: zero client errors under faults", "0",
            str(vals["client_errors"]), vals["client_errors"] == 0)
        result.add_check(
            f"{config}: no connection hung in TLS-ASYNC", "0",
            str(vals["stuck_connections"]), vals["stuck_connections"] == 0)
        result.add_check(
            f"{config}: responses actually lost", "> 0",
            str(vals["faults.responses_lost"]),
            vals["faults.responses_lost"] > 0)
        result.add_check(
            f"{config}: software fallback exercised", "> 0",
            str(vals["fallback_ops"]), vals["fallback_ops"] > 0)
        ratio = (vals["recovery_cps"] / clean_recovery
                 if clean_recovery else 0.0)
        result.add_check(
            f"{config}: CPS recovers to within 5% of fault-free",
            ">= 0.95x", f"{ratio:.3f}x", ratio >= 0.95)

    # Bit-for-bit reproducibility: same seed + same plan -> identical
    # handshake record and identical fault event trace.
    assert repro_ref is not None
    replay = _run_one("QTLS", workers, seed, tl, faulted=True)
    same_hs = replay.metrics.handshakes == repro_ref.metrics.handshakes
    same_trace = (replay.fault_plan.trace()
                  == repro_ref.fault_plan.trace())
    result.add_check("faulted run replays bit-for-bit from seed",
                     "identical handshakes + fault trace",
                     f"handshakes {'==' if same_hs else '!='}, "
                     f"trace {'==' if same_trace else '!='}",
                     same_hs and same_trace)
    return result
