"""Mixed workload: record-cipher saturation vs. handshake latency
under the three offload scheduling policies.

Not a paper figure — the experiment enabled by the class-aware offload
scheduler (``repro.offload.scheduler``). One worker runs two fleets at
once:

- a **keepalive ab fleet** pulling large files, so the engine sees a
  continuous stream of record-cipher ops (eight cipher ops per 128 KB
  response, Figure 10);
- an **s_time fleet** opening fresh TLS-RSA connections, so every
  connection costs an RSA private-key op on the same engine.

``offload_admission_limit`` keeps the accelerator window bounded, so
excess ops queue in the class lanes and the arbitration policy decides
who goes next:

- **fifo** — the historical single queue: handshake asym ops wait
  behind whatever burst of cipher ops arrived first, so handshake tail
  latency tracks the cipher backlog;
- **strict-priority** — asym first, with the deficit fallback keeping
  the cipher lane alive under constant handshake pressure;
- **weighted-fair** — DRR with the default 8/2/1 weights: handshake
  ops overtake most of the cipher backlog while the cipher lane keeps
  a guaranteed share.

Checks: the admission queue really holds both classes under fifo; both
class-aware policies hold handshake p99 below fifo's; the cipher lane
is still served under strict-priority (no starvation); every policy
replays bit-for-bit from its seed.
"""

from __future__ import annotations

from typing import Dict

from ..reporting import ExperimentResult
from ..runner import Testbed, Windows

__all__ = ["run"]

WORKERS = 1
#: Keepalive ab clients x file size: a standing record-cipher backlog.
AB_CLIENTS = 48
FILE_SIZE = 128 * 1024
#: Fresh-handshake clients sharing the same worker.
HANDSHAKE_CLIENTS = 32
#: Small enough that the mixed load keeps the class lanes populated.
ADMISSION_LIMIT = 8

POLICIES = ("fifo", "strict-priority", "weighted-fair")

QUICK_WINDOWS = Windows(warmup=0.03, measure=0.05)
FULL_WINDOWS = Windows(warmup=0.05, measure=0.1)


def _p99(bed: Testbed, windows: Windows) -> float:
    durations = sorted(d for t, d, _ in bed.metrics.handshakes
                       if windows.warmup <= t < windows.end)
    if not durations:
        return 0.0
    return durations[int(0.99 * (len(durations) - 1))]


def _lane_total(bed: Testbed, lane: str, counter: str) -> int:
    return sum(getattr(w.engine.scheduler.lane(lane), counter)
               for w in bed.server.workers)


def _run_mix(policy: str, seed: int, windows: Windows) -> Testbed:
    bed = Testbed("QTLS", workers=WORKERS, suites=("TLS-RSA",),
                  seed=seed, offload_admission_limit=ADMISSION_LIMIT,
                  offload_sched_policy=policy)
    bed.add_ab_fleet(AB_CLIENTS, FILE_SIZE, keepalive=True)
    bed.add_s_time_fleet(n_clients=HANDSHAKE_CLIENTS)
    bed.run_window(windows)
    return bed


def run(quick: bool = True, seed: int = 7) -> ExperimentResult:
    windows = QUICK_WINDOWS if quick else FULL_WINDOWS
    result = ExperimentResult(
        exp_id="mixed",
        title="class-aware offload scheduling under a mixed "
              "record-cipher + handshake load",
        columns=["scenario", "policy", "metric", "value"],
        notes=f"{WORKERS} worker, TLS-RSA; {AB_CLIENTS} keepalive ab "
              f"clients x {FILE_SIZE // 1024} KB + {HANDSHAKE_CLIENTS} "
              f"s_time clients; admission limit {ADMISSION_LIMIT}")

    beds: Dict[str, Testbed] = {}
    for policy in POLICIES:
        bed = _run_mix(policy, seed, windows)
        beds[policy] = bed
        vals = {
            "cps": bed.metrics.cps(windows.warmup, windows.end),
            "p99_handshake_ms": _p99(bed, windows) * 1e3,
            "throughput_mbps":
                bed.metrics.throughput_bps(windows.warmup, windows.end)
                / 1e6,
            "asym_lane_enqueued": _lane_total(bed, "handshake-asym",
                                              "enqueued"),
            "cipher_lane_enqueued": _lane_total(bed, "record-cipher",
                                                "enqueued"),
            "cipher_lane_served": _lane_total(bed, "record-cipher",
                                              "served"),
            "cipher_lane_starved": _lane_total(bed, "record-cipher",
                                               "starved"),
            "client_errors": bed.metrics.errors,
        }
        for metric, value in vals.items():
            result.add_row(scenario="mix", policy=policy, metric=metric,
                           value=value)
        result.add_check(
            f"mix/{policy}: zero client errors", "0",
            str(vals["client_errors"]), vals["client_errors"] == 0)

    def val(policy, metric):
        return result.value(scenario="mix", policy=policy, metric=metric)

    # The contention is real: under fifo both classes actually queue.
    for lane in ("asym", "cipher"):
        enq = val("fifo", f"{lane}_lane_enqueued")
        result.add_check(
            f"mix/fifo: {lane} lane sees queued ops", "> 0", str(enq),
            enq > 0)

    # The point of the refactor: class-aware arbitration holds the
    # handshake tail down while fifo lets it track the cipher backlog.
    fifo_p99 = val("fifo", "p99_handshake_ms")
    for policy in ("strict-priority", "weighted-fair"):
        p99 = val(policy, "p99_handshake_ms")
        result.add_check(
            f"mix: {policy} handshake p99 below fifo",
            f"< {fifo_p99:.2f} ms", f"{p99:.2f} ms", p99 < fifo_p99)

    # Starvation-proofness: strict-priority still serves the cipher
    # lane (deficit fallback), and record traffic keeps flowing.
    served = val("strict-priority", "cipher_lane_served")
    result.add_check(
        "mix/strict-priority: cipher lane still served", "> 0",
        str(served), served > 0)
    tput = val("strict-priority", "throughput_mbps")
    result.add_check(
        "mix/strict-priority: record throughput not starved", "> 0 Mbps",
        f"{tput:.1f} Mbps", tput > 0)

    # -- determinism: every policy replays bit-for-bit ----------------------
    for policy in POLICIES:
        replay = _run_mix(policy, seed, windows)
        same = (replay.metrics.handshakes
                == beds[policy].metrics.handshakes)
        result.add_check(
            f"{policy}: replays bit-for-bit from seed",
            "identical handshake record", "==" if same else "!=", same)
    return result
