"""Offload backends: SW vs QTLS-QAT vs QTLS-remote, CPS + latency.

Not a paper figure — the multi-backend experiment enabled by the
offload-backend seam. The same asynchronous framework (deadlines,
breakers, batching, heuristic polling, kernel-bypass notification)
drives three backends:

- **SW** — no engine, every op on the CPU (baseline);
- **QTLS-QAT** — the on-board DH8970 model, unbatched and with
  ``qat_batch_size 8`` (coalesced ring writes amortize the doorbell);
- **QTLS-remote** — a network-attached crypto service reached over a
  25 GbE link pair, batched (one RPC per batch amortizes the per-RPC
  syscall + header).

Checks: every backend completes all handshakes with zero client
errors; batched QAT CPS >= unbatched QAT CPS at high concurrency (the
acceptance bar for submission batching); batching actually coalesces
(mean batch size > 1); and every backend replays bit-for-bit from its
seed.
"""

from __future__ import annotations

from ..reporting import ExperimentResult
from ..runner import Testbed, Windows

__all__ = ["run"]

BATCH = 8

#: Clients per worker for the offload variants. Twice the repo's
#: standard async sizing: high enough that the asym ring runs at
#: capacity, the regime submission batching targets (unbatched
#: submission churns on ring-full there; batching flow-controls
#: flushes by ``capacity_hint`` and amortizes the doorbell).
HIGH_CONCURRENCY = 200

#: (variant label, server config name, config overrides)
VARIANTS = (
    ("SW", "SW", {}),
    ("QTLS-QAT", "QTLS", {}),
    ("QTLS-QAT-batch8", "QTLS", dict(qat_batch_size=BATCH)),
    ("QTLS-remote", "QTLS", dict(offload_backend="remote",
                                 qat_batch_size=BATCH)),
)

QUICK_WINDOWS = Windows(warmup=0.1, measure=0.3)
FULL_WINDOWS = Windows(warmup=0.1, measure=0.4)


def _run_one(config: str, overrides: dict, workers: int, seed: int,
             windows: Windows) -> Testbed:
    bed = Testbed(config, workers=workers, suites=("TLS-RSA",),
                  seed=seed, **overrides)
    n = None if config == "SW" else HIGH_CONCURRENCY * workers
    bed.add_s_time_fleet(n_clients=n)
    bed.run_window(windows)
    return bed


def _mean_latency(bed: Testbed, windows: Windows) -> float:
    durations = [d for t, d, _ in bed.metrics.handshakes
                 if windows.warmup <= t < windows.end]
    return sum(durations) / len(durations) if durations else 0.0


def _stub(bed: Testbed) -> dict:
    out = dict(backend="", batches=0, batch_ops=0)
    for worker in bed.server.workers:
        st = worker.stub_status.counters()
        out["backend"] = st["backend"] or out["backend"]
        out["batches"] += st["batches_submitted"]
        out["batch_ops"] += st["batch_ops"]
    return out


def run(quick: bool = True, seed: int = 7) -> ExperimentResult:
    windows = QUICK_WINDOWS if quick else FULL_WINDOWS
    workers = 1
    result = ExperimentResult(
        exp_id="backends",
        title="offload backends: SW vs QTLS-QAT (un/batched) vs "
              "QTLS-remote",
        columns=["variant", "metric", "value"],
        notes=f"batch size {BATCH}; remote = shared crypto service "
              "behind a 25 GbE link pair; CPS/latency over the "
              "measurement window")

    beds = {}
    for label, config, overrides in VARIANTS:
        bed = _run_one(config, overrides, workers, seed, windows)
        beds[label] = bed
        stub = _stub(bed)
        mean_batch = (stub["batch_ops"] / stub["batches"]
                      if stub["batches"] else 0.0)
        vals = {
            "cps": bed.metrics.cps(windows.warmup, windows.end),
            "mean_handshake_ms": _mean_latency(bed, windows) * 1e3,
            "client_errors": bed.metrics.errors,
            "batches": stub["batches"],
            "mean_batch_size": mean_batch,
        }
        for metric, value in vals.items():
            result.add_row(variant=label, metric=metric, value=value)
        result.add_check(
            f"{label}: zero client errors", "0",
            str(vals["client_errors"]), vals["client_errors"] == 0)
        expected_backend = overrides.get(
            "offload_backend", "qat" if config != "SW" else "")
        result.add_check(
            f"{label}: stub_status reports backend "
            f"{expected_backend or 'none'}",
            expected_backend or "", stub["backend"],
            stub["backend"] == expected_backend)

    unbatched = beds["QTLS-QAT"].metrics.cps(windows.warmup, windows.end)
    batched = beds["QTLS-QAT-batch8"].metrics.cps(windows.warmup,
                                                  windows.end)
    ratio = batched / unbatched if unbatched else 0.0
    result.add_check(
        "batched QAT CPS >= unbatched at high concurrency",
        ">= 1.0x", f"{ratio:.3f}x", ratio >= 1.0)
    result.add_check(
        "batching actually coalesces (mean batch size > 1)", "> 1",
        f"{result.value(variant='QTLS-QAT-batch8', metric='mean_batch_size'):.2f}",
        result.value(variant="QTLS-QAT-batch8",
                     metric="mean_batch_size") > 1.0)
    remote_cps = beds["QTLS-remote"].metrics.cps(windows.warmup,
                                                 windows.end)
    result.add_check(
        "remote backend completes handshakes end-to-end", "> 0 CPS",
        f"{remote_cps:.0f}", remote_cps > 0)

    # Bit-for-bit reproducibility, one replay per backend flavor.
    for label in ("SW", "QTLS-QAT-batch8", "QTLS-remote"):
        config, overrides = next((c, o) for lb, c, o in VARIANTS
                                 if lb == label)
        replay = _run_one(config, overrides, workers, seed, windows)
        same = replay.metrics.handshakes == beds[label].metrics.handshakes
        result.add_check(
            f"{label}: replays bit-for-bit from seed",
            "identical handshake record", "==" if same else "!=", same)
    return result
