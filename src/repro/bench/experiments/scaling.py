"""Instance-pool scaling: allocation policy x client-load shape.

Not a paper figure — the experiment enabled by the shared QAT instance
pool (``repro.offload.pool``). Four workers, two instances each (eight
instances over the DH8970's three endpoints), RSA-4096 so the card —
not the worker cores — is the scarce resource, under two load shapes:

- **uniform** — clients spread evenly over the workers;
- **skewed** — workers 0 and 3 receive 3x the clients of workers 1
  and 2 (a weighted listener list; both hot workers' static chunks
  collide on endpoint 0).

Each shape runs under all three ``qat_instance_policy`` settings:

- **static** — the historical consecutive-chunk partition: hot
  workers saturate their own endpoints while cold workers' instances
  idle;
- **shared** — every worker submits across the whole pool (paying the
  arbitration cost), so hot workers overflow onto cold endpoints;
- **dynamic** — the rebalance tick migrates instance leases toward
  pressured workers with hysteresis.

A separate **overload** pair (one worker, 300 clients) compares
``offload_admission_limit 16`` against the unbounded baseline: without
admission control, ring-full retry storms burn the retry budget and
degrade ops to RSA-4096 *software* fallback on the worker core —
milliseconds of CPU per op — while bounded FIFO queueing keeps the
core on useful work.

Checks: under skew, ``shared`` and ``dynamic`` each beat ``static`` on
total CPS *and* per-endpoint utilization imbalance; ``dynamic``
actually migrates; admission control achieves higher CPS and lower p99
handshake latency than the unbounded overload baseline; every policy
replays bit-for-bit from its seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..reporting import ExperimentResult
from ..runner import Testbed, Windows

__all__ = ["run"]

WORKERS = 4
INSTANCES_PER_WORKER = 2
RSA_BITS = 4096
#: Closed-loop clients for the policy matrix (60 per worker).
POLICY_CLIENTS = 240
#: Weighted listener shares under skew: workers 0 and 3 take 3x the
#: clients of workers 1 and 2.
SKEW_WEIGHTS = (3, 1, 1, 3)

#: Overload pair: one worker, far more clients than the admission
#: limit, so the queue (or the retry storm) is always populated.
OVERLOAD_CLIENTS = 300
ADMISSION_LIMIT = 16

POLICIES = ("static", "shared", "dynamic")

QUICK_WINDOWS = Windows(warmup=0.03, measure=0.05)
FULL_WINDOWS = Windows(warmup=0.05, measure=0.1)
#: The overload pair measures 0.1 s in quick runs too: a shorter
#: window cuts off the unbounded baseline's p99 tail.
QUICK_OVERLOAD_WINDOWS = Windows(warmup=0.03, measure=0.1)


def _imbalance(values: List[float]) -> float:
    """Coefficient of variation (std/mean); 0 = perfectly balanced."""
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return var ** 0.5 / mean


def _endpoint_imbalance(bed: Testbed) -> float:
    """Imbalance of ops submitted across the card's endpoints (the
    utilization the pool exists to even out)."""
    per_endpoint: Dict[int, int] = {}
    for inst in bed.server.instance_pool.instances:
        key = id(inst.endpoint)
        per_endpoint[key] = per_endpoint.get(key, 0) + inst.submitted
    return _imbalance(list(per_endpoint.values()))


def _p99(bed: Testbed, windows: Windows) -> float:
    durations = sorted(d for t, d, _ in bed.metrics.handshakes
                       if windows.warmup <= t < windows.end)
    if not durations:
        return 0.0
    return durations[int(0.99 * (len(durations) - 1))]


def _run_policy(policy: str, skewed: bool, seed: int,
                windows: Windows) -> Testbed:
    bed = Testbed("QTLS", workers=WORKERS, suites=("TLS-RSA",),
                  rsa_bits=RSA_BITS, seed=seed,
                  qat_instance_policy=policy,
                  qat_instances_per_worker=INSTANCES_PER_WORKER)
    addresses: Optional[List[str]] = None
    if skewed:
        base = bed.server.addresses()
        addresses = [addr for addr, w in zip(base, SKEW_WEIGHTS)
                     for _ in range(w)]
    bed.add_s_time_fleet(n_clients=POLICY_CLIENTS, addresses=addresses)
    bed.run_window(windows)
    return bed


def _run_overload(limit: int, seed: int, windows: Windows) -> Testbed:
    overrides = dict(offload_admission_limit=limit) if limit else {}
    bed = Testbed("QTLS", workers=1, suites=("TLS-RSA",),
                  rsa_bits=RSA_BITS, seed=seed, **overrides)
    bed.add_s_time_fleet(n_clients=OVERLOAD_CLIENTS)
    bed.run_window(windows)
    return bed


def run(quick: bool = True, seed: int = 7) -> ExperimentResult:
    windows = QUICK_WINDOWS if quick else FULL_WINDOWS
    result = ExperimentResult(
        exp_id="scaling",
        title="instance-pool scaling: allocation policy x load shape "
              "+ admission control under overload",
        columns=["scenario", "policy", "metric", "value"],
        notes=f"{WORKERS} workers x {INSTANCES_PER_WORKER} instances, "
              f"RSA-{RSA_BITS}; skew weights {SKEW_WEIGHTS}; overload = "
              f"1 worker / {OVERLOAD_CLIENTS} clients, admission limit "
              f"{ADMISSION_LIMIT}")

    # -- policy matrix ----------------------------------------------------
    beds: Dict[tuple, Testbed] = {}
    for skewed in (False, True):
        scenario = "skewed" if skewed else "uniform"
        for policy in POLICIES:
            bed = _run_policy(policy, skewed, seed, windows)
            beds[(scenario, policy)] = bed
            vals = {
                "cps": bed.metrics.cps(windows.warmup, windows.end),
                "p99_handshake_ms": _p99(bed, windows) * 1e3,
                "endpoint_imbalance": _endpoint_imbalance(bed),
                "migrations": bed.server.instance_pool.migrations,
                "client_errors": bed.metrics.errors,
            }
            for metric, value in vals.items():
                result.add_row(scenario=scenario, policy=policy,
                               metric=metric, value=value)
            result.add_check(
                f"{scenario}/{policy}: zero client errors", "0",
                str(vals["client_errors"]), vals["client_errors"] == 0)

    def cps(scenario, policy):
        return result.value(scenario=scenario, policy=policy, metric="cps")

    def imb(scenario, policy):
        return result.value(scenario=scenario, policy=policy,
                            metric="endpoint_imbalance")

    # The point of the refactor: under skew, pooling beats the static
    # partition on throughput AND on endpoint utilization balance.
    for policy in ("shared", "dynamic"):
        ratio = cps("skewed", policy) / cps("skewed", "static")
        result.add_check(
            f"skewed: {policy} CPS strictly above static",
            "> 1.0x", f"{ratio:.3f}x", ratio > 1.0)
        result.add_check(
            f"skewed: {policy} endpoint imbalance below static",
            f"< {imb('skewed', 'static'):.3f}",
            f"{imb('skewed', policy):.3f}",
            imb("skewed", policy) < imb("skewed", "static"))
    migrations = result.value(scenario="skewed", policy="dynamic",
                              metric="migrations")
    result.add_check("skewed: dynamic policy actually migrates leases",
                     "> 0", str(migrations), migrations > 0)

    # -- admission control under overload ----------------------------------
    over_windows = QUICK_OVERLOAD_WINDOWS if quick else FULL_WINDOWS
    unbounded = _run_overload(0, seed, over_windows)
    bounded = _run_overload(ADMISSION_LIMIT, seed, over_windows)
    for label, bed in (("unbounded", unbounded), ("bounded", bounded)):
        vals = {
            "cps": bed.metrics.cps(over_windows.warmup, over_windows.end),
            "p99_handshake_ms": _p99(bed, over_windows) * 1e3,
            "software_fallbacks": sum(w.engine.ops_fallback
                                      for w in bed.server.workers),
            "client_errors": bed.metrics.errors,
        }
        for metric, value in vals.items():
            result.add_row(scenario="overload", policy=label,
                           metric=metric, value=value)

    def over(policy, metric):
        return result.value(scenario="overload", policy=policy,
                            metric=metric)

    result.add_check(
        "overload: admission control bounds p99 below unbounded",
        f"< {over('unbounded', 'p99_handshake_ms'):.1f} ms",
        f"{over('bounded', 'p99_handshake_ms'):.1f} ms",
        over("bounded", "p99_handshake_ms")
        < over("unbounded", "p99_handshake_ms"))
    result.add_check(
        "overload: admission control raises CPS over unbounded",
        f"> {over('unbounded', 'cps'):.0f}",
        f"{over('bounded', 'cps'):.0f}",
        over("bounded", "cps") > over("unbounded", "cps"))
    result.add_check(
        "overload: bounded queueing avoids retry-storm fallbacks",
        f"< {over('unbounded', 'software_fallbacks'):.0f}",
        f"{over('bounded', 'software_fallbacks'):.0f}",
        over("bounded", "software_fallbacks")
        < over("unbounded", "software_fallbacks"))

    # -- determinism: every policy replays bit-for-bit ----------------------
    replay_policies = ("dynamic",) if quick else POLICIES
    for policy in replay_policies:
        replay = _run_policy(policy, True, seed, windows)
        same = (replay.metrics.handshakes
                == beds[("skewed", policy)].metrics.handshakes)
        result.add_check(
            f"{policy}: replays bit-for-bit from seed",
            "identical handshake record", "==" if same else "!=", same)
    return result
