"""Figure 12: timer-based polling thread vs the heuristic scheme.

Three scenarios on the async offload framework (FD notification):
``10us`` and ``1ms`` timer intervals vs ``heuristic``. Panels:

- 12a: TLS-RSA full-handshake CPS vs workers;
- 12b: 64 KB secure-transfer throughput vs concurrent clients;
- 12c: average response time vs concurrent clients.
"""

from __future__ import annotations

from typing import Tuple

from ..reporting import ExperimentResult
from ..runner import Testbed, Windows

__all__ = ["run_fig12a", "run_fig12b", "run_fig12c", "SCENARIOS"]

QUICK = Windows(warmup=0.08, measure=0.12)
FULL = Windows(warmup=0.2, measure=0.3)

#: scenario name -> (configuration, overrides)
SCENARIOS: Tuple[Tuple[str, str, dict], ...] = (
    ("10us", "QAT+A", {"qat_timer_poll_interval": 10e-6}),
    ("1ms", "QAT+A", {"qat_timer_poll_interval": 1e-3}),
    ("heuristic", "QAT+AH", {}),
)


def _bed(scenario_cfg, overrides, workers, seed):
    return Testbed(scenario_cfg, workers=workers, suites=("TLS-RSA",),
                   seed=seed, **overrides)


def run_fig12a(quick: bool = True, seed: int = 7) -> ExperimentResult:
    windows = QUICK if quick else FULL
    worker_points = [2, 8] if quick else [2, 4, 8, 12, 16, 20, 24, 28, 32]
    result = ExperimentResult(
        exp_id="fig12a",
        title="Polling schemes: TLS-RSA full-handshake CPS vs workers",
        columns=["workers", "scenario", "value"])
    cps = {}
    for w in worker_points:
        for name, cfg, overrides in SCENARIOS:
            bed = _bed(cfg, overrides, w, seed)
            # High client load, as in the figure (2000 s_time procs).
            v = bed.measure_cps(windows)
            cps[(w, name)] = v
            result.add_row(workers=w, scenario=name, value=v)

    w = worker_points[-1]
    gap = 1 - cps[(w, "10us")] / cps[(w, "heuristic")]
    result.add_check("10us polling ~20% below heuristic (context "
                     "switches + ineffective polls)", "10-30%",
                     f"{gap * 100:.0f}%", 0.08 < gap < 0.35)
    # At full-handshake load 1ms coalesces aggressively and lands within
    # noise of the heuristic (as in the figure); the heuristic must win
    # or tie, and clearly beat the 10us interval.
    result.add_check("heuristic best or tied at scale",
                     ">= 0.97x of both timers",
                     f"h={cps[(w, 'heuristic')]:,.0f} "
                     f"10us={cps[(w, '10us')]:,.0f} "
                     f"1ms={cps[(w, '1ms')]:,.0f}",
                     cps[(w, "heuristic")] >= 0.97 * cps[(w, "10us")]
                     and cps[(w, "heuristic")] >= 0.97 * cps[(w, "1ms")])
    return result


def run_fig12b(quick: bool = True, seed: int = 7) -> ExperimentResult:
    windows = QUICK if quick else FULL
    clients_points = [16, 128] if quick \
        else [16, 32, 48, 64, 96, 128, 192, 256, 512]
    workers = 4 if quick else 8
    result = ExperimentResult(
        exp_id="fig12b",
        title=f"Polling schemes: 64KB transfer Gbps vs clients "
              f"({workers} workers)",
        columns=["clients", "scenario", "value"])
    gbps = {}
    for n in clients_points:
        for name, cfg, overrides in SCENARIOS:
            bed = _bed(cfg, overrides, workers, seed)
            v = bed.measure_throughput(Windows(0.25, windows.measure),
                                       n_clients=n,
                                       file_size=64 * 1024) / 1e9
            gbps[(n, name)] = v
            result.add_row(clients=n, scenario=name, value=v)

    lo = clients_points[0]
    ratio = gbps[(lo, "1ms")] / gbps[(lo, "heuristic")]
    result.add_check("1ms interval strangles throughput at low "
                     "concurrency", "< 0.5x of heuristic",
                     f"{ratio:.2f}x", ratio < 0.5)
    hi = clients_points[-1]
    result.add_check("heuristic best or tied at high concurrency",
                     ">= both timers",
                     f"h={gbps[(hi, 'heuristic')]:.1f} "
                     f"10us={gbps[(hi, '10us')]:.1f} "
                     f"1ms={gbps[(hi, '1ms')]:.1f} Gbps",
                     gbps[(hi, "heuristic")] >= 0.95 * gbps[(hi, "10us")]
                     and gbps[(hi, "heuristic")] >= 0.95 * gbps[(hi, "1ms")])
    return result


def run_fig12c(quick: bool = True, seed: int = 7) -> ExperimentResult:
    windows = Windows(warmup=0.1, measure=0.2) if quick \
        else Windows(warmup=0.2, measure=0.4)
    clients_points = [1, 16] if quick else [1, 2, 4, 6, 8, 12, 16, 32, 64]
    result = ExperimentResult(
        exp_id="fig12c",
        title="Polling schemes: response time (ms) vs clients (1 worker)",
        columns=["clients", "scenario", "value"])
    lat = {}
    for n in clients_points:
        for name, cfg, overrides in SCENARIOS:
            bed = _bed(cfg, overrides, 1, seed)
            v = bed.measure_latency(windows, n_clients=n) * 1e3
            lat[(n, name)] = v
            result.add_row(clients=n, scenario=name, value=v)

    result.add_check("1ms interval adds ~1ms latency at 1 client",
                     ">= +0.7ms vs heuristic",
                     f"{lat[(1, '1ms')] - lat[(1, 'heuristic')]:.2f} ms",
                     lat[(1, "1ms")] - lat[(1, "heuristic")] > 0.7)
    result.add_check("heuristic lowest latency at 1 client",
                     "heuristic = min",
                     min(("10us", "1ms", "heuristic"),
                         key=lambda s: lat[(1, s)]),
                     lat[(1, "heuristic")] <= lat[(1, "10us")]
                     and lat[(1, "heuristic")] <= lat[(1, "1ms")])
    return result
