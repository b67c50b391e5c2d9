"""One benchmark episode: build a workload's world in this (fresh)
interpreter, run it once, check it and print one JSON object.

``run.py`` starts one of these per episode with ``PYTHONPATH=src``;
run it by hand the same way::

    PYTHONPATH=src python benchmarks/perf/episode.py --workload hs-qtls --seed 7

Host time is wall time around ``sim.run`` only. The run is cut into
``SLICES`` equal spans of simulated time; after each, a fixed
pure-Python reference loop is timed, and the slice's time is scaled to
a nominal host on which that loop takes ``CALIB_REF_S``. Other tenants
slowing the whole host thus cancel out, and the reference loop never
changes with the program under test. Slicing ``sim.run`` does not
change the simulated world.

``setup_s`` runs from ``--t0`` (the parent's clock reading just before
it started this process, or this script's own start) until the world
is built, so it covers interpreter start, the ``repro`` import and the
world build. With ``--trace`` the episode also sets
``Testbed(trace=True)`` and runs ``cProfile`` around ``sim.run``; its
host times are then only comparable with other traced episodes.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import random
import re
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

_STARTED = time.time()

#: The ``src/repro`` packages self time is rolled up into; everything
#: else (stdlib, builtins, numpy) is ``other``.
LAYERS = ("sim", "cpu", "net", "crypto", "tls", "ssl", "engine", "offload",
          "qat", "server", "clients", "obs", "core", "bench")
_LAYER_RE = re.compile(r"[/\\]repro[/\\](\w+)[/\\]")

#: Offload scheduler lanes (``repro.offload.scheduler`` class names).
LANES = ("handshake-asym", "record-cipher", "prf")
LANE_COUNTERS = ("enqueued", "served", "expired", "starved")

#: Device-model stages of the QAT backend's span tree
#: (``RequestTracer.stage_summary()`` keys ``qat/<stage>``).
QAT_STAGES = ("queue", "ring", "engine-service", "poll-delay", "resume",
              "total")

#: ``sim.run`` slices, each followed by one reference-loop timing.
SLICES = 12
CALIB_ITERATIONS = 200_000
#: Reference-loop time (s) on the nominal host host times are scaled to.
CALIB_REF_S = 0.025


@dataclass(frozen=True)
class Workload:
    """One traffic mix. Times are simulated seconds; ``warmup`` to
    ``end`` is the measurement window, sized for at least 1000 completed
    operations in it. Every client is closed-loop."""

    config: str
    workers: int
    suites: Tuple[str, ...]
    warmup: float
    end: float
    s_time: int = 0
    ab: int = 0
    file_size: int = 128 * 1024
    overrides: Dict[str, object] = field(default_factory=dict)
    #: Fault plan windows as fractions of ``end``:
    #: ``(loss, (lo, hi), ((endpoint, lo, hi), ...))``. A faulted
    #: workload also gets the ``faults`` experiment's engine knobs.
    faults: Optional[tuple] = None


#: Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {
    # Fig. 7a point: the paper's headline handshake path.
    "hs-qtls": Workload(config="QTLS", workers=2, suites=("TLS-RSA",),
                        s_time=200, warmup=0.05, end=0.16),
    # Fig. 7b software baseline: offload and QAT layers stay idle.
    "hs-sw": Workload(config="SW", workers=8, suites=("ECDHE-RSA",),
                      s_time=128, warmup=0.05, end=0.35),
    # Fig. 10 shape: keepalive 128 KB responses, the record path.
    "bulk-qtls": Workload(config="QTLS", workers=2, suites=("TLS-RSA",),
                          ab=100, warmup=0.05, end=0.21),
    # Both traffic classes on one worker through the scheduler lanes,
    # batching and admission limit, under response loss and outages.
    "mixed-faults": Workload(
        config="QTLS", workers=1, suites=("TLS-RSA",), s_time=32, ab=48,
        warmup=0.05, end=0.40,
        overrides=dict(offload_sched_policy="weighted-fair",
                       offload_admission_limit=8, qat_batch_size=4),
        faults=(0.12, (0.385, 0.46), ((0, 0.23, 0.27), (1, 0.615, 0.655)))),
}


def window(wl: Workload, smoke: bool) -> Tuple[float, float]:
    """``(warmup, end)``; smoke mode keeps the warm-up and cuts the
    measured part of the window to a tenth."""
    if not smoke:
        return wl.warmup, wl.end
    return wl.warmup, wl.warmup + (wl.end - wl.warmup) / 10


def build(name: str, seed: int, smoke: bool, trace: bool):
    """The workload's :class:`~repro.bench.runner.Testbed`, fleets
    started, plus its window. ``seed`` drives everything the clients
    and faults draw at random, and the ab fleet's start spread (ab
    clients otherwise start on a fixed grid and ignore the seed)."""
    from repro.bench.experiments.faults import FAULT_OVERRIDES
    from repro.bench.runner import Testbed

    wl = WORKLOADS[name]
    warmup, end = window(wl, smoke)
    fault_plan, overrides = None, dict(wl.overrides)
    if wl.faults is not None:
        loss, (lo, hi), outages = wl.faults
        fault_plan = dict(
            response_loss=loss, response_loss_window=(lo * end, hi * end),
            outages=tuple((ep, a * end, b * end) for ep, a, b in outages))
        overrides.update(FAULT_OVERRIDES)
    bed = Testbed(wl.config, workers=wl.workers, suites=wl.suites,
                  seed=seed, fault_plan=fault_plan, trace=trace, **overrides)
    if wl.ab:
        stagger = random.Random(seed).uniform(0.01, 0.03)
        bed.add_ab_fleet(wl.ab, wl.file_size, keepalive=True,
                         stagger=stagger)
    if wl.s_time:
        bed.add_s_time_fleet(n_clients=wl.s_time)
    return bed, warmup, end


# -- simulated results ---------------------------------------------------------

def percentile_ms(sorted_s: List[float], q: float) -> float:
    """Nearest-rank percentile (the ``ClientMetrics`` convention)."""
    if not sorted_s:
        return 0.0
    idx = min(len(sorted_s) - 1, int(round(q * (len(sorted_s) - 1))))
    return sorted_s[idx] * 1e3


def client_results(bed, warmup: float, end: float) -> dict:
    """What the clients saw in the window. ``sim_*`` pool handshakes
    and HTTP responses, so every workload reports them."""
    m = bed.metrics
    hs = sorted(d for t, d, _ in m.handshakes if warmup <= t <= end)
    req = sorted(d for t, d in m.requests if warmup <= t <= end)
    ops = sorted(hs + req)
    span = end - warmup
    completed = len(m.handshakes) + len(m.requests)
    return {
        "sim_ops_per_s": len(ops) / span,
        "sim_p50_ms": percentile_ms(ops, 0.50),
        "sim_p99_ms": percentile_ms(ops, 0.99),
        "sim_n": len(ops),
        "cps": m.cps(warmup, end),
        "hs_p50_ms": percentile_ms(hs, 0.50),
        "hs_p99_ms": percentile_ms(hs, 0.99),
        "hs_n": len(hs),
        "goodput_gbps": m.throughput_bps(warmup, end) / 1e9,
        "req_p50_ms": percentile_ms(req, 0.50),
        "req_p99_ms": percentile_ms(req, 0.99),
        "req_n": len(req),
        "error_rate": m.errors / (m.errors + completed) if completed else 0.0,
    }


def layer_counters(bed, end: float) -> Dict[str, float]:
    """Simulated per-layer counters, read from public snapshots of the
    finished world (summed over every worker incarnation)."""
    from repro.testing.invariants import all_workers, iter_engines

    server = bed.server
    workers = all_workers(server)
    engines = [eng for _, eng in iter_engines(server)]
    cores = server.topology.cores
    totals = server.metrics_snapshot()
    out: Dict[str, float] = {
        "cpu.busy_frac": server.total_busy_time() / (len(cores) * end),
        "cpu.context_switches": sum(c.stats.context_switches for c in cores),
        "cpu.kernel_crossings": sum(c.stats.kernel_crossings for c in cores),
        "net.epoll_waits": sum(w.epoll.wait_calls for w in workers),
        "net.bytes_sent": totals.get("bytes_sent", 0),
        "tls.handshakes_full": totals.get("handshakes_full", 0),
        "tls.handshakes_resumed": totals.get("handshakes_resumed", 0),
    }
    for attr in ("ops_offloaded", "ops_software", "ops_fallback",
                 "op_timeouts", "submit_rejections"):
        out[f"offload.{attr}"] = sum(getattr(e, attr) for e in engines)
    batches = sum(e.batches_submitted for e in engines)
    out["offload.mean_batch_size"] = (
        sum(e.batch_ops for e in engines) / batches if batches else 0.0)
    out["offload.admission_peak"] = max(
        (e.admission_peak for e in engines), default=0)
    for lane in LANES:
        for counter in LANE_COUNTERS:
            out[f"offload.lane.{lane}.{counter}"] = sum(
                getattr(e.scheduler.lane(lane), counter) for e in engines)
    fw = (bed.device.fw_counter_totals() if bed.device is not None else {})
    out["qat.requests"] = fw.get("total", 0)
    out["qat.errors"] = fw.get("errors", 0)
    out["qat.responses_lost"] = fw.get("responses_lost", 0)
    polls = sum(w.poller.polls for w in workers if w.poller is not None)
    out["server.polls"] = polls
    out["server.poll_yield"] = (
        sum(e.responses_dispatched for e in engines) / polls if polls
        else 0.0)
    out["server.reactor_wakes"] = sum(
        s["wakes"] for w in workers for s in w.reactor.snapshot().values())
    out["server.watchdog_rescues"] = sum(
        w.stub_status.watchdog_rescues for w in workers)
    return out


# -- traced run ------------------------------------------------------------------

def _counted_functions() -> Dict[str, object]:
    """Metric name -> function whose profile call count it reports.
    For generator functions cProfile counts every resumption."""
    from repro.cpu.core import Core
    from repro.crypto.hmac_impl import HmacKey
    from repro.net.pollable import wait_readable
    from repro.offload.engine import AsyncOffloadEngine as Eng
    from repro.qat.instance import CryptoInstance
    from repro.qat.rings import RingPair
    from repro.sim.events import Event
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process
    return {
        "sim.events": Simulator.step,
        "sim.event_allocs": Event.__init__,
        "sim.process_resumes": Process._resume,
        "cpu.consume_calls": Core.consume,
        "net.wait_readable_calls": wait_readable,
        "crypto.hmac_inits": HmacKey.__init__,
        "offload.submit_calls": Eng.submit_async,
        "offload.poll_calls": Eng.poll_and_dispatch,
        "offload.admit_calls": Eng.admit_queued,
        "offload.flush_calls": Eng._flush_batch,
        "qat.ring_submits": RingPair.try_submit,
        "qat.instance_polls": CryptoInstance.poll,
    }


def profile_metrics(profiler: cProfile.Profile, bed) -> Dict[str, float]:
    """Self time per layer and the call counts of hot functions."""
    profiler.create_stats()
    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    calls: Dict[tuple, int] = {}
    for (filename, line, func), (_cc, nc, tt, _ct, _callers) \
            in profiler.stats.items():
        match = _LAYER_RE.search(filename)
        layer = match.group(1) if match else "other"
        self_s[layer if layer in self_s else "other"] += tt
        calls[(filename, line, func)] = nc
    out = {f"host.{layer}.self_s": t for layer, t in self_s.items()}
    for name, fn in _counted_functions().items():
        code = fn.__code__
        out[name] = calls.get(
            (code.co_filename, code.co_firstlineno, code.co_name), 0)
    tracer = bed.tracer
    out["obs.spans"] = tracer.spans_closed
    summary = tracer.stage_summary()
    for stage in QAT_STAGES:
        p99 = summary.get(f"qat/{stage}", {}).get("p99", 0.0)
        out[f"obs.stage.qat.{stage}.p99_us"] = p99 * 1e6
    return out


# -- episode -----------------------------------------------------------------------

def calibrate() -> float:
    """Seconds for one pass of a fixed pure-Python loop: how fast the
    host runs right now."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(CALIB_ITERATIONS):
        acc += i * i % 7
        table[i & 1023] = acc
    return time.perf_counter() - t0


def timed_run(bed, end: float, profiler: Optional[cProfile.Profile]
              ) -> Tuple[float, float, float]:
    """Run the world to ``end`` in slices. Returns the wall time, the
    same scaled to the nominal host, and the mean reference-loop time."""
    run_s = nominal_s = 0.0
    calib: List[float] = []
    for k in range(1, SLICES + 1):
        clock = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        bed.sim.run(until=end * k / SLICES)
        if profiler is not None:
            profiler.disable()
        elapsed = time.perf_counter() - clock
        calib.append(calibrate())
        run_s += elapsed
        nominal_s += elapsed * CALIB_REF_S / calib[-1]
    return run_s, nominal_s, sum(calib) / SLICES


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_episode(name: str, seed: int, smoke: bool, trace: bool,
                t0: float) -> dict:
    from repro.testing.invariants import check_all
    from repro.testing.scenario import fingerprint

    bed, warmup, end = build(name, seed, smoke, trace)
    setup_s = time.time() - t0
    profiler = cProfile.Profile() if trace else None
    run_s, nominal_run_s, calib_s = timed_run(bed, end, profiler)

    m = bed.metrics
    return {
        "workload": name, "seed": seed, "smoke": smoke, "traced": trace,
        "setup_s": setup_s, "run_s": run_s, "nominal_run_s": nominal_run_s,
        "host_calib_s": calib_s,
        "ops": len(m.handshakes) + len(m.requests), "errors": m.errors,
        "violations": [str(v) for v in check_all(bed)],
        # The traced world also fingerprints its tracer, so traced and
        # untraced episodes are compared by client record instead.
        "sim_digest": digest(fingerprint(bed)),
        "client_digest": digest(f"{m.handshakes!r}{m.requests!r}"
                                f"{m.errors}"),
        "sim": client_results(bed, warmup, end),
        "counters": layer_counters(bed, end),
        "profile": profile_metrics(profiler, bed) if trace else {},
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--t0", type=float, default=_STARTED,
                    help="wall-clock time the parent started this process")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    result = run_episode(args.workload, args.seed, args.smoke, args.trace,
                         args.t0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
