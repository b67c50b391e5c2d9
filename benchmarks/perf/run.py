"""The repository benchmark: QTLS workloads timed from outside.

Each episode (``episode.py``) runs one workload once in a fresh
interpreter; episodes run one after another, never in parallel. A run
of one workload repeats same-seed episodes for ``--seconds`` of wall
time (at least one episode), reports medians over them, and checks
that every episode passed the cross-layer invariants and simulated the
same world. With ``--trace 1`` it first runs one cProfile +
``trace=True`` episode and reports per-layer metrics instead of the
end-to-end ones.

Host times are scaled to a nominal host on which the reference loop of
``episode.calibrate`` takes ``episode.CALIB_REF_S``; the raw values are
in the detail output (README.md, "Noise").

Usage, from the repository root::

    python benchmarks/perf/run.py                      # each workload once
    python benchmarks/perf/run.py --workload hs-qtls --seed 3 --seconds 25
    python benchmarks/perf/run.py --trace 1 --out traced.json
    python benchmarks/perf/run.py --repeat 10 --seconds 25 --out base.json

Every run prints ``workload metric value unit`` lines and, last, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is non-zero when a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from episode import CALIB_REF_S, LAYERS, WORKLOADS  # no repro import

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "host_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ops_per_s": "1/s",
}

#: A p99 is reported only over at least this many window samples.
P99_MIN_SAMPLES = 1000

#: One episode may not take longer than this (seconds).
EPISODE_TIMEOUT = 170


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    base = name.removeprefix("raw_")
    if base in END_TO_END:
        return END_TO_END[base]
    for suffix, unit in (("_pct", "%"), ("_us", "us"), ("_ms", "ms"),
                         ("_s", "s"), ("_x", "x"), ("_gbps", "Gbit/s"),
                         ("_frac", "ratio"), ("_yield", "ratio"),
                         ("_rate", "ratio"), ("_per_event", "us/event"),
                         ("bytes_sent", "B"), ("mean_batch_size", "ops"),
                         ("cps", "1/s")):
        if name.endswith(suffix):
            return unit
    return "count"


def machine_info() -> dict:
    """Noise context for reviewers; never compared as a metric."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


# -- episodes ------------------------------------------------------------------

def run_episode(name: str, seed: int, smoke: bool, trace: bool) -> dict:
    """Start one episode in a fresh interpreter and return its result."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    cmd = [sys.executable, str(HERE / "episode.py"), "--workload", name,
           "--seed", str(seed), "--t0", repr(time.time())]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=EPISODE_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} episode failed "
                           f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Episodes until another one would overrun ``seconds`` (at least
    one untraced episode, after the traced one when ``trace``)."""
    started = time.perf_counter()
    traced = run_episode(name, seed, smoke, trace=True) if trace else None
    untraced: List[dict] = []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        untraced.append(run_episode(name, seed, smoke, trace=False))
        now = time.perf_counter()
        longest = max(longest, now - t0)
        if now - started + longest > seconds:
            break
    return summarize(name, seed, trace, smoke, untraced, traced)


# -- summary ---------------------------------------------------------------------

def check(untraced: List[dict], traced: Optional[dict]) -> List[str]:
    problems = []
    for ep in untraced + ([traced] if traced else []):
        kind = "traced" if ep["traced"] else "untraced"
        problems += [f"{kind} episode: {v}" for v in ep["violations"]]
    first = untraced[0]
    if any((ep["sim_digest"], ep["client_digest"])
           != (first["sim_digest"], first["client_digest"])
           for ep in untraced[1:]):
        problems.append("same-seed episodes simulated different worlds")
    if traced and traced["client_digest"] != first["client_digest"]:
        problems.append("the traced client record differs from the "
                        "untraced one")
    return problems


def simulated_detail(sim: dict) -> Dict[str, float]:
    """The paper's simulated metrics, each only where the workload
    produces it; a p99 only over enough samples."""
    out: Dict[str, float] = {}
    for prefix, rate, n in (("sim", None, sim["sim_n"]),
                            ("hs", "cps", sim["hs_n"]),
                            ("req", "goodput_gbps", sim["req_n"])):
        if n == 0:
            continue
        if rate:
            out[rate] = sim[rate]
        out[f"{prefix}_n"] = n
        out[f"{prefix}_p50_ms"] = sim[f"{prefix}_p50_ms"]
        if n >= P99_MIN_SAMPLES:
            out[f"{prefix}_p99_ms"] = sim[f"{prefix}_p99_ms"]
    out["error_rate"] = sim["error_rate"]
    return out


def layer_values(untraced: List[dict], traced: dict) -> Dict[str, float]:
    """The ``--trace 1`` metrics (per_layer in BENCHMARK.json)."""
    prof = traced["profile"]
    total = sum(prof[f"host.{layer}.self_s"] for layer in LAYERS + ("other",))
    values = {f"host.{layer}.self_pct":
              100 * prof[f"host.{layer}.self_s"] / total
              for layer in LAYERS + ("other",)}
    run_s = statistics.median(ep["nominal_run_s"] for ep in untraced)
    values["host.traced_wall_s"] = traced["nominal_run_s"]
    values["host.trace_overhead_x"] = values["host.traced_wall_s"] / run_s
    values.update({k: v for k, v in prof.items()
                   if not k.startswith(("host.", "obs.stage."))})
    values["sim.host_us_per_event"] = 1e6 * run_s / prof["sim.events"]
    values.update(untraced[0]["counters"])
    return values


def summarize(name: str, seed: int, trace: bool, smoke: bool,
              untraced: List[dict], traced: Optional[dict]) -> dict:
    first = untraced[0]
    e2e = {
        "host_ops_per_s": statistics.median(
            ep["ops"] / ep["nominal_run_s"] for ep in untraced),
        "setup_s": statistics.median(
            ep["setup_s"] * CALIB_REF_S / ep["host_calib_s"]
            for ep in untraced),
        "peak_rss_mb": statistics.median(
            ep["peak_rss_mb"] for ep in untraced),
        "sim_ops_per_s": first["sim"]["sim_ops_per_s"],
    }
    detail = simulated_detail(first["sim"])
    detail["raw_host_ops_per_s"] = statistics.median(
        ep["ops"] / ep["run_s"] for ep in untraced)
    detail["raw_setup_s"] = statistics.median(ep["setup_s"]
                                              for ep in untraced)
    if trace:
        values = layer_values(untraced, traced)
        detail.update(e2e)
        detail.update({k: v for k, v in traced["profile"].items()
                       if k.startswith(("host.", "obs.stage."))})
    else:
        values = e2e
    episodes = untraced + ([traced] if traced else [])
    problems = check(untraced, traced)
    problems += [f"{k} is not finite" for k, v in values.items()
                 if not math.isfinite(v)]
    return {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "correct": not problems, "problems": problems,
        "attempted": sum(ep["ops"] + ep["errors"] for ep in episodes),
        "failed": sum(ep["errors"] for ep in episodes),
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in values.items()},
        "detail": {k: {"value": v, "unit": unit_of(k)}
                   for k, v in detail.items()},
        "context": {
            "episodes": len(untraced),
            "host_calib_s": statistics.median(
                ep["host_calib_s"] for ep in episodes),
            "sim_digest": first["sim_digest"],
            "client_digest": first["client_digest"],
            "traced_client_digest": traced["client_digest"] if traced
            else None,
        },
    }


def print_run(run: dict) -> None:
    name = run["workload"]
    for section in ("metrics", "detail"):
        for metric, m in run[section].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    ctx = run["context"]
    print(f"{name} host_calib_s {ctx['host_calib_s']:.6g} s")
    print(f"{name} episodes {ctx['episodes']} count")
    print(f"{name} sim_digest {ctx['sim_digest']}")
    for problem in run["problems"]:
        print(f"{name} PROBLEM {problem}")
    print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="QTLS reproduction benchmark (see README.md)")
    ap.add_argument("--workload", nargs="+", choices=list(WORKLOADS),
                    default=list(WORKLOADS), dest="workloads")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="wall time to repeat episodes for (default: one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one profiled episode, per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="cut each measured window to a tenth")
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, seeds SEED..SEED+N-1")
    ap.add_argument("--out", help="write every run as JSON to this file")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.repeat < 1 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0, --repeat >= 1")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    # Terminate as an exception, so subprocess.run kills and reaps the
    # running episode.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    machine = machine_info()
    for key, value in machine.items():
        print(f"machine {key} {value}")
    runs = []
    for name in args.workloads:
        for i in range(args.repeat):
            run = run_workload(name, args.seed + i, args.seconds,
                               bool(args.trace), args.smoke)
            print_run(run)
            runs.append(run)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"machine": machine, "args": vars(args),
                       "runs": runs}, f, indent=1)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
