"""Compare benchmark result files written by ``run.py --out``.

    python benchmarks/perf/compare.py BASE.json CHANGE.json [CHANGE2.json ...]

``BASE`` is the parent commit's file, each ``CHANGE`` a candidate's.
A file whose runs are grouped under ``"sets"`` (like
``baseline/seed.json``) contributes every set.

Every judgement is made on same-seed pairs, so the variation between
seeds never counts as noise or as change. For every (metric, workload)
pair it prints one row: each side's median and quartiles, ``delta``
(the median over seeds of the change's relative change against the
base on the same seed, each side taken as the median of its runs on
that seed), ``spread`` (the base's interquartile range between
same-seed runs, as a share; when the base ran each seed once, the
interquartile range of the same-seed changes instead), the share of
seeds the change won (ties count for neither side), the bound and a
verdict:

- ``unresolved``: the spread is wider than the bound;
- ``REGRESSED``: ``delta`` is worse than the bound;
- ``improved``: the change won at least 9 in 10 seeds and ``delta`` is
  better than the spread;
- ``ok`` otherwise.

Host metrics take their bound from ``BENCHMARK.json``. The paper's
simulated metrics are deterministic per seed, so they are held to
``SIMULATED``'s 1% (``error_rate`` may not rise at all). Per-layer
metrics get no verdict.

It also reports, per workload, whether same-seed runs simulated the
same world (``sim_digest``). The exit code is 1 when any metric
regressed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: The paper's simulated metrics: metric -> (better, bound). They are
#: deterministic per seed, so same-seed pairs compare them exactly.
#: ``BENCHMARK.json`` bounds ``sim_ops_per_s`` more loosely because the
#: medians it is checked on there are pooled over different seeds.
SIMULATED = {
    "sim_ops_per_s": ("higher", 0.01),
    "cps": ("higher", 0.01),
    "goodput_gbps": ("higher", 0.01),
    "hs_p50_ms": ("lower", 0.01),
    "hs_p99_ms": ("lower", 0.01),
    "req_p50_ms": ("lower", 0.01),
    "req_p99_ms": ("lower", 0.01),
    "sim_p50_ms": ("lower", 0.01),
    "sim_p99_ms": ("lower", 0.01),
    "error_rate": ("lower", 0.0),
}

#: (workload, trace, seed) -> runs in file order.
Runs = Dict[Tuple[str, int, int], List[dict]]


def load_runs(path: str) -> Runs:
    doc = json.loads(Path(path).read_text())
    docs = list(doc["sets"].values()) if "sets" in doc else [doc]
    runs: Runs = defaultdict(list)
    for d in docs:
        for run in d["runs"]:
            runs[(run["workload"], run["trace"], run["seed"])].append(run)
    return runs


def load_bounds() -> Dict[str, Tuple[str, Optional[float]]]:
    """metric -> (better, bound or None)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], None) for m in spec["per_layer"]}
    out.update({m["name"]: (m["better"], m["bound"])
                for m in spec["end_to_end"]})
    out.update(SIMULATED)
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: List[float]) -> float:
    q1, _, q3 = quartiles(values)
    return q3 - q1


def relative(value: float, ref: float) -> float:
    """``value / ref - 1``; any move away from a zero ``ref`` is
    infinite."""
    if ref:
        return value / ref - 1
    return 0.0 if value == ref else math.copysign(math.inf, value)


def verdict(deltas: List[float], noise: float, won: float, sign: int,
            bound: float) -> str:
    """``sign`` is +1 when higher is better, -1 when lower is."""
    gain = sign * statistics.median(deltas)
    if noise > bound:
        return "unresolved"
    if gain < -bound:
        return "REGRESSED"
    if won >= 0.9 and gain > noise:
        return "improved"
    return "ok"


def metric_values(run: dict) -> Dict[str, float]:
    values = {k: m["value"] for k, m in run["metrics"].items()}
    values.update({k: m["value"] for k, m in run["detail"].items()})
    return values


def compare(base: Runs, change: Runs,
            bounds: Dict[str, Tuple[str, Optional[float]]]) -> int:
    """Print the comparison table; return how many metrics regressed."""
    # (metric, where) -> seed -> side -> values
    cells: Dict[tuple, Dict[int, Dict[str, list]]] = defaultdict(
        lambda: defaultdict(lambda: {"base": [], "change": []}))
    same_world: Dict[str, List[bool]] = defaultdict(list)
    for key in sorted(base.keys() & change.keys()):
        workload, trace, seed = key
        where = workload + ("/traced" if trace else "")
        for side, runs in (("base", base[key]), ("change", change[key])):
            for run in runs:
                for metric, value in metric_values(run).items():
                    cells[(metric, where)][seed][side].append(value)
        same_world[where] += [b["context"]["sim_digest"]
                              == c["context"]["sim_digest"]
                              for b in base[key] for c in change[key]]

    header = ("metric", "workload", "base median [q1,q3]",
              "change median [q1,q3]", "delta", "spread", "won", "bound",
              "verdict")
    rows = []
    regressed = 0
    for (metric, where), by_seed in sorted(cells.items()):
        seeds = {s: v for s, v in by_seed.items() if v["base"] and v["change"]}
        if not seeds:
            continue
        b_all = [x for v in seeds.values() for x in v["base"]]
        c_all = [x for v in seeds.values() for x in v["change"]]
        b_med = {s: statistics.median(v["base"]) for s, v in seeds.items()}
        deltas = [relative(statistics.median(v["change"]), b_med[s])
                  for s, v in seeds.items()]
        repeats = [relative(x, b_med[s]) for s, v in seeds.items()
                   if len(v["base"]) > 1 for x in v["base"]]
        noise = spread(repeats or deltas)
        won, bound, v = "-", None, "-"
        if metric in bounds:  # other detail metrics carry no direction
            better, bound = bounds[metric]
            sign = 1 if better == "higher" else -1
            n_won = sum(1 for d in deltas if sign * d > 0)
            won = f"{n_won}/{len(deltas)}"
            if bound is not None:
                v = verdict(deltas, noise, n_won / len(deltas), sign, bound)
        regressed += v == "REGRESSED"
        bq, cq = quartiles(b_all), quartiles(c_all)
        rows.append((metric, where,
                     f"{bq[1]:.6g} [{bq[0]:.4g},{bq[2]:.4g}]",
                     f"{cq[1]:.6g} [{cq[0]:.4g},{cq[2]:.4g}]",
                     f"{statistics.median(deltas):+.2%}", f"{noise:.2%}",
                     won, "-" if bound is None else f"{bound:.0%}", v))
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
    for where, same in sorted(same_world.items()):
        state = ("identical" if all(same)
                 else f"CHANGED in {same.count(False)}")
        print(f"sim_digest {where}: {state} of {len(same)} same-seed pairs")
    return regressed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="compare run.py --out files (see module docstring)")
    ap.add_argument("base")
    ap.add_argument("changes", nargs="+")
    args = ap.parse_args(argv)
    bounds = load_bounds()
    base = load_runs(args.base)
    regressed = 0
    for path in args.changes:
        print(f"== {args.base} -> {path}")
        regressed += compare(base, load_runs(path), bounds)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
