"""CLI: regenerate paper tables/figures.

Usage::

    python -m repro.bench list
    python -m repro.bench run fig7a [--full] [--seed N]
    python -m repro.bench run all [--full]
"""

import argparse
import sys
import time

from .experiments.ablations import (run_async_impl, run_fd_sharing,
                                    run_instances_per_worker,
                                    run_interrupt_vs_polling,
                                    run_p256_montgomery, run_thresholds)
from .experiments.backends import run as run_backends
from .experiments.cycles import run as run_cycles
from .experiments.ext_tls13_resumption import run as run_ext_tls13_resumption
from .experiments.faults import run as run_faults
from .experiments.fig7 import run_fig7a, run_fig7b, run_fig7c
from .experiments.fig8 import run as run_fig8
from .experiments.fig9 import run_fig9a, run_fig9b
from .experiments.fig10 import run as run_fig10
from .experiments.fig11 import run as run_fig11
from .experiments.fig12 import run_fig12a, run_fig12b, run_fig12c
from .experiments.lifecycle import run as run_lifecycle
from .experiments.mixed import run as run_mixed
from .experiments.scaling import run as run_scaling
from .experiments.table1 import run as run_table1
from .experiments.utilization import run as run_utilization

#: Every experiment id in ``list``/``run all`` order. It lives here,
#: not in the package, so that importing :mod:`repro.bench` or one
#: experiment module loads no other experiment.
ALL_EXPERIMENTS = {
    "table1": run_table1,
    "fig7a": run_fig7a,
    "fig7b": run_fig7b,
    "fig7c": run_fig7c,
    "fig8": run_fig8,
    "fig9a": run_fig9a,
    "fig9b": run_fig9b,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12a": run_fig12a,
    "fig12b": run_fig12b,
    "fig12c": run_fig12c,
    "ablation-thresholds": run_thresholds,
    "ablation-async-impl": run_async_impl,
    "ablation-fd-sharing": run_fd_sharing,
    "ablation-p256-montgomery": run_p256_montgomery,
    "ablation-interrupts": run_interrupt_vs_polling,
    "ablation-instances": run_instances_per_worker,
    "utilization": run_utilization,
    "cycles": run_cycles,
    "ext-tls13-resumption": run_ext_tls13_resumption,
    "faults": run_faults,
    "lifecycle": run_lifecycle,
    "mixed": run_mixed,
    "backends": run_backends,
    "scaling": run_scaling,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.bench")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("list", help="list experiment ids")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment")
    runp.add_argument("--full", action="store_true",
                      help="full sweep (paper-size points; slower)")
    runp.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    if args.cmd == "list":
        for name in ALL_EXPERIMENTS:
            print(name)
        return 0

    names = (list(ALL_EXPERIMENTS) if args.experiment == "all"
             else [args.experiment])
    ok = True
    for name in names:
        try:
            fn = ALL_EXPERIMENTS[name]
        except KeyError:
            print(f"unknown experiment {name!r}; try 'list'",
                  file=sys.stderr)
            return 2
        # Wall-clock reporting only, never fed into the simulation; it
        # goes to stderr so same-seed runs print byte-identical stdout.
        t0 = time.time()  # analysis: allow[RA101]
        result = fn(quick=not args.full, seed=args.seed)
        print(result.render())
        print()
        wall = time.time() - t0  # analysis: allow[RA101]
        print(f"[{name} took {wall:.1f}s wall]", file=sys.stderr)
        ok = ok and result.all_checks_pass
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
