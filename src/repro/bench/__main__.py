"""CLI: regenerate paper tables/figures.

Usage::

    python -m repro.bench list
    python -m repro.bench run fig7a [--full] [--seed N]
    python -m repro.bench run all [--full]
"""

import argparse
import sys
import time

from .experiments import ALL_EXPERIMENTS


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
