#!/usr/bin/env python
"""Run the repro.analysis static-checker suite (DESIGN.md §13).

Usage::

    python tools/analyze.py                     # report, exit 1 on findings
    python tools/analyze.py --select RA1,RA3    # determinism + layering only
    python tools/analyze.py --ignore RA501      # drop one code/family
    python tools/analyze.py --list              # checker/code catalogue
    python tools/analyze.py --inject-violation RA301
                                                # canary: patch a known-bad
                                                #   pattern into a temp copy
                                                #   and prove it is caught

Findings print as ``path:line: CODE message``. A deliberate violation
opts out inline on its own line (``# analysis: allow[RA101]``); any
finding without that mark fails the run. Stdlib only — runs before
any dependency install.
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

sys.path.insert(0, str(SRC_ROOT))

from repro.analysis import (AnalysisContext,  # noqa: E402
                            checker_registry, run_analysis)

#: ``--inject-violation`` patch table: code -> (src-relative target
#: module, snippet appended to a temp copy). Each snippet is the
#: minimal real-world spelling of the violation the code exists to
#: catch, so this doubles as executable documentation.
INJECTIONS = {
    "RA101": ("repro/sim/kernel.py",
              "from time import monotonic as _mono\n"
              "def _injected_wall_clock():\n"
              "    return _mono()\n"),
    "RA102": ("repro/sim/rng.py",
              "import numpy as _np\n"
              "def _injected_unseeded():\n"
              "    return _np.random.default_rng()\n"),
    "RA103": ("repro/offload/scheduler.py",
              "def _injected_set_iter(lanes):\n"
              "    return [l for l in set(lanes)]\n"),
    "RA104": ("repro/offload/pool.py",
              "def _injected_id_sort(leases):\n"
              "    return sorted(leases, key=lambda l: id(l))\n"),
    "RA201": ("repro/server/worker.py",
              "import threading as _injected_threading\n"),
    "RA202": ("repro/server/polling/timer_thread.py",
              "from time import sleep as _sleep\n"
              "def _injected_sleep(dt):\n"
              "    _sleep(dt)\n"),
    "RA203": ("repro/crypto/provider.py",
              "import os as _os\n"
              "def _injected_entropy():\n"
              "    return _os.urandom(16)\n"),
    "RA301": ("repro/crypto/rsa.py",
              "from ..server.config import ServerConfig  # upward import\n"),
    "RA401": ("repro/offload/engine.py",
              "def _injected_leaked_span(obs, op, sim):\n"
              "    trace = obs.begin(op, -1, -1, 'leak', sim.now)\n"
              "    return None\n"),
    "RA501": ("repro/server/conf_text.py",
              "def _injected_parse(directive, value):\n"
              "    if directive == 'qat_undocumented_knob':\n"
              "        return value\n"),
    "RA502": ("repro/server/conf_text.py",
              "def _injected_parse(directive, value):\n"
              "    if directive == 'qat_undocumented_knob':\n"
              "        return value\n"),
}


def list_catalogue() -> int:
    for name, checker in checker_registry().items():
        print(f"{name}:")
        for code, desc in sorted(checker.codes.items()):
            print(f"  {code}  {desc}")
    return 0


def inject_violation(code: str) -> int:
    """Prove checker ``code`` still has teeth: copy src/ (+ README) to
    a temp tree, patch in the known-bad pattern, re-run, and require
    the finding to appear. Exit 0 = caught, 1 = checker rot."""
    entry = INJECTIONS.get(code)
    if entry is None:
        print(f"no injection recipe for {code}; known: "
              f"{', '.join(sorted(INJECTIONS))}")
        return 2
    relpath, snippet = entry
    with tempfile.TemporaryDirectory(prefix="repro-analysis-") as tmp:
        tmp_root = Path(tmp) / "src"
        shutil.copytree(SRC_ROOT, tmp_root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(REPO_ROOT / "README.md", Path(tmp) / "README.md")
        target = tmp_root / relpath
        target.write_text(target.read_text(encoding="utf-8")
                          + "\n\n" + snippet, encoding="utf-8")
        ctx = AnalysisContext.from_paths(
            tmp_root, readme_path=Path(tmp) / "README.md")
        result = run_analysis(ctx, select=[code])
        hits = [f for f in result.findings
                if f.code == code and f.path == relpath]
        if hits:
            print(f"canary ok: {code} caught in patched copy:")
            for f in hits:
                print(f"  {f.render()}")
            return 0
        print(f"CHECKER ROT: injected {code} pattern into {relpath} "
              "but the checker missed it")
        for f in result.findings:
            print(f"  (saw) {f.render()}")
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repro.analysis static-checker suite")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files/dirs under src/ (default: all of src/)")
    parser.add_argument("--select", default=None,
                        help="comma-separated code prefixes / checker "
                        "names to run (e.g. RA1,layering)")
    parser.add_argument("--ignore", default=None,
                        help="comma-separated code prefixes / checker "
                        "names to skip")
    parser.add_argument("--list", action="store_true",
                        help="print the checker/code catalogue")
    parser.add_argument("--inject-violation", metavar="CODE",
                        help="self-check: patch a known-bad pattern "
                        "into a temp copy and assert CODE is caught")
    args = parser.parse_args(argv)

    if args.list:
        return list_catalogue()
    if args.inject_violation:
        return inject_violation(args.inject_violation.strip())

    select = ([s.strip() for s in args.select.split(",") if s.strip()]
              if args.select else None)
    ignore = ([s.strip() for s in args.ignore.split(",") if s.strip()]
              if args.ignore else None)
    ctx = AnalysisContext.from_paths(SRC_ROOT, paths=args.paths or None,
                                     readme_path=REPO_ROOT / "README.md")
    result = run_analysis(ctx, select=select, ignore=ignore)

    for f in result.findings:
        print(f.render())
    if result.findings:
        print(f"\nrepro.analysis: {len(result.findings)} finding(s) "
              f"across {result.files} file(s) "
              f"({result.suppressed} inline-suppressed)")
        print("fix them, or opt out inline with "
              "'# analysis: allow[CODE]' and a reason")
        return 1
    print(f"repro.analysis: clean — {result.files} file(s), "
          f"{result.checkers} checker(s), "
          f"{result.suppressed} inline-suppressed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
