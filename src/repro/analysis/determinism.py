"""Determinism checker (RA1xx): no ambient entropy in the sim tree.

Every experiment replays bit-for-bit from its seed (DESIGN.md §2), so
``src/`` must never read wall clocks, process-seeded RNGs or
address-space-dependent values. The retired regex lint matched four
literal spellings; this checker resolves *import aliases* through
the AST — ``from time import monotonic as mono`` is the same leak as
``time.monotonic()`` — and adds the ordering leaks the regex could
never see: iterating an unordered ``set`` into an ordering-sensitive
sink, and ``id()`` used as a sort key or hash input (CPython heap
addresses vary run to run).

Codes:

- **RA101** — wall-clock read: ``time.time/monotonic/perf_counter``
  (and their ``_ns`` twins), argless ``datetime.now()`` /
  ``datetime.today()``, ``datetime.utcnow()``.
- **RA102** — nondeterministically seeded RNG: module-level
  ``random.*`` draws (the global generator is process-seeded),
  ``numpy.random.*`` module-level draws / ``seed`` (global state),
  argless ``default_rng()``; seeded ``random.Random(n)`` /
  ``default_rng(n)`` streams are fine.
- **RA103** — iteration over a ``set``/``frozenset`` display or call
  (``for x in {...}``, ``list(set(...))``): string hashes are
  per-process, so the order leaks ``PYTHONHASHSEED`` into the
  simulation. Wrap in ``sorted(...)`` instead.
- **RA104** — ``id(...)`` inside a sort key or ``hash()`` argument:
  heap addresses differ across runs. Identity *membership* tests
  (``id(x) in seen``) are fine; ordering by identity is not.

Opt out per line with ``# determinism: allowed`` (legacy mark) or
``# analysis: allow[RA101]``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from .core import (AnalysisContext, Checker, Finding, SourceFile,
                   register_checker)

__all__ = ["DeterminismChecker"]

#: time-module functions that read a host clock.
_WALL_CLOCK = {"time", "monotonic", "perf_counter", "time_ns",
               "monotonic_ns", "perf_counter_ns", "clock_gettime",
               "process_time"}

#: random-module draws that consume the process-seeded global stream.
_GLOBAL_RANDOM = {"random", "randint", "randrange", "choice", "choices",
                  "sample", "shuffle", "uniform", "gauss", "betavariate",
                  "expovariate", "normalvariate", "getrandbits",
                  "randbytes", "triangular", "seed"}

#: numpy.random module-level functions backed by the global RandomState.
_GLOBAL_NP_RANDOM = {"random", "rand", "randn", "randint", "choice",
                     "shuffle", "permutation", "uniform", "normal",
                     "seed", "random_sample", "bytes"}


class _ImportMap:
    """Aliases in one module: what does each local name refer to?"""

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> imported module path ("time", "numpy.random")
        self.modules: Dict[str, str] = {}
        #: local alias -> (module path, symbol) for from-imports
        self.symbols: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self.modules[(a.asname or a.name.split(".")[0])] = (
                        a.name if a.asname else a.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for a in node.names:
                    if node.module and a.name != "*":
                        self.symbols[a.asname or a.name] = (
                            node.module, a.name)

    def resolve_call(self, func: ast.expr
                     ) -> Optional[Tuple[str, str]]:
        """``(module path, function name)`` for a call target, chasing
        one level of aliasing; None when it isn't an imported name."""
        if isinstance(func, ast.Name):
            return self.symbols.get(func.id)
        if isinstance(func, ast.Attribute):
            base = func.value
            # mod.fn(...)
            if isinstance(base, ast.Name):
                mod = self.modules.get(base.id)
                if mod is not None:
                    return (mod, func.attr)
                sym = self.symbols.get(base.id)
                if sym is not None:  # from numpy import random as nr
                    return (f"{sym[0]}.{sym[1]}", func.attr)
            # mod.sub.fn(...)  e.g. np.random.seed
            if (isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)):
                mod = self.modules.get(base.value.id)
                if mod is not None:
                    return (f"{mod}.{base.attr}", func.attr)
        return None


def _is_set_expr(node: ast.expr, imports: _ImportMap) -> bool:
    """Does this expression produce an unordered set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            # builtin, unless shadowed by an import
            return node.func.id not in imports.symbols
    return False


def _calls_id(node: ast.expr) -> Optional[ast.Call]:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"):
            return sub
    return None


@register_checker
class DeterminismChecker(Checker):
    """RA1xx: wall clocks, global RNGs, hash-order and id() leaks."""

    name = "determinism"
    codes = {
        "RA101": "wall-clock read (use sim.now)",
        "RA102": "process-seeded / unseeded RNG (use seeded streams)",
        "RA103": "iteration over an unordered set (hash-order leak)",
        "RA104": "id() used as ordering or hash input",
    }

    def check_file(self, src: SourceFile,
                   ctx: AnalysisContext) -> List[Finding]:
        imports = _ImportMap(src.tree)
        out: List[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Call):
                out.extend(self._check_call(src, node, imports))
                out.extend(self._check_sort_key(src, node))
            elif isinstance(node, (ast.For, ast.comprehension)):
                it = node.iter
                if _is_set_expr(it, imports):
                    line = getattr(node, "lineno", it.lineno)
                    out.append(self.finding(
                        src, line, "RA103",
                        "iterating an unordered set feeds hash order "
                        "into the simulation; use sorted(...)"))
        return out

    # -- helpers -----------------------------------------------------------

    def _check_call(self, src: SourceFile, node: ast.Call,
                    imports: _ImportMap) -> List[Finding]:
        out: List[Finding] = []
        target = imports.resolve_call(node.func)
        if target is not None:
            mod, fn = target
            if mod == "time" and fn in _WALL_CLOCK:
                out.append(self.finding(
                    src, node.lineno, "RA101",
                    f"time.{fn}() reads the host clock; simulated "
                    "time is sim.now"))
            elif mod == "random" and fn in _GLOBAL_RANDOM:
                out.append(self.finding(
                    src, node.lineno, "RA102",
                    f"random.{fn}() draws from the process-seeded "
                    "global generator; use a seeded stream"))
            elif (mod in ("numpy.random", "np.random")
                    and fn in _GLOBAL_NP_RANDOM):
                out.append(self.finding(
                    src, node.lineno, "RA102",
                    f"numpy.random.{fn}() uses interpreter-global RNG "
                    "state; use default_rng(seed)"))
            elif fn == "default_rng" and not node.args and not node.keywords:
                out.append(self.finding(
                    src, node.lineno, "RA102",
                    "default_rng() without a seed draws OS entropy; "
                    "pass an explicit seed"))
            elif (fn in ("now", "today") and mod.endswith("datetime")
                    and not node.args and not node.keywords):
                out.append(self.finding(
                    src, node.lineno, "RA101",
                    f"datetime.{fn}() reads the wall clock; pass "
                    "timestamps explicitly"))
            elif fn == "utcnow" and mod.endswith("datetime"):
                out.append(self.finding(
                    src, node.lineno, "RA101",
                    "datetime.utcnow() reads the wall clock; pass "
                    "timestamps explicitly"))
        # list(set(...)) / tuple(set(...))
        if (isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and _is_set_expr(node.args[0], imports)):
            out.append(self.finding(
                src, node.lineno, "RA103",
                f"{node.func.id}(set(...)) materializes hash order; "
                "use sorted(...)"))
        # hash(... id(...) ...)
        if (isinstance(node.func, ast.Name) and node.func.id == "hash"
                and node.args and _calls_id(node.args[0]) is not None):
            out.append(self.finding(
                src, node.lineno, "RA104",
                "hash over id() depends on heap addresses"))
        return out

    def _check_sort_key(self, src: SourceFile,
                        node: ast.Call) -> List[Finding]:
        """id() inside the key= of sorted/min/max/.sort."""
        fn = node.func
        is_sort = ((isinstance(fn, ast.Name)
                    and fn.id in ("sorted", "min", "max"))
                   or (isinstance(fn, ast.Attribute) and fn.attr == "sort"))
        if not is_sort:
            return []
        for kw in node.keywords:
            if kw.arg == "key":
                bad = _calls_id(kw.value)
                if bad is not None:
                    return [self.finding(
                        src, bad.lineno, "RA104",
                        "sort key uses id(): heap addresses differ "
                        "across runs; key on a stable field instead")]
        return []
