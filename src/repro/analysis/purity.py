"""Sim-purity checker (RA2xx): the simulation tree never touches the
real OS.

Everything in ``src/`` blocks *via the sim kernel* — simulated
sockets (:mod:`repro.net.socket_sim`), simulated epoll, simulated
threads-as-processes (:mod:`repro.sim.process`). A real
``time.sleep``, a real ``threading.Thread`` or a real ``socket``
would stall or fork the deterministic event loop and break replay
silently (the run still *works*, it just stops being a pure function
of the seed). The dynamic fuzz harness cannot catch these at all — a
real sleep just makes the test slow, not wrong — so the static gate
is the only line of defense.

Codes:

- **RA201** — import of a real-concurrency / real-IO module
  (``threading``, ``select``, ``socket``, ``subprocess``,
  ``multiprocessing``, ``asyncio``, ``signal``, ``_thread``): the sim
  kernel owns all blocking and parallelism.
- **RA202** — blocking call into the host OS: ``time.sleep`` (and
  ``os.wait``/``os.system``), however it is imported
  (``from time import sleep`` is the same call); simulated delay is
  ``yield sim.timeout(dt)``.
- **RA203** — ambient entropy read: ``os.urandom``, ``os.getrandom``,
  the ``secrets`` module, ``uuid.uuid1``/``uuid.uuid4``,
  ``random.SystemRandom``.

Scope is the whole analysis root (``src/`` in CI) including function
bodies — a deferred ``import threading`` is just as real. Call targets
resolve through the determinism checker's import map, the one alias
resolver of the suite; a ``mod.fn()`` call whose ``mod`` is not
imported in the file is still read as module ``mod``. Opt out with
``# analysis: allow[RA201]``.
"""

from __future__ import annotations

import ast
from typing import List

from .core import (AnalysisContext, Checker, Finding, SourceFile,
                   register_checker)
from .determinism import _ImportMap

__all__ = ["PurityChecker"]

#: Modules whose import alone signals real concurrency / real IO.
_BANNED_MODULES = {
    "threading": "real threads; sim processes are repro.sim.process",
    "_thread": "real threads; sim processes are repro.sim.process",
    "multiprocessing": "real processes; workers are simulated",
    "asyncio": "a second event loop; the sim kernel owns scheduling",
    "select": "real FD polling; use repro.net.epoll_sim",
    "socket": "real sockets; use repro.net.socket_sim",
    "subprocess": "real processes outside the simulation",
    "signal": "host signal handlers perturb the event loop",
}

#: (module, function) calls that block on or mutate the host OS.
_BLOCKING_CALLS = {
    ("time", "sleep"): "real sleep stalls the event loop; simulated "
                       "delay is `yield sim.timeout(dt)`",
    ("os", "system"): "shells out of the simulation",
    ("os", "wait"): "blocks on real child processes",
}

#: (module, symbol) reads of ambient entropy.
_ENTROPY = {
    ("os", "urandom"), ("os", "getrandom"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
    ("random", "SystemRandom"),
}


@register_checker
class PurityChecker(Checker):
    """RA2xx: real threads, real blocking, real entropy."""

    name = "sim-purity"
    codes = {
        "RA201": "real-concurrency or real-IO module import",
        "RA202": "blocking call into the host OS",
        "RA203": "ambient entropy read",
    }

    def check_file(self, src: SourceFile,
                   ctx: AnalysisContext) -> List[Finding]:
        out: List[Finding] = []
        imports = _ImportMap(src.tree)
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    root = a.name.split(".")[0]
                    if root in _BANNED_MODULES:
                        out.append(self.finding(
                            src, node.lineno, "RA201",
                            f"import {a.name}: {_BANNED_MODULES[root]}"))
                    if root == "secrets":
                        out.append(self.finding(
                            src, node.lineno, "RA203",
                            "the secrets module reads OS entropy; use "
                            "seeded RNG streams"))
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                root = (node.module or "").split(".")[0]
                if root in _BANNED_MODULES:
                    out.append(self.finding(
                        src, node.lineno, "RA201",
                        f"from {node.module} import ...: "
                        f"{_BANNED_MODULES[root]}"))
                elif root == "secrets":
                    out.append(self.finding(
                        src, node.lineno, "RA203",
                        "the secrets module reads OS entropy; use "
                        "seeded RNG streams"))
                else:
                    for a in node.names:
                        if (root, a.name) in _ENTROPY:
                            out.append(self.finding(
                                src, node.lineno, "RA203",
                                f"{node.module}.{a.name} reads ambient "
                                "entropy; use seeded RNG streams"))
            elif isinstance(node, ast.Call):
                out.extend(self._check_call(src, node, imports))
        return out

    def _check_call(self, src: SourceFile, node: ast.Call,
                    imports: _ImportMap) -> List[Finding]:
        fn = node.func
        key = imports.resolve_call(fn)
        if (key is None and isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Name)):
            key = (fn.value.id, fn.attr)
        if key in _BLOCKING_CALLS:
            return [self.finding(
                src, node.lineno, "RA202",
                f"{key[0]}.{key[1]}(): {_BLOCKING_CALLS[key]}")]
        # A from-imported entropy symbol is reported at its import.
        if key in _ENTROPY and isinstance(fn, ast.Attribute):
            return [self.finding(
                src, node.lineno, "RA203",
                f"{key[0]}.{key[1]}() reads ambient entropy; use "
                "seeded RNG streams")]
        return []
