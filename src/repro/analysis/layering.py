"""Layering checker (RA3xx): enforce the package import DAG.

The reproduction is a strict layer cake (DESIGN.md §13): the sim
kernel at the bottom, hardware and protocol models above it, the
server above those, and the measurement/testing harnesses on top.
Upward imports create cycles that Python tolerates just long enough
to become load-bearing; this checker rejects them at push time.

Each ``repro.*`` package has a rank; a module may import from
packages of *strictly lower* rank only:

====  =======================================================
rank  packages
====  =======================================================
0     ``sim``
1     ``cpu``, ``net``, ``crypto``, ``obs``
2     ``core``
3     ``qat``, ``tls``
4     ``offload``
5     ``ssl``
6     ``server``
7     ``clients``
8     ``bench``
9     ``testing``, ``analysis``
====  =======================================================

Two consequences: ``crypto`` (rank 1) can
never import ``server`` (rank 6), and nothing below rank 9 imports
``bench`` — only the fuzz harness (``testing``) drives it.

Exemptions, by design:

- imports inside function/method bodies (deferred imports are the
  sanctioned cycle-breaker, e.g. ``core.configurations`` building a
  ``ServerConfig`` on demand);
- imports under ``if TYPE_CHECKING:`` (annotations never execute);
- intra-package imports.

Any other deliberate exception takes an inline
``# analysis: allow[RA301]`` on the import line.

Codes: **RA301** upward/lateral import; **RA302** package missing
from the rank table (the DAG must be total — extend it, don't guess).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .core import (AnalysisContext, Checker, Finding, SourceFile,
                   register_checker)

__all__ = ["LayeringChecker", "PACKAGE_RANKS"]

#: The import DAG, as package -> rank. Lower may never import higher
#: or equal (other than itself).
PACKAGE_RANKS: Dict[str, int] = {
    "sim": 0,
    "cpu": 1, "net": 1, "crypto": 1, "obs": 1,
    "core": 2,
    "qat": 3, "tls": 3,
    "offload": 4,
    "ssl": 5,
    "server": 6,
    "clients": 7,
    "bench": 8,
    "testing": 9, "analysis": 9,
}


def _module_imports(tree: ast.Module) -> List[Tuple[int, int, Optional[str]]]:
    """(lineno, relative level, dotted module) for every import that
    executes at module scope — including class bodies and conditional
    top-level blocks, excluding function bodies and TYPE_CHECKING
    guards."""
    out: List[Tuple[int, int, Optional[str]]] = []

    def is_type_checking(test: ast.expr) -> bool:
        for node in ast.walk(test):
            if isinstance(node, ast.Name) and node.id == "TYPE_CHECKING":
                return True
            if isinstance(node, ast.Attribute) and (
                    node.attr == "TYPE_CHECKING"):
                return True
        return False

    def visit(body) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, ast.If) and is_type_checking(node.test):
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                for a in node.names:
                    out.append((node.lineno, 0, a.name))
            elif isinstance(node, ast.ImportFrom):
                out.append((node.lineno, node.level, node.module))
            elif isinstance(node, (ast.If, ast.Try, ast.With,
                                   ast.ClassDef, ast.For, ast.While)):
                for attr in ("body", "orelse", "finalbody", "handlers"):
                    sub = getattr(node, attr, [])
                    if attr == "handlers":
                        for h in sub:
                            visit(h.body)
                    else:
                        visit(sub)

    visit(tree.body)
    return out


def _target_package(src: SourceFile, level: int,
                    module: Optional[str]) -> Optional[str]:
    """The ``repro`` subpackage an import resolves to, or None for
    external / top-level imports."""
    if level == 0:
        if module and (module == "repro" or module.startswith("repro.")):
            parts = module.split(".")
            return parts[1] if len(parts) > 1 else None
        return None
    # Relative: resolve against the importing module's own package
    # (for an __init__.py the module *is* the package).
    own = src.module.split(".")          # e.g. repro.qat.rings
    pkg = own if src.is_package else own[:-1]
    if level - 1 >= len(pkg):
        return None                      # beyond the analysis root
    base = pkg[:len(pkg) - (level - 1)]  # level=1 -> package itself
    target = base + (module.split(".") if module else [])
    if len(target) > 1 and target[0] == "repro":
        return target[1]
    return None


@register_checker
class LayeringChecker(Checker):
    """RA3xx: the package DAG, module-scope imports only."""

    name = "layering"
    codes = {
        "RA301": "upward or lateral package import (layering violation)",
        "RA302": "package missing from the layering rank table",
    }

    def check_file(self, src: SourceFile,
                   ctx: AnalysisContext) -> List[Finding]:
        own_pkg = src.package
        if own_pkg is None:
            return []
        out: List[Finding] = []
        own_rank = PACKAGE_RANKS.get(own_pkg)
        reported: Set[Tuple[int, str]] = set()
        if own_rank is None:
            return [self.finding(
                src, 1, "RA302",
                f"package 'repro.{own_pkg}' has no rank in "
                "repro.analysis.layering.PACKAGE_RANKS; add it to "
                "the DAG")]
        for lineno, level, module in _module_imports(src.tree):
            target = _target_package(src, level, module)
            if target is None or target == own_pkg:
                continue
            if (lineno, target) in reported:
                continue
            reported.add((lineno, target))
            target_rank = PACKAGE_RANKS.get(target)
            if target_rank is None:
                out.append(self.finding(
                    src, lineno, "RA302",
                    f"imported package 'repro.{target}' has no rank "
                    "in PACKAGE_RANKS; add it to the DAG"))
            elif target_rank >= own_rank:
                out.append(self.finding(
                    src, lineno, "RA301",
                    f"repro.{own_pkg} (rank {own_rank}) imports "
                    f"repro.{target} (rank {target_rank}); the DAG "
                    "allows strictly-lower ranks only — invert the "
                    "dependency or defer the import into the using "
                    "function"))
        return out
