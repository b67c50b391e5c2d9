"""The static-analysis framework: findings, files, registry.

Design (mirrors the dynamic invariant registry in
:mod:`repro.testing.invariants`, but over source text instead of a
finished simulation):

- every file under the analysis root is parsed **once** into a
  :class:`SourceFile` (AST + line table + suppression comments);
- each registered :class:`Checker` walks the files (or the whole
  project) and emits :class:`Finding`\\ s carrying a stable per-pattern
  code (``RA101``, ``RA301``, ...);
- deliberate violations opt out *inline* with a trailing
  ``# analysis: allow[RA101]`` comment on the offending line — the one
  way to excuse a finding, so every exception sits next to its code.

Everything here is stdlib-only: the analysis runs in the bare CI lint
job before any dependency install.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["Finding", "SourceFile", "AnalysisContext", "Checker",
           "register_checker", "checker_registry", "all_codes",
           "run_analysis"]

#: Inline suppression: ``# analysis: allow`` silences every code on the
#: line; ``# analysis: allow[RA101,RA3]`` silences matching prefixes.
_ALLOW_RE = re.compile(
    r"#\s*analysis:\s*allow(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str          # analysis-root-relative, '/'-separated
    line: int
    code: str          # e.g. "RA301"
    message: str
    checker: str = ""  # registering checker's name

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"


class SourceFile:
    """One parsed source file shared by every checker."""

    def __init__(self, root: Path, path: Path) -> None:
        self.path = path.relative_to(root).as_posix()
        self.text = path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self.tree = ast.parse(self.text, filename=str(path))
        #: Dotted module name relative to the root, e.g.
        #: ``repro.qat.rings`` for ``<root>/repro/qat/rings.py``.
        parts = list(path.relative_to(root).parts)
        parts[-1] = parts[-1][:-3]  # strip .py
        self.is_package = parts[-1] == "__init__"
        if self.is_package:
            parts.pop()
        self.module = ".".join(parts)

    @property
    def package(self) -> Optional[str]:
        """Second-level package (``qat`` for ``repro.qat.rings``)."""
        parts = self.module.split(".")
        return parts[1] if len(parts) > 1 and parts[0] == "repro" else None

    def suppressed(self, line: int, code: str) -> bool:
        """Is ``code`` inline-suppressed on 1-based ``line``?"""
        if not 1 <= line <= len(self.lines):
            return False
        m = _ALLOW_RE.search(self.lines[line - 1])
        if m is None:
            return False
        if m.group("codes") is None:
            return True
        prefixes = [c.strip() for c in m.group("codes").split(",")]
        return any(code.startswith(p) for p in prefixes if p)


class AnalysisContext:
    """Everything a checker may consult: the parsed files plus the
    project documents some checkers cross-reference (README)."""

    def __init__(self, root: Path, files: Sequence[SourceFile],
                 readme_path: Optional[Path] = None) -> None:
        self.root = Path(root)
        self.files = list(files)
        self._readme_path = readme_path
        self._readme_text: Optional[str] = None

    @classmethod
    def from_paths(cls, root: Path, paths: Optional[Iterable[Path]] = None,
                   readme_path: Optional[Path] = None) -> "AnalysisContext":
        root = Path(root)
        files = []
        targets = list(paths) if paths else [root]
        seen = set()
        for target in targets:
            target = Path(target)
            candidates = (sorted(target.rglob("*.py"))
                          if target.is_dir() else [target])
            for p in candidates:
                if "__pycache__" in p.parts or p in seen:
                    continue
                seen.add(p)
                files.append(SourceFile(root, p))
        return cls(root, files, readme_path=readme_path)

    @property
    def readme_text(self) -> str:
        """README contents ('' when absent — checkers that need it
        emit a finding rather than crash)."""
        if self._readme_text is None:
            p = self._readme_path
            self._readme_text = (p.read_text(encoding="utf-8")
                                 if p is not None and p.exists() else "")
        return self._readme_text

    def file_by_suffix(self, suffix: str) -> Optional[SourceFile]:
        """The file whose root-relative path ends with ``suffix``."""
        for f in self.files:
            if f.path.endswith(suffix):
                return f
        return None


class Checker:
    """One registered analysis pass.

    Subclasses set :attr:`name`, :attr:`codes` (``code -> one-line
    description``) and implement either :meth:`check_file` (called per
    file) or :meth:`check_project` (called once with the context), or
    both. Emitted findings are filtered against inline suppressions
    by the framework — checkers just report.
    """

    name = "checker"
    codes: Dict[str, str] = {}

    def check_file(self, src: SourceFile,
                   ctx: AnalysisContext) -> List[Finding]:
        return []

    def check_project(self, ctx: AnalysisContext) -> List[Finding]:
        return []

    def finding(self, src: Optional[SourceFile], line: int, code: str,
                message: str, path: Optional[str] = None) -> Finding:
        assert code in self.codes, f"{self.name} emitted unknown {code}"
        return Finding(path=path if path is not None else src.path,
                       line=line, code=code, message=message,
                       checker=self.name)


_REGISTRY: Dict[str, Checker] = {}


def register_checker(cls):
    """Class decorator: instantiate and register one checker."""
    inst = cls()
    if inst.name in _REGISTRY:
        raise ValueError(f"duplicate checker {inst.name!r}")
    for code in inst.codes:
        for other in _REGISTRY.values():
            if code in other.codes:
                raise ValueError(
                    f"code {code} claimed by both {other.name!r} "
                    f"and {inst.name!r}")
    _REGISTRY[inst.name] = inst
    return cls


def checker_registry() -> Dict[str, Checker]:
    return dict(_REGISTRY)


def all_codes() -> Dict[str, str]:
    """``code -> description`` over every registered checker."""
    out: Dict[str, str] = {}
    for checker in _REGISTRY.values():
        out.update(checker.codes)
    return out


@dataclass
class AnalysisResult:
    """Everything one run produced, pre-partitioned for reporting."""

    findings: List[Finding] = field(default_factory=list)   # actionable
    suppressed: int = 0          # inline-silenced
    files: int = 0
    checkers: int = 0


def _selected(code: str, checker_name: str,
              select: Optional[Sequence[str]],
              ignore: Optional[Sequence[str]]) -> bool:
    """A ``select``/``ignore`` entry matches a code prefix (``RA1``,
    ``RA301``) or a checker name (``layering``)."""
    if select and not any(code.startswith(s) or s == checker_name
                          for s in select):
        return False
    if ignore and any(code.startswith(s) or s == checker_name
                      for s in ignore):
        return False
    return True


def run_analysis(ctx: AnalysisContext,
                 select: Optional[Sequence[str]] = None,
                 ignore: Optional[Sequence[str]] = None) -> AnalysisResult:
    """Run every registered checker over the context.

    ``select``/``ignore`` filter by code *prefix* (``RA1`` selects the
    whole determinism family) or checker name. Findings surviving the
    filters are checked against inline suppressions; the remainder is
    the actionable report, sorted by location for deterministic output.
    """
    result = AnalysisResult(files=len(ctx.files))
    raw: List[Finding] = []
    for checker in _REGISTRY.values():
        if not any(_selected(c, checker.name, select, ignore)
                   for c in checker.codes):
            continue
        result.checkers += 1
        found = list(checker.check_project(ctx))
        for src in ctx.files:
            found.extend(checker.check_file(src, ctx))
        raw.extend(f for f in found
                   if _selected(f.code, checker.name, select, ignore))
    srcs = {f.path: f for f in ctx.files}
    for f in sorted(raw, key=lambda f: (f.path, f.line, f.code)):
        src = srcs.get(f.path)
        if src is not None and src.suppressed(f.line, f.code):
            result.suppressed += 1
        else:
            result.findings.append(f)
    return result
