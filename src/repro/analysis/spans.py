"""Span-discipline checker (RA4xx): no leaked OpTrace spans.

The tracing layer's core well-formedness invariant (DESIGN.md §6,
enforced dynamically by ``tests/obs``) is *exactly one close per op*:
every trace opened via ``RequestTracer.begin(...)`` (or a raw
``OpTrace(...)`` construction) is eventually closed by ``finish`` /
``abort_open``, with clear ownership in between. The dynamic tests
only see traces on paths a seed actually exercises; this checker
reasons about the source instead.

The rule, per function body: a name bound to a freshly opened trace
must do one of

- get **closed** here — passed to a ``finish(...)`` /
  ``abort_open(...)`` / ``close(...)`` call;
- get its **ownership transferred** visibly — stored on an object
  (``job.trace = ...`` or any attribute/subscript/container store),
  returned, yielded, or passed as an argument to any call (the callee
  is then the owner);
- and a trace opened as a bare expression statement (result
  discarded) is always a leak.

This is a *liveness of ownership* check, not full path-sensitive
escape analysis: a function that closes on one branch and silently
drops the trace on another will still pass if the close is reachable
textually. That trade keeps the checker exact enough to have zero
false positives on the live tree while catching the real bug class —
opening a span and forgetting it entirely (exactly what the fuzz
invariant `span well-formedness` can only catch per-seed).

Code: **RA401** — trace opened but neither closed nor transferred.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from .core import (AnalysisContext, Checker, Finding, SourceFile,
                   register_checker)

__all__ = ["SpanChecker"]

#: Attribute calls that open a trace (value is the new span's owner).
_OPENERS = {"begin"}
#: Names whose direct construction opens a span.
_SPAN_TYPES = {"OpTrace"}
#: Attribute calls that close a trace passed as their first argument.
_CLOSERS = {"finish", "abort_open", "close"}


def _opens_trace(node: ast.expr) -> Optional[ast.Call]:
    """The opening Call inside an expression, if any (handles the
    ``trace = obs.begin(...) if obs is not None else None`` idiom)."""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        fn = sub.func
        if isinstance(fn, ast.Attribute) and fn.attr in _OPENERS:
            # Require a tracer-ish receiver: obs.begin / tracer.begin /
            # self.obs.begin — not e.g. re.match().begin.
            return sub
        if isinstance(fn, ast.Name) and fn.id in _SPAN_TYPES:
            return sub
    return None


class _FunctionAudit(ast.NodeVisitor):
    """Collect, within one function body, how each opened-trace name
    is used afterwards. Nested functions get their own audit."""

    def __init__(self) -> None:
        self.closed: Set[str] = set()       # passed to a closer
        self.escaped: Set[str] = set()      # stored/returned/passed on

    def _note_escape(self, node: Optional[ast.expr], names: Set[str],
                     kind: str) -> None:
        if node is None:
            return
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in names:
                (self.closed if kind == "close"
                 else self.escaped).add(sub.id)

    def audit(self, fn: ast.AST, names: Set[str]) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                is_closer = (isinstance(node.func, ast.Attribute)
                             and node.func.attr in _CLOSERS)
                for arg in list(node.args) + [k.value
                                              for k in node.keywords]:
                    self._note_escape(
                        arg, names, "close" if is_closer else "escape")
            elif isinstance(node, ast.Return):
                self._note_escape(node.value, names, "escape")
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                self._note_escape(node.value, names, "escape")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        self._note_escape(node.value, names, "escape")
                # container displays on the RHS of a plain name
                # assignment still capture the trace:
                if any(isinstance(t, ast.Name) for t in node.targets):
                    if isinstance(node.value, (ast.Tuple, ast.List,
                                               ast.Dict, ast.Set)):
                        self._note_escape(node.value, names, "escape")


@register_checker
class SpanChecker(Checker):
    """RA401: every opened span is closed or handed off."""

    name = "span-discipline"
    codes = {
        "RA401": "OpTrace opened but never closed or transferred",
    }

    def check_file(self, src: SourceFile,
                   ctx: AnalysisContext) -> List[Finding]:
        out: List[Finding] = []
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(self._check_function(src, node))
        return out

    def _check_function(self, src: SourceFile,
                        fn: ast.AST) -> List[Finding]:
        opened = {}  # name -> lineno
        discarded = []  # (lineno,) for bare-expression opens
        own_statements = list(ast.walk(fn))
        nested = set()
        for node in own_statements:
            if node is not fn and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(ast.walk(node))
        for node in own_statements:
            if node in nested:
                continue  # nested defs audited on their own
            if isinstance(node, ast.Assign):
                call = _opens_trace(node.value)
                if call is None:
                    continue
                # Only plain-name targets need auditing; an attribute
                # target (job.trace = begin(...)) is already a visible
                # ownership transfer.
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        opened[target.id] = call.lineno
            elif isinstance(node, ast.Expr):
                call = _opens_trace(node.value)
                if call is not None and call is node.value:
                    discarded.append(call.lineno)
        findings = [
            self.finding(src, lineno, "RA401",
                         "span opened and immediately discarded; bind "
                         "it and close it (or hand it to its owner)")
            for lineno in discarded]
        if opened:
            audit = _FunctionAudit()
            audit.audit(fn, set(opened))
            for name, lineno in sorted(opened.items(),
                                       key=lambda kv: kv[1]):
                if name in audit.closed or name in audit.escaped:
                    continue
                findings.append(self.finding(
                    src, lineno, "RA401",
                    f"trace bound to '{name}' is neither closed "
                    "(finish/abort_open) nor transferred (stored, "
                    "returned, or passed on) in this function"))
        return findings
