"""Conf-directive consistency checker (RA5xx).

The conf surface (``repro.server.conf_text``) is the operator's view of
the ``ServerConfig`` fields that experiments and fuzz scenarios set
through ``make_server_config`` overrides, so an undocumented directive
is a knob nobody can discover and an unsampled one is a knob the fuzzer
never turns. This checker cross-references three sources of truth on
every push:

1. **parsed** — directives extracted from the AST of
   ``server/conf_text.py`` (every ``directive == "literal"``
   comparison in the parser);
2. **documented** — backticked names in README.md (the directive
   reference tables);
3. **exercised** — override keys the scenario generator samples
   (``ov["..."] = ...`` subscript stores in ``testing/scenario.py``),
   plus the :data:`SAMPLED_VIA` map for directives driven through
   ``ScenarioSpec`` fields, plus the explicit :data:`ALLOWLIST` for
   knobs that are deliberately not fuzzed (each with its one-line
   justification).

Codes:

- **RA501** — directive parsed but not documented in README.
- **RA502** — directive parsed but neither sampled by ``ScenarioGen``
  nor allowlisted.
- **RA503** — stale allowlist/``SAMPLED_VIA`` entry: the directive is
  no longer parsed at all (checker rot — prune the entry).

Adding a directive therefore forces: parser + README row + (sampling
or an explicit allowlist entry here). That's the same
"registry-with-teeth" idea as the dynamic invariant catalogue.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional

from .core import (AnalysisContext, Checker, Finding, SourceFile,
                   register_checker)

__all__ = ["ConfDirectiveChecker", "ALLOWLIST", "SAMPLED_VIA"]

#: Directives exercised through ScenarioSpec fields rather than the
#: overrides dict: directive -> the spec field that drives it.
SAMPLED_VIA: Dict[str, str] = {
    "worker_processes": "ScenarioSpec.workers",
    "ssl_ciphers": "ScenarioSpec.suites",
    "ssl_protocols": "ScenarioSpec.tls_version",
    "use": "ScenarioSpec.config_name (paper configuration map)",
    "qat_offload_mode": "ScenarioSpec.config_name (sync for QAT+S)",
    "ssl_asynch_notify": "ScenarioSpec.config_name (queue for QTLS)",
    "ssl_session_cache": "ClientSpec.full_ratio (abbreviated "
                         "handshakes resume through the cache)",
}

#: Deliberately un-fuzzed directives: name -> one-line justification.
ALLOWLIST: Dict[str, str] = {
    # structural / informational
    "load_module": "informational in nginx confs; parser skips it",
    "ssl_engine": "structural block name, not a knob",
    "qat_engine": "structural block name, not a knob",
    "default_algorithm": "algorithm routing is fixed by the paper's "
                         "engine config; suites already vary the mix",
    "ssl_ecdh_curve": "curve choice only scales service times; suites "
                      "cover the crypto variety",
    # paper constants: changing them would unanchor the reproduction
    "qat_heuristic_poll_asym_threshold": "paper constant (48); the "
                                         "fig9 sweep varies it instead",
    "qat_heuristic_poll_sym_threshold": "paper constant (24); the "
                                        "fig9 sweep varies it instead",
    # robustness knobs held at defaults so fault-plan draws stay
    # comparable across seeds
    "qat_submit_max_retries": "retry budget fixed; fault plans vary "
                              "the failure pattern instead",
}

#: Root-relative path suffixes of the cross-referenced sources.
_CONF_SUFFIX = "server/conf_text.py"
_SCENARIO_SUFFIX = "testing/scenario.py"

_BACKTICKED = re.compile(r"`([A-Za-z0-9_]+)`")


def _parsed_directives(src: SourceFile) -> Dict[str, int]:
    """directive -> first lineno, from ``directive == "lit"`` (and
    ``in ("a", "b")``) comparisons in the parser."""
    out: Dict[str, int] = {}

    def note(name: str, lineno: int) -> None:
        out.setdefault(name, lineno)

    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Compare):
            continue
        left = node.left
        if not (isinstance(left, ast.Name) and left.id == "directive"):
            continue
        for op, comp in zip(node.ops, node.comparators):
            if isinstance(op, ast.Eq) and isinstance(comp, ast.Constant) \
                    and isinstance(comp.value, str):
                note(comp.value, node.lineno)
            elif isinstance(op, ast.In) and isinstance(comp, ast.Tuple):
                for elt in comp.elts:
                    if (isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)):
                        note(elt.value, node.lineno)
    return out


def _sampled_override_keys(src: Optional[SourceFile]) -> set:
    """String keys stored into a subscript (``ov["key"] = ...``)
    anywhere in the scenario generator."""
    if src is None:
        return set()
    keys = set()
    for node in ast.walk(src.tree):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)):
                keys.add(target.slice.value)
    return keys


@register_checker
class ConfDirectiveChecker(Checker):
    """RA5xx: parser ⊆ README, parser ⊆ (sampled ∪ allowlist)."""

    name = "conf-directives"
    codes = {
        "RA501": "conf directive not documented in README",
        "RA502": "conf directive neither fuzz-sampled nor allowlisted",
        "RA503": "stale allowlist entry (directive no longer parsed)",
    }

    def check_project(self, ctx: AnalysisContext) -> List[Finding]:
        conf = ctx.file_by_suffix(_CONF_SUFFIX)
        if conf is None:
            return []  # tree under analysis has no conf parser
        parsed = _parsed_directives(conf)
        documented = set(_BACKTICKED.findall(ctx.readme_text))
        sampled = _sampled_override_keys(
            ctx.file_by_suffix(_SCENARIO_SUFFIX))
        out: List[Finding] = []
        for directive, lineno in sorted(parsed.items()):
            if directive not in documented:
                out.append(self.finding(
                    conf, lineno, "RA501",
                    f"directive '{directive}' is parsed here but "
                    "appears nowhere in README.md; add it to the "
                    "directive reference"))
            if (directive not in sampled
                    and directive not in SAMPLED_VIA
                    and directive not in ALLOWLIST):
                out.append(self.finding(
                    conf, lineno, "RA502",
                    f"directive '{directive}' is never sampled by "
                    "ScenarioGen; sample it or allowlist it in "
                    "repro.analysis.confdoc with a justification"))
        for directive in sorted(set(ALLOWLIST) | set(SAMPLED_VIA)):
            if directive not in parsed:
                out.append(self.finding(
                    conf, 1, "RA503",
                    f"'{directive}' is allowlisted/mapped in "
                    "repro.analysis.confdoc but no longer parsed by "
                    "conf_text.py; prune the entry"))
        return out
