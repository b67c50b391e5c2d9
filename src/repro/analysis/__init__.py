"""AST-based static analysis for the simulation tree (DESIGN.md §13).

The repo's correctness story rests on cross-layer invariants — replay
determinism, simulation purity, the package import DAG, span
discipline, conf-directive documentation —
that the dynamic fuzz harness (:mod:`repro.testing`) only probes one
seed at a time. This package encodes those rules as *static* checkers
over the :mod:`ast` of every file in ``src/``, so a violating pattern
is rejected in seconds on every push instead of waiting for a fuzz
seed to trip it.

Architecture:

- :mod:`repro.analysis.core` — the framework: :class:`Finding`,
  :class:`SourceFile` (one parse per file), :class:`AnalysisContext`,
  the :class:`Checker` registry, inline suppression comments and the
  checked-in baseline for grandfathered findings.
- one module per checker, each registering itself on import:
  :mod:`~repro.analysis.determinism` (RA1xx),
  :mod:`~repro.analysis.purity` (RA2xx),
  :mod:`~repro.analysis.layering` (RA3xx),
  :mod:`~repro.analysis.spans` (RA4xx),
  :mod:`~repro.analysis.confdoc` (RA5xx).
- ``tools/analyze.py`` — the CLI (``--ci``, ``--baseline-write``,
  ``--select``/``--ignore``, ``--inject-violation``).

Stdlib only: the analysis must run in the bare lint job, before any
dependency install.
"""

from .core import (AnalysisContext, Baseline, Checker, Finding,
                   SourceFile, all_codes, checker_registry,
                   register_checker, run_analysis)

# Importing a checker module registers it; the import order below is
# the report order for same-line findings.
from . import determinism   # noqa: F401  (import-for-registration)
from . import purity        # noqa: F401
from . import layering      # noqa: F401
from . import spans         # noqa: F401
from . import confdoc       # noqa: F401

__all__ = ["AnalysisContext", "Baseline", "Checker", "Finding",
           "SourceFile", "all_codes", "checker_registry",
           "register_checker", "run_analysis"]
