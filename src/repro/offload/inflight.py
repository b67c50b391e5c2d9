"""In-flight crypto request counters (paper section 4.3).

Collected in the offload-engine layer "for accuracy": Rasym, Rcipher
and Rprf are incremented at submission and decremented in the response
callback; their sum Rtotal is exported to the application through an
engine command and drives the heuristic polling scheme.
"""

from __future__ import annotations

from ..crypto.ops import OpCategory

__all__ = ["InflightCounters"]


class InflightCounters:
    """Per-worker counters of submitted-but-unretrieved crypto requests,
    with the lifetime accept/retire ledger they are the difference of
    (repro.testing's invariants read the ledger to prove exactly-once
    retirement)."""

    def __init__(self) -> None:
        self._counts = {cat: 0 for cat in OpCategory}
        self.accepted = 0
        self.retired = 0

    def increment(self, category: OpCategory) -> None:
        self._counts[category] += 1
        self.accepted += 1

    def decrement(self, category: OpCategory) -> None:
        if self._counts[category] <= 0:
            raise RuntimeError(f"inflight underflow for {category}")
        self._counts[category] -= 1
        self.retired += 1

    @property
    def total(self) -> int:
        """Rtotal = Rasym + Rcipher + Rprf: the poller reads it after
        every handler."""
        return self.accepted - self.retired

    @property
    def asym(self) -> int:
        return self._counts[OpCategory.ASYM]
