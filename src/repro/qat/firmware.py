"""Firmware counters, mirroring ``/sys/kernel/debug/qat*/fw_counters``.

The paper's artifact appendix suggests checking these after each test
to confirm requests were actually processed by the accelerator; the
bench harness does the same against this model.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from ..crypto.ops import CryptoOp

__all__ = ["FirmwareCounters"]


class FirmwareCounters:
    """Requests processed by an endpoint, by op kind and category."""

    def __init__(self) -> None:
        self.by_kind: Counter = Counter()
        self.by_category: Counter = Counter()
        self.errors = 0

    def record(self, op: CryptoOp, ok: bool = True) -> None:
        self.by_kind[op.kind.label] += 1
        self.by_category[op.category.value] += 1
        if not ok:
            self.errors += 1

    def snapshot(self) -> Dict[str, int]:
        snap = {f"kind.{k}": v for k, v in sorted(self.by_kind.items())}
        snap.update({f"cat.{k}": v
                     for k, v in sorted(self.by_category.items())})
        snap["total"] = sum(self.by_kind.values())
        snap["errors"] = self.errors
        return snap
