"""Streaming latency histograms.

Geometric (log-spaced) buckets give constant memory and ~3% relative
resolution across nine orders of magnitude — sub-microsecond poll
delays and multi-millisecond deadline timeouts land in the same
histogram without pre-declaring a range. Quantiles are answered from
the bucket boundaries (HdrHistogram-style), which is deterministic and
replay-stable: identical inputs produce identical summaries.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

__all__ = ["StreamingHistogram"]

#: Smallest resolvable latency (seconds): one simulated nanosecond.
_FLOOR = 1e-9
#: Ratio between consecutive bucket bounds.
_GROWTH = 1.25
_LOG_GROWTH = math.log(_GROWTH)


class StreamingHistogram:
    """Fixed-memory log-bucketed histogram of durations (seconds)."""

    __slots__ = ("_buckets", "count", "total", "min", "max", "zeros")

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        #: Zero-duration samples (e.g. a resume stage delivered and
        #: consumed in the same event) are tracked separately — they
        #: have no logarithm.
        self.zeros = 0

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative duration {value}")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < _FLOOR:
            self.zeros += 1
            return
        idx = int(math.log(value / _FLOOR) / _LOG_GROWTH)
        self._buckets[idx] = self._buckets.get(idx, 0) + 1

    def extend(self, values: Iterable[float]) -> None:
        for v in values:
            self.add(v)

    # -- summaries -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` (0-100): the upper bound of the
        bucket containing that rank (a conservative estimate)."""
        if not 0 <= q <= 100:
            raise ValueError("percentile in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = q / 100 * self.count
        seen = self.zeros
        if rank <= seen:
            return 0.0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                return _FLOOR * _GROWTH ** (idx + 1)
        return self.max

    def summary(self) -> Dict[str, float]:
        """The p50/p95/p99 digest reported per (backend, stage)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max if self.count else 0.0,
        }

    def buckets(self) -> List[Tuple[float, float, int]]:
        """``(low, high, count)`` rows for non-empty buckets, sorted."""
        return [(_FLOOR * _GROWTH ** i, _FLOOR * _GROWTH ** (i + 1), n)
                for i, n in sorted(self._buckets.items())]
