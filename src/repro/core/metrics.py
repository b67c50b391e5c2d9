"""Measurement collection for the experiment harness.

Clients record events with timestamps; the harness computes windowed
statistics (CPS, Gbps, mean latency) over a measurement window that
excludes warm-up, as benchmark tools do.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

__all__ = ["ClientMetrics", "mean"]


def mean(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


class ClientMetrics:
    """Shared sink for all client processes of one experiment."""

    def __init__(self) -> None:
        # (completion_time, duration, resumed)
        self.handshakes: List[Tuple[float, float, bool]] = []
        # (completion_time, latency) per HTTP request
        self.requests: List[Tuple[float, float]] = []
        # (completion_time, payload_bytes)
        self.transfers: List[Tuple[float, int]] = []
        self.errors = 0

    # -- recording ---------------------------------------------------------

    def record_handshake(self, when: float, duration: float,
                         resumed: bool) -> None:
        self.handshakes.append((when, duration, resumed))

    def record_request(self, when: float, latency: float,
                       payload_bytes: int) -> None:
        self.requests.append((when, latency))
        self.transfers.append((when, payload_bytes))

    def record_error(self) -> None:
        self.errors += 1

    # -- windowed statistics ---------------------------------------------------

    @staticmethod
    def _window(events, start: float, end: float):
        times = [e[0] for e in events]
        lo = bisect_left(times, start)
        hi = bisect_right(times, end)
        return events[lo:hi]

    def cps(self, start: float, end: float,
            resumed: Optional[bool] = None) -> float:
        """Completed handshakes per second in [start, end]."""
        if end <= start:
            raise ValueError("empty window")
        events = self._window(self.handshakes, start, end)
        if resumed is not None:
            events = [e for e in events if e[2] == resumed]
        return len(events) / (end - start)

    def throughput_bps(self, start: float, end: float) -> float:
        """Payload bits per second delivered to clients in the window."""
        if end <= start:
            raise ValueError("empty window")
        events = self._window(self.transfers, start, end)
        return sum(e[1] for e in events) * 8 / (end - start)

    def mean_latency(self, start: float, end: float) -> float:
        """Mean request latency (seconds) over the window."""
        events = self._window(self.requests, start, end)
        return mean(e[1] for e in events)
