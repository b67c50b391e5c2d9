"""Accelerator health tracking for the offload-engine layer.

The paper assumes a healthy card; this module adds the machinery a
production offload stack needs when the accelerator is treated as a
remote, failable service:

- :class:`PendingOp` — one entry of the engine's in-flight table,
  carrying the per-request deadline;
- :class:`CircuitBreaker` — per-lane closed → open → half-open health
  state. Repeated timeouts/corrupted responses open the breaker; while
  open, submissions skip the lane (ops degrade to the software
  engine); after a cool-down one probe request is let through, and its
  outcome closes or re-opens the breaker.

A *lane* is one independently failable submission channel of a backend
(a QAT crypto instance, a remote service connection, ...).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..tls.actions import CryptoCall

__all__ = ["PendingOp", "CircuitBreaker", "FAILURE_THRESHOLD",
           "RESET_TIMEOUT"]

#: Consecutive failures (timeouts, corrupted responses) that open a
#: lane's breaker.
FAILURE_THRESHOLD = 5

#: Cool-down before an open breaker lets one probe request through.
RESET_TIMEOUT = 10e-3


@dataclass
class PendingOp:
    """One submitted-but-unanswered request in the in-flight table."""

    call: CryptoCall
    job: Any                # the paused offload job
    lane: int               # which backend lane it was submitted to
    deadline: float


class CircuitBreaker:
    """Closed/open/half-open health state for one backend lane."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, clock: Callable[[], float]) -> None:
        self._clock = clock
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.opens = 0          # total closed/half-open -> open transitions
        self._probe_outstanding = False

    def allow(self) -> bool:
        """May a request be submitted to this lane right now?"""
        if self.state == self.CLOSED:
            return True
        now = self._clock()
        if self.state == self.OPEN:
            if now - self.opened_at < RESET_TIMEOUT:
                return False
            # Cool-down elapsed: probe the hardware.
            self.state = self.HALF_OPEN
            self._probe_outstanding = False
        # Half-open: admit a single probe at a time.
        if self._probe_outstanding:
            return False
        self._probe_outstanding = True
        return True

    def available(self) -> bool:
        """Non-mutating variant of :meth:`allow`: could a request be
        admitted now (or once the cool-down elapses this instant)?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            return self._clock() - self.opened_at >= RESET_TIMEOUT
        return not self._probe_outstanding

    def cancel_probe(self) -> None:
        """Release a probe slot claimed by :meth:`allow` when the
        request was never actually sent (e.g. the ring was full)."""
        if self.state == self.HALF_OPEN:
            self._probe_outstanding = False

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != self.CLOSED:
            self.state = self.CLOSED
        self._probe_outstanding = False

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if (self.state == self.HALF_OPEN
                or self.consecutive_failures >= FAILURE_THRESHOLD):
            if self.state != self.OPEN:
                self.opens += 1
            self.state = self.OPEN
            self.opened_at = self._clock()
            self._probe_outstanding = False

    @property
    def is_open(self) -> bool:
        return self.state == self.OPEN
