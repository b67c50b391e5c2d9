"""The heuristic polling scheme (paper sections 3.3 and 4.3).

Integrated into the application (no independent polling thread), it
checks two constraints wherever a crypto operation may be involved or
TCactive may change:

- **efficiency**: poll when the number of inflight requests Rtotal
  reaches a threshold — 48 while asymmetric requests are in flight
  (they take much longer, so more responses can be coalesced), 24
  otherwise;
- **timeliness**: poll immediately once Rtotal equals the number of
  active TLS connections — every active connection is waiting on the
  accelerator, so the process would otherwise stall.

The Rasym/Rcipher/Rprf counters are read straight from the engine's
:class:`~repro.offload.inflight.InflightCounters` — the single source
of truth shared with the class-aware scheduler and stub_status; the
poller keeps no shadow per-category accounting.
"""

from __future__ import annotations

from typing import Generator

from ...offload.engine import AsyncOffloadEngine
from ..stub_status import StubStatus

__all__ = ["HeuristicPoller"]


class HeuristicPoller:
    """Application-integrated response retrieval."""

    def __init__(self, engine: AsyncOffloadEngine,
                 stub_status: StubStatus,
                 asym_threshold: int = 48, sym_threshold: int = 24) -> None:
        if asym_threshold < 1 or sym_threshold < 1:
            raise ValueError("thresholds must be >= 1")
        self.engine = engine
        self.stub_status = stub_status
        self.asym_threshold = asym_threshold
        self.sym_threshold = sym_threshold
        self.polls = 0
        self.efficiency_polls = 0
        self.timeliness_polls = 0

    # -- constraint checks --------------------------------------------------

    def should_poll(self) -> bool:
        r = self.engine.inflight
        total = r.total
        if total == 0:
            return False
        threshold = self.asym_threshold if r.asym > 0 else self.sym_threshold
        # Admission control caps the in-flight population: Rtotal can
        # never grow past the limit, so both constraints saturate there
        # (otherwise a limit below the threshold would never poll while
        # hundreds of connections wait in the admission queue).
        limit = self.engine.admission_limit
        if limit is not None:
            threshold = min(threshold, limit)
        if total >= threshold:
            return True
        # Ops waiting in the admission lanes (only a capped engine
        # queues): poll eagerly so freed capacity admits the next
        # policy-ordered op promptly.
        if limit is not None and self.engine.admission_queued:
            return True
        bound = self.stub_status.tls_active
        if limit is not None:
            bound = min(bound, limit)
        return total >= bound

    def check(self, owner: object) -> Generator:
        """Evaluate constraints; poll if either is met. Returns the
        jobs whose responses were dispatched (empty list otherwise).

        Called wherever a crypto op may be involved or TCactive may be
        updated — i.e. after every handler invocation.
        """
        if not self.should_poll():
            return []
        r = self.engine.inflight
        threshold = (self.asym_threshold if r.asym > 0
                     else self.sym_threshold)
        if r.total >= threshold:
            self.efficiency_polls += 1
        else:
            self.timeliness_polls += 1
            # Stall imminent: every active connection is waiting on
            # the accelerator. Push coalescing submissions out now —
            # batching them further would only idle the core.
            yield from self.engine.flush_batch(owner)
        self.polls += 1
        jobs = yield from self.engine.poll_and_dispatch(owner)
        return jobs
