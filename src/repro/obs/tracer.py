"""The request-lifecycle tracer.

One :class:`RequestTracer` per simulation (attached to the kernel as
``sim.obs``), shared by every layer on the offload critical path, and
the only tracer in the tree. Tracing is on exactly when ``sim.obs`` is
set: every instrumentation site checks ``obs is not None`` first, so
an untraced run pays one attribute read per site — no allocation, no
formatting, no sim perturbation.

Profiling hooks:

- **closed traces** — every closed
  :class:`~repro.obs.context.OpTrace` is kept in :attr:`traces` (the
  Perfetto export and the span invariants read them);
- **histograms** — closed traces feed per-(backend, stage) streaming
  latency histograms (p50/p95/p99);
- **timelines** — the device model reports per-endpoint engine
  occupancy and per-instance in-flight levels; the worker publishes
  its event-loop stage counters (``w<id>.reactor.<stage>.wakes`` /
  ``.busy``) at watchdog ticks and at ``stop()``/``kill()``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .context import OpTrace
from .histogram import StreamingHistogram
from .span import SpanStatus
from .timeline import UtilizationTimeline

__all__ = ["RequestTracer"]


class RequestTracer:
    """Span-based tracing + streaming metrics for one simulation.

    Every offloaded op of a traced run gets a trace, so a traced run's
    span counts are complete."""

    def __init__(self) -> None:
        self._seq = 0
        self.spans_closed = 0
        #: Traces begun and not yet closed, by trace id; every closed
        #: one is in :attr:`traces`, so ops begun is the sum of both.
        self.open: Dict[int, OpTrace] = {}
        self.traces: List[OpTrace] = []
        #: (backend, stage) -> latency histogram; stage "total" is the
        #: root span.
        self.histograms: Dict[Tuple[str, str], StreamingHistogram] = {}
        self.timelines: Dict[str, UtilizationTimeline] = {}
        #: Point-in-time occurrences (instance-lease migrations, …):
        #: ``(time, name, args)`` tuples, exported as Chrome "i"
        #: (instant) events.
        self.events: List[Tuple[float, str, Dict[str, object]]] = []

    # -- trace lifecycle ------------------------------------------------------

    def begin(self, op, conn_id: int, worker_id: int, kind: str,
              now: float) -> OpTrace:
        """Open a trace for one crypto op.

        Callers keep the returned context on the offload job so later
        layers can find it.
        """
        self._seq += 1
        trace = OpTrace(self._seq, op.kind.label, op.category.value,
                        conn_id, worker_id, kind, now)
        self.open[trace.trace_id] = trace
        return trace

    def finish(self, trace: OpTrace, now: float,
               status: Optional[str] = None) -> None:
        """Close a trace: derive its span tree and feed the histograms.
        Closing an already-closed trace is an error — the
        well-formedness invariant is exactly one close per op."""
        if trace.closed:
            raise RuntimeError(
                f"trace #{trace.trace_id} ({trace.op}) closed twice")
        trace.close(now, status)
        self.open.pop(trace.trace_id, None)
        self.traces.append(trace)
        backend = trace.backend or "none"
        spans = trace.spans()
        self.spans_closed += len(spans)
        self._histogram(backend, "total").add(spans[0].duration)
        for span in spans[1:]:
            self._histogram(backend, span.name).add(span.duration)

    def abort_open(self, job_trace: Optional[OpTrace], now: float) -> None:
        """Connection teardown while an op was open: close as aborted
        (never leak an open span tree). A worker killed while settling
        its CPU time has stamped that chain's marks at the time it
        would have settled at, after the kill: the trace then closes
        at its last mark, not before it."""
        if job_trace is not None and not job_trace.closed:
            end = max(now, job_trace.created, *job_trace.marks.values())
            self.finish(job_trace, end, SpanStatus.ABORTED)

    # -- metrics feeds ---------------------------------------------------------

    def _histogram(self, backend: str, stage: str) -> StreamingHistogram:
        key = (backend, stage)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = StreamingHistogram()
        return hist

    def latency_sample(self, backend: str, stage: str,
                       duration: float) -> None:
        """Record one duration in a named stage histogram outside the
        span machinery — e.g. the offload scheduler's per-class
        queue-wait times (``sched-wait.<class>``)."""
        self._histogram(backend, stage).add(max(duration, 0.0))

    def util_sample(self, name: str, now: float, value: float,
                    capacity: int = 0) -> None:
        """Record a resource-occupancy change point."""
        timeline = self.timelines.get(name)
        if timeline is None:
            timeline = self.timelines[name] = UtilizationTimeline(
                name, capacity=capacity)
        timeline.sample(now, value)

    def event(self, name: str, now: float,
              args: Optional[Dict[str, object]] = None) -> None:
        """Record a point-in-time occurrence (no duration) — e.g. a
        pool lease migrating between workers."""
        self.events.append((now, name, dict(args or {})))

    # -- summaries ---------------------------------------------------------------

    def stage_summary(self) -> Dict[str, Dict[str, float]]:
        """``"backend/stage" -> {count, mean, p50, p95, p99, max}``."""
        return {f"{b}/{s}": h.summary()
                for (b, s), h in sorted(self.histograms.items())}

    def snapshot_counts(self) -> Dict[str, int]:
        """The stub_status `trace` section payload."""
        return {
            "trace_ops": len(self.traces) + len(self.open),
            "trace_open": len(self.open),
            "trace_spans": self.spans_closed,
        }
