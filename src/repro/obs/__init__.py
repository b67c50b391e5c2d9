"""repro.obs — request-lifecycle tracing and metrics.

A span-based observability layer for the QTLS simulation: each
offloaded crypto op carries an :class:`~repro.obs.context.OpTrace`
from SSL-driver submission through the offload engine and the device
model back to job resume; closed traces become span trees, feed
streaming per-stage latency histograms and export as Chrome
``trace_event`` JSON (viewable in Perfetto).

Tracing is on exactly when a :class:`~repro.obs.tracer.RequestTracer`
is attached to the simulator (``sim.obs``); every instrumentation site
checks ``obs is not None`` before doing any work, so the untraced cost
is one attribute read.
"""

from .context import OpTrace
from .export import chrome_trace_events, export_chrome_trace, \
    validate_chrome_trace
from .histogram import StreamingHistogram
from .span import MARK_ORDER, STAGES, Span, SpanStatus, derive_spans
from .timeline import UtilizationTimeline
from .tracer import RequestTracer

__all__ = [
    "OpTrace",
    "RequestTracer",
    "Span",
    "SpanStatus",
    "StreamingHistogram",
    "UtilizationTimeline",
    "STAGES",
    "MARK_ORDER",
    "derive_spans",
    "chrome_trace_events",
    "export_chrome_trace",
    "validate_chrome_trace",
]
