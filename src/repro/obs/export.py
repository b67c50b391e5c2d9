"""Chrome ``trace_event`` export.

Closed traces serialize to the Trace Event Format consumed by
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev): complete
("X") events for spans, counter ("C") events for the utilization
timelines, instant ("i") events for point occurrences such as pool
lease migrations. The track layout maps the simulation onto the viewer's
process/thread model:

- ``pid`` = worker id (one process row per worker; -1 = jobless ops),
- ``tid`` = connection id (one thread row per connection),

so a connection's handshake reads as a root bar with the stage bars
(queue / batch-wait / ring / engine-service / poll-delay / resume)
nested beneath it, and the device occupancy counters ride on a
synthetic "device" process.

Export is deterministic: events are emitted in a fully specified order
and serialized with sorted keys and fixed separators, so two runs with
the same seed produce byte-identical files (the regression test in
``tests/obs`` locks this down).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from .span import STAGES, SpanStatus
from .tracer import RequestTracer

__all__ = ["chrome_trace_events", "export_chrome_trace",
           "validate_chrome_trace"]

#: pid used for the synthetic utilization-counter track.
DEVICE_PID = 10_000


def _us(t: float) -> float:
    """Simulated seconds -> trace microseconds (ns resolution kept)."""
    return round(t * 1e6, 3)


def chrome_trace_events(tracer: RequestTracer) -> List[Dict[str, Any]]:
    """The ``traceEvents`` list for all *closed* traces + counters.

    Open traces (ops still in flight when the simulation horizon hit)
    are deliberately excluded: the export must be a function of the
    deterministic closed set, and a span with no end has no "X" event.
    """
    events: List[Dict[str, Any]] = []
    for trace in tracer.traces:
        spans = trace.spans()
        root = spans[0]
        events.append({
            "ph": "X", "name": root.name, "cat": trace.category,
            "pid": trace.worker_id, "tid": trace.conn_id,
            "ts": _us(root.start), "dur": _us(root.duration),
            "args": {
                "trace_id": trace.trace_id,
                "status": trace.status,
                "backend": trace.backend or "none",
                "lane": trace.lane,
                "kind": trace.kind,
                "attempts": trace.attempts,
            },
        })
        for span in spans[1:]:
            events.append({
                "ph": "X", "name": span.name, "cat": "stage",
                "pid": trace.worker_id, "tid": trace.conn_id,
                "ts": _us(span.start), "dur": _us(span.duration),
                "args": {"trace_id": trace.trace_id},
            })
    for when, name, args in tracer.events:
        events.append({
            "ph": "i", "name": name, "cat": "pool", "s": "g",
            "pid": DEVICE_PID, "tid": 0,
            "ts": _us(when),
            "args": args,
        })
    for tid, name in enumerate(sorted(tracer.timelines)):
        timeline = tracer.timelines[name]
        for when, value in timeline.steps():
            events.append({
                "ph": "C", "name": name, "cat": "utilization",
                "pid": DEVICE_PID, "tid": tid,
                "ts": _us(when),
                "args": {"busy": value},
            })
    # Viewer-friendly and deterministic: time-major, then track, then
    # name (stable for same-instant events).
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["ph"],
                               e["name"], e.get("dur", 0.0)))
    return events


def export_chrome_trace(tracer: RequestTracer, path: str) -> int:
    """Write the JSON object form of the trace; returns #events.

    The file opens directly in Perfetto / ``chrome://tracing``.
    """
    events = chrome_trace_events(tracer)
    doc = {
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "ops_closed": len(tracer.traces),
            "ops_open_at_export": len(tracer.open),
        },
        "traceEvents": events,
    }
    with open(path, "w") as fh:
        # One dumps call: json.dump streams through the pure-Python
        # encoder, dumps through the C one, for the same bytes.
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")
    return len(events)


# -- validation ---------------------------------------------------------------

_KNOWN_STAGES = frozenset(STAGES)
_REQUIRED = {"ph", "name", "pid", "tid", "ts"}
#: Nesting tolerance in trace microseconds: ts and dur are each
#: rounded to 0.001 us on export, so a stage end can exceed the
#: root's rounded end by up to 2 rounding steps.
_NEST_TOL_US = 0.005


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Check a loaded export against the trace_event schema subset we
    emit. Returns a list of problems (empty = valid)."""
    errors: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    spans: List[tuple] = []  # (index, event, dur) for well-formed X events
    for i, ev in enumerate(events):
        missing = _REQUIRED - ev.keys()
        if missing:
            errors.append(f"event {i}: missing {sorted(missing)}")
            continue
        if ev["ph"] not in ("X", "C", "i"):
            errors.append(f"event {i}: unknown phase {ev['ph']!r}")
            continue
        if not isinstance(ev["ts"], (int, float)) or ev["ts"] < 0:
            errors.append(f"event {i}: bad ts {ev['ts']!r}")
            continue
        if ev["ph"] == "C":
            continue
        if ev["ph"] == "i":
            if ev.get("s") not in ("g", "p", "t"):
                errors.append(f"event {i}: instant event with bad "
                              f"scope {ev.get('s')!r}")
            continue
        dur = ev.get("dur")
        if not isinstance(dur, (int, float)) or dur < 0:
            errors.append(f"event {i}: X event with bad dur {dur!r}")
            continue
        if ev.get("args", {}).get("trace_id") is None:
            errors.append(f"event {i}: X event without args.trace_id")
            continue
        spans.append((i, ev, dur))
    # Pass 2: roots first (order-insensitive), then nesting checks.
    roots: Dict[Any, tuple] = {}
    for i, ev, dur in spans:
        if ev["name"] in _KNOWN_STAGES:
            continue
        args = ev["args"]
        key = args["trace_id"]
        if key in roots:
            errors.append(f"event {i}: duplicate root for trace {key}")
        roots[key] = (ev["ts"], ev["ts"] + dur)
        if args.get("status") not in SpanStatus.TERMINAL:
            errors.append(
                f"event {i}: root with non-terminal status "
                f"{args.get('status')!r}")
    for i, ev, dur in spans:
        if ev["name"] not in _KNOWN_STAGES:
            continue
        key = ev["args"]["trace_id"]
        root = roots.get(key)
        if root is None:
            errors.append(
                f"event {i}: stage {ev['name']!r} with no root "
                f"(trace {key})")
            continue
        r_ts, r_end = root
        if (ev["ts"] < r_ts - _NEST_TOL_US
                or ev["ts"] + dur > r_end + _NEST_TOL_US):
            errors.append(
                f"event {i}: stage {ev['name']!r} escapes root span "
                f"of trace {key}")
    return errors
