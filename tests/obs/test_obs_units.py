"""Unit tests for the repro.obs building blocks: span derivation,
trace contexts, histograms, utilization timelines, the tracer's
closing discipline, and the export validator."""

import pytest

from repro.obs import (RequestTracer, SpanStatus, StreamingHistogram,
                      UtilizationTimeline, chrome_trace_events,
                      derive_spans, validate_chrome_trace)
from repro.obs.context import OpTrace
from repro.testing import rsa_call


def _op():
    return rsa_call().op


def _begin(tracer, now=0.0, conn=5, worker=0):
    return tracer.begin(_op(), conn, worker, "handshake", now)


# -- span derivation -----------------------------------------------------------

def test_derive_spans_full_pipeline():
    marks = {"enqueued": 1.0, "accepted": 2.0, "dequeued": 3.0,
             "serviced": 3.5, "landed": 4.0, "delivered": 5.0}
    spans = derive_spans("rsa_priv", 0.0, 6.0, marks)
    assert spans[0].name == "rsa_priv"
    assert [s.name for s in spans[1:]] == [
        "queue", "batch-wait", "ring", "engine-service", "poll-delay",
        "resume"]
    # Consecutive and disjoint: each stage starts where the last ended.
    edges = [(s.start, s.end) for s in spans[1:]]
    assert edges == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0),
                     (4.0, 5.0), (5.0, 6.0)]
    assert all(s.parent == "rsa_priv" for s in spans[1:])


def test_derive_spans_unbatched_has_no_batch_wait():
    marks = {"accepted": 1.0, "dequeued": 2.0, "landed": 3.0,
             "delivered": 4.0}
    names = [s.name for s in derive_spans("rsa_priv", 0.0, 5.0, marks)]
    assert "batch-wait" not in names
    # queue runs straight to acceptance.
    spans = derive_spans("rsa_priv", 0.0, 5.0, marks)
    queue = next(s for s in spans if s.name == "queue")
    assert (queue.start, queue.end) == (0.0, 1.0)


def test_derive_spans_op_that_never_reached_backend():
    # A timed-out op with no marks at all: just the root span.
    spans = derive_spans("rsa_priv", 0.0, 1.0, {})
    assert len(spans) == 1
    # With only "delivered" (failover delivery), queue + resume appear.
    spans = derive_spans("rsa_priv", 0.0, 1.0, {"delivered": 0.5})
    assert [s.name for s in spans] == ["rsa_priv", "queue", "resume"]


def test_op_trace_marks_are_first_write_wins():
    t = OpTrace(1, "rsa_priv", "asym", 5, 0, "handshake", 0.0)
    t.mark("accepted", 1.0)
    t.mark("accepted", 9.0)  # retry must not move the checkpoint
    assert t.marks["accepted"] == 1.0
    t.absorb_device_marks({"dequeued": 2.0, "serviced": None})
    assert t.marks["dequeued"] == 2.0
    assert "serviced" not in t.marks  # None stamps are skipped


def test_op_trace_close_status_rules():
    t = OpTrace(1, "rsa_priv", "asym", 5, 0, "handshake", 0.0)
    t.close(1.0)
    assert t.status == SpanStatus.OK  # default for a clean close
    t2 = OpTrace(2, "rsa_priv", "asym", 5, 0, "handshake", 0.0)
    t2.status = SpanStatus.TIMEOUT  # stamped by the engine on failure
    t2.close(1.0)
    assert t2.status == SpanStatus.TIMEOUT  # close keeps the stamp


def test_op_trace_spans_require_close():
    t = OpTrace(1, "rsa_priv", "asym", 5, 0, "handshake", 0.0)
    with pytest.raises(RuntimeError, match="still open"):
        t.spans()


# -- histogram -----------------------------------------------------------------

def test_histogram_summary_and_percentiles():
    h = StreamingHistogram()
    h.extend([1e-6] * 50 + [1e-3] * 45 + [1e-1] * 5)
    assert h.count == 100
    assert h.max == pytest.approx(1e-1)
    # Bucket upper bounds are conservative: within one growth factor.
    assert 1e-6 <= h.percentile(50) <= 1e-6 * 1.25
    assert 1e-3 <= h.percentile(95) <= 1e-3 * 1.25
    assert 1e-1 <= h.percentile(99.9) <= 1e-1 * 1.25
    s = h.summary()
    assert s["count"] == 100.0
    assert s["p50"] <= s["p95"] <= s["p99"] <= 1e-1 * 1.25


def test_histogram_zero_durations_tracked_without_log():
    h = StreamingHistogram()
    h.extend([0.0, 0.0, 0.0, 1e-3])
    assert h.zeros == 3
    assert h.percentile(50) == 0.0
    assert h.percentile(99) >= 1e-3


def test_histogram_rejects_bad_input():
    h = StreamingHistogram()
    with pytest.raises(ValueError):
        h.add(-1e-9)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_empty_is_all_zero():
    s = StreamingHistogram().summary()
    assert s == {"count": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                 "p99": 0.0, "max": 0.0}


# -- utilization timeline ------------------------------------------------------

def test_timeline_dedupes_and_revises_same_instant():
    tl = UtilizationTimeline("ep0.engines", capacity=4)
    tl.sample(0.0, 0.0)
    tl.sample(1.0, 2.0)
    tl.sample(1.5, 2.0)  # no change: deduped
    assert len(tl) == 2
    tl.sample(2.0, 3.0)
    tl.sample(2.0, 1.0)  # same-instant revision keeps the final value
    assert tl.steps()[-1] == (2.0, 1.0)
    assert tl.peak == 3.0


def test_timeline_mean_is_time_weighted():
    tl = UtilizationTimeline("x", capacity=2)
    tl.sample(0.0, 0.0)
    tl.sample(1.0, 2.0)
    tl.sample(3.0, 0.0)
    # [0,1): 0, [1,3): 2, [3,4): 0 -> mean over [0,4] = 1.0
    assert tl.mean(0.0, 4.0) == pytest.approx(1.0)
    assert tl.utilization(0.0, 4.0) == pytest.approx(0.5)
    assert tl.value_at(-1.0) == 0.0
    assert tl.value_at(2.0) == 2.0


def test_timeline_rejects_time_travel():
    tl = UtilizationTimeline("x")
    tl.sample(1.0, 1.0)
    with pytest.raises(ValueError, match="non-monotone"):
        tl.sample(0.5, 2.0)


# -- tracer lifecycle ----------------------------------------------------------

def test_tracer_closes_feed_histograms():
    tr = RequestTracer()
    t = _begin(tr)
    t.accept(1e-4, "qat", 0)
    t.mark("delivered", 3e-4)
    tr.finish(t, 4e-4)
    assert tr.traces == [t]
    assert t.status == SpanStatus.OK
    assert tr.snapshot_counts() == {
        "trace_ops": 1, "trace_open": 0, "trace_spans": 3}
    assert ("qat", "total") in tr.histograms
    assert tr.histograms[("qat", "total")].percentile(50) >= 4e-4


def test_tracer_double_close_raises():
    tr = RequestTracer()
    t = _begin(tr)
    tr.finish(t, 1.0)
    with pytest.raises(RuntimeError, match="closed twice"):
        tr.finish(t, 2.0)


def test_tracer_abort_open_never_leaks():
    tr = RequestTracer()
    t = _begin(tr)
    tr.abort_open(t, 1.0)
    assert t.status == SpanStatus.ABORTED
    assert not tr.open
    tr.abort_open(t, 2.0)   # idempotent on closed traces
    tr.abort_open(None, 2.0)  # and on untraced ops
    assert [t.status for t in tr.traces] == [SpanStatus.ABORTED]


# -- export validator ----------------------------------------------------------

def _valid_doc():
    tr = RequestTracer()
    t = _begin(tr)
    t.accept(1e-4, "qat", 0)
    t.mark("delivered", 3e-4)
    tr.finish(t, 4e-4)
    return {"traceEvents": chrome_trace_events(tr)}


def test_validator_accepts_own_export():
    assert validate_chrome_trace(_valid_doc()) == []


def test_validator_flags_malformed_documents():
    assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
    doc = {"traceEvents": [{"ph": "X", "name": "rsa_priv", "pid": 0}]}
    assert "missing" in validate_chrome_trace(doc)[0]
    doc = {"traceEvents": [
        {"ph": "Z", "name": "x", "pid": 0, "tid": 0, "ts": 0.0}]}
    assert "unknown phase" in validate_chrome_trace(doc)[0]


def test_validator_flags_orphan_stage_and_open_root():
    orphan = {"traceEvents": [
        {"ph": "X", "name": "queue", "pid": 0, "tid": 0, "ts": 0.0,
         "dur": 1.0, "args": {"trace_id": 7}}]}
    assert any("no root" in e for e in validate_chrome_trace(orphan))
    open_root = {"traceEvents": [
        {"ph": "X", "name": "rsa_priv", "pid": 0, "tid": 0, "ts": 0.0,
         "dur": 1.0, "args": {"trace_id": 7, "status": "open"}}]}
    assert any("non-terminal" in e for e in validate_chrome_trace(open_root))


def test_validator_flags_stage_escaping_root():
    doc = {"traceEvents": [
        {"ph": "X", "name": "rsa_priv", "pid": 0, "tid": 0, "ts": 0.0,
         "dur": 1.0, "args": {"trace_id": 7, "status": "ok"}},
        {"ph": "X", "name": "queue", "pid": 0, "tid": 0, "ts": 0.5,
         "dur": 5.0, "args": {"trace_id": 7}}]}
    assert any("escapes root" in e for e in validate_chrome_trace(doc))
