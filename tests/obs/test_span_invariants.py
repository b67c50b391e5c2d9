"""Span-tree well-formedness over live runs.

Every closed trace from a real testbed run must be a well-formed span
tree: exactly one root, stage children nested inside it, no negative
durations, stage durations summing to at most the root wall time, and
checkpoint marks monotone in pipeline order. The invariants are checked
against the paper-shaped experiment smokes (fig7 config sweep shapes,
the backends comparison shapes, and a faulted run).
"""

import json

import pytest

from repro.bench.runner import Testbed, Windows
from repro.obs import MARK_ORDER, SpanStatus, validate_chrome_trace
from repro.obs.export import chrome_trace_events

#: Floating-point slack for sums of exact simulated timestamps.
EPS = 1e-9

SMOKE = Windows(warmup=0.02, measure=0.04)


def run_traced(config, *, seed=7, n_clients=40, **kw):
    bed = Testbed(config, workers=1, seed=seed, trace=True, **kw)
    bed.add_s_time_fleet(n_clients=n_clients)
    bed.run_window(SMOKE)
    return bed


def assert_well_formed(tracer):
    """The tentpole invariants, over every closed trace."""
    for trace in tracer.traces:
        spans = trace.spans()
        root, stages = spans[0], spans[1:]
        # Exactly one root span covering the whole op lifetime.
        assert root.parent is None
        assert root.start == trace.created
        assert root.end == trace.finished
        assert all(s.parent == root.name for s in stages)
        # No negative durations, children nested within the root.
        assert root.duration >= 0.0
        for s in stages:
            assert s.duration >= 0.0, (trace, s)
            assert s.start >= root.start - EPS, (trace, s)
            assert s.end <= root.end + EPS, (trace, s)
        # Stage durations sum to <= the root wall time.
        assert sum(s.duration for s in stages) <= root.duration + EPS, trace
        # Marks are monotone in pipeline order and inside the lifetime.
        recorded = [trace.marks[m] for m in MARK_ORDER if m in trace.marks]
        assert recorded == sorted(recorded), trace
        if recorded:
            assert trace.created <= recorded[0]
            assert recorded[-1] <= trace.finished
        # Closed means terminal.
        assert trace.status in SpanStatus.TERMINAL, trace
    for trace in tracer.open.values():
        assert not trace.closed


@pytest.mark.parametrize("config,kw", [
    ("QTLS", {}),                          # fig7's async framework config
    ("QTLS", {"qat_batch_size": 8}),       # coalesced submission path
    ("QAT+S", {}),                         # blocking offload (jobless ops)
    ("QAT+A", {}),                         # timer-polled async
    ("QTLS", {"offload_backend": "remote"}),  # backends experiment shape
])
def test_span_trees_well_formed_across_configs(config, kw):
    bed = run_traced(config, **kw)
    tracer = bed.tracer
    assert len(tracer.traces) > 100  # the run actually offloaded
    assert_well_formed(tracer)
    # The export of this run is schema-valid after a JSON round-trip.
    doc = json.loads(json.dumps({"traceEvents": chrome_trace_events(tracer)}))
    assert validate_chrome_trace(doc) == []


def test_qtls_traces_cover_the_async_pipeline_stages():
    tracer = run_traced("QTLS").tracer
    stages = {s.name for t in tracer.traces for s in t.spans()[1:]}
    assert {"queue", "ring", "engine-service", "poll-delay",
            "resume"} <= stages
    ok = [t for t in tracer.traces if t.status == SpanStatus.OK]
    assert len(ok) == len(tracer.traces)  # clean run: everything OK
    assert all(t.backend == "qat" for t in ok)
    assert all(t.worker_id >= 0 and t.conn_id >= 0 for t in ok)


def test_batched_run_records_batch_wait_on_every_op():
    tracer = run_traced("QTLS", qat_batch_size=8).tracer
    waits = [[s.duration for s in t.spans() if s.name == "batch-wait"]
             for t in tracer.traces]
    assert all(waits)  # every op coalesced
    assert any(w[0] > 0 for w in waits)


def test_blocking_config_traces_are_jobless():
    tracer = run_traced("QAT+S", n_clients=16).tracer
    assert len(tracer.traces) > 0
    assert all(t.kind == "blocking" for t in tracer.traces)
    assert all(t.conn_id == -1 and t.worker_id == -1
               for t in tracer.traces)


def test_device_utilization_timelines_recorded():
    tracer = run_traced("QTLS").tracer
    engines = [tl for name, tl in tracer.timelines.items()
               if name.endswith(".engines")]
    inflight = [tl for name, tl in tracer.timelines.items()
                if name.endswith(".inflight")]
    assert engines and inflight
    for tl in engines + inflight:
        assert tl.capacity > 0
        assert tl.peak <= tl.capacity
        assert 0.0 <= tl.utilization(SMOKE.warmup, SMOKE.end) <= 1.0
    # The accelerator did real work during the measured window.
    assert any(tl.peak > 0 for tl in engines)


def test_stage_histograms_match_span_counts():
    tracer = run_traced("QTLS").tracer
    total = tracer.histograms[("qat", "total")]
    assert total.count == len(tracer.traces)
    stage_count = sum(h.count for (b, s), h in tracer.histograms.items()
                      if s != "total")
    assert stage_count == tracer.spans_closed - len(tracer.traces)
    summary = tracer.stage_summary()
    assert "qat/total" in summary and "qat/engine-service" in summary


def test_tracing_never_perturbs_the_sim():
    traced = run_traced("QTLS", seed=7)
    untraced = Testbed("QTLS", workers=1, seed=7)
    untraced.add_s_time_fleet(n_clients=40)
    untraced.run_window(SMOKE)
    # Tracing changes only what is recorded, never the simulation.
    assert untraced.tracer is None
    assert traced.metrics.handshakes
    assert traced.metrics.handshakes == untraced.metrics.handshakes
    assert_well_formed(traced.tracer)
