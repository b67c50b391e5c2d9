"""Tracing overhead: the observability layer must be free when off.

Not a paper figure — the acceptance experiment for the ``repro.obs``
request-lifecycle tracing layer. Three QTLS runs over the same seed and
windows:

- **off** — ``trace=False``: every instrumentation site degenerates to
  one attribute read (``sim.obs is None``). This is the production
  shape; its wall-clock is the number the <=5% regression budget is
  measured against.
- **on** — full tracing (sample rate 1.0): every offloaded op grows a
  span tree, stage histograms and utilization timelines accumulate, and
  the Chrome trace export validates.
- **sampled** — sample rate 0.25: the profiling compromise.

Checks: tracing (on, off or sampled) never perturbs the simulation —
all three runs produce the identical handshake record; the traced run
produces a schema-valid export whose op count matches the tracer; and
the traced wall-clock stays within a generous envelope of the untraced
run (tracing is bookkeeping, not simulation).
"""

from __future__ import annotations

import json
import time

from ...obs import chrome_trace_events, validate_chrome_trace
from ..reporting import ExperimentResult
from ..runner import Testbed, Windows

__all__ = ["run"]

QUICK_WINDOWS = Windows(warmup=0.02, measure=0.06)
FULL_WINDOWS = Windows(warmup=0.1, measure=0.4)

#: Wall-clock envelope for the fully-traced run relative to untraced.
#: Tracing allocates one context + a handful of dict writes per op —
#: real overhead, but it must stay bookkeeping-sized. Generous because
#: CI wall-clocks are noisy.
TRACED_ENVELOPE = 3.0

N_CLIENTS = 100


def _run_one(windows: Windows, seed: int, **trace_kw):
    # Wall time is the measurand here (tracing *overhead*); it never
    # feeds back into simulated state, so replay stays exact.
    start = time.perf_counter()  # analysis: allow[RA101]
    bed = Testbed("QTLS", workers=1, suites=("TLS-RSA",), seed=seed,
                  **trace_kw)
    bed.add_s_time_fleet(n_clients=N_CLIENTS)
    bed.run_window(windows)
    wall = time.perf_counter() - start  # analysis: allow[RA101]
    return bed, wall


def run(quick: bool = True, seed: int = 7) -> ExperimentResult:
    windows = QUICK_WINDOWS if quick else FULL_WINDOWS
    result = ExperimentResult(
        exp_id="trace_overhead",
        title="repro.obs tracing overhead (off / sampled / on)",
        columns=["variant", "metric", "value"],
        notes="same seed + windows for all variants; wall seconds are "
              "host wall-clock, everything else is simulated output")

    bed_off, wall_off = _run_one(windows, seed)
    bed_on, wall_on = _run_one(windows, seed, trace=True)
    bed_smp, wall_smp = _run_one(windows, seed, trace=True,
                                 trace_sample_rate=0.25)

    for label, bed, wall in (("off", bed_off, wall_off),
                             ("on", bed_on, wall_on),
                             ("sampled", bed_smp, wall_smp)):
        tracer = bed.tracer
        for metric, value in (
                ("wall_s", round(wall, 3)),
                ("handshakes", len(bed.metrics.handshakes)),
                ("client_errors", bed.metrics.errors),
                ("traced_ops", tracer.ops_closed if tracer else 0),
                ("sampled_out", tracer.sampled_out if tracer else 0)):
            result.add_row(variant=label, metric=metric, value=value)

    # 1. Zero simulation side-effects: bit-identical handshake records.
    for label, bed in (("on", bed_on), ("sampled", bed_smp)):
        same = bed.metrics.handshakes == bed_off.metrics.handshakes
        result.add_check(
            f"tracing {label}: simulation output identical to untraced",
            "identical handshake record", "==" if same else "!=", same)

    # 2. The traced run actually traced, and its export is valid.
    traced = bed_on.tracer
    result.add_check(
        "traced run covers the offloaded ops",
        "> 0 closed traces, 0 sampled out",
        f"{traced.ops_closed} closed, {traced.sampled_out} out",
        traced.ops_closed > 0 and traced.sampled_out == 0)
    events = chrome_trace_events(traced)
    problems = validate_chrome_trace(
        json.loads(json.dumps({"traceEvents": events})))
    result.add_check(
        "Chrome trace export validates against the trace_event schema",
        "0 problems", str(len(problems)), not problems)
    stages = {s for (_, s) in traced.histograms}
    result.add_check(
        "stage histograms populated (queue/ring/service/poll/resume)",
        "5+ stages", str(len(stages - {"total"})),
        {"queue", "ring", "engine-service", "poll-delay",
         "resume"} <= stages)

    # 3. Sampling traces a strict subset.
    smp = bed_smp.tracer
    result.add_check(
        "sample_rate 0.25 traces a strict subset",
        "0 < closed < full", f"{smp.ops_closed} of {traced.ops_closed}",
        0 < smp.ops_closed < traced.ops_closed)

    # 4. Wall-clock envelope (host-noisy, hence generous).
    ratio = wall_on / wall_off if wall_off else 0.0
    result.add_check(
        f"fully-traced wall-clock within {TRACED_ENVELOPE:.1f}x of "
        "untraced", f"< {TRACED_ENVELOPE:.1f}x", f"{ratio:.2f}x",
        0.0 < ratio < TRACED_ENVELOPE)
    return result
