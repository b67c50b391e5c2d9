"""Trace-export determinism: the exported Chrome trace is part of the
simulation's deterministic output — two runs from the same seed must
produce byte-identical files (the regression the paper's replayable
methodology depends on)."""

import io
import json

import pytest

from repro.bench.runner import Testbed, Windows
from repro.obs import export_chrome_trace, validate_chrome_trace
from repro.obs.export import chrome_trace_events

SMOKE = Windows(warmup=0.02, measure=0.04)


def _export(path, *, seed=7, workers=1, **kw):
    bed = Testbed("QTLS", workers=workers, seed=seed, trace=True, **kw)
    bed.add_s_time_fleet(n_clients=40)
    bed.run_window(SMOKE)
    n = export_chrome_trace(bed.tracer, str(path))
    return bed, n


@pytest.mark.parametrize("kw", [
    {},                              # unbatched QTLS
    {"qat_batch_size": 8},           # coalesced submission
    {"offload_backend": "remote"},   # RPC backend
    {"workers": 2, "qat_instance_policy": "shared"},
    {"workers": 2, "qat_instance_policy": "dynamic",
     "qat_instances_per_worker": 2},
    {"offload_admission_limit": 16},
], ids=["qat", "qat-batched", "remote", "pool-shared", "pool-dynamic",
        "admission"])
def test_same_seed_exports_are_byte_identical(tmp_path, kw):
    bed_a, n_a = _export(tmp_path / "a.json", **kw)
    bed_b, n_b = _export(tmp_path / "b.json", **kw)
    raw_a = (tmp_path / "a.json").read_bytes()
    raw_b = (tmp_path / "b.json").read_bytes()
    assert n_a == n_b > 1000  # a real run, not an empty trace
    assert raw_a == raw_b     # byte-for-byte, not just semantically
    assert bed_a.metrics.handshakes == bed_b.metrics.handshakes
    doc = json.loads(raw_a)
    assert validate_chrome_trace(doc) == []
    assert doc["otherData"]["ops_closed"] == len(bed_a.tracer.traces)


def test_export_bytes_equal_streamed_json_dump(tmp_path):
    # The exporter encodes the document in one json.dumps call; the
    # bytes must be exactly those json.dump streams for the same doc.
    bed, _ = _export(tmp_path / "a.json")
    doc = {
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "ops_closed": len(bed.tracer.traces),
            "ops_open_at_export": len(bed.tracer.open),
        },
        "traceEvents": chrome_trace_events(bed.tracer),
    }
    streamed = io.StringIO()
    json.dump(doc, streamed, sort_keys=True, separators=(",", ":"))
    streamed.write("\n")
    assert (tmp_path / "a.json").read_text() == streamed.getvalue()


def test_different_seeds_export_different_traces(tmp_path):
    _export(tmp_path / "a.json", seed=7)
    _export(tmp_path / "b.json", seed=8)
    assert ((tmp_path / "a.json").read_bytes()
            != (tmp_path / "b.json").read_bytes())


def test_export_excludes_open_traces(tmp_path):
    bed, _ = _export(tmp_path / "a.json")
    doc = json.loads((tmp_path / "a.json").read_text())
    exported = {e["args"]["trace_id"] for e in doc["traceEvents"]
                if e["ph"] == "X"}
    open_ids = set(bed.tracer.open)
    assert not exported & open_ids
    assert doc["otherData"]["ops_open_at_export"] == len(open_ids)
