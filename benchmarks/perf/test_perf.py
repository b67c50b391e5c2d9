"""Smoke tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf`` (about
half a minute: one untraced and one traced ``--smoke`` pass over every
workload).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]


def _run(out: Path, *args: str) -> dict:
    proc = subprocess.run(RUN + ["--smoke", "--out", str(out), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory) -> dict:
    return _run(tmp_path_factory.mktemp("perf") / "untraced.json")


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    return _run(tmp_path_factory.mktemp("perf") / "traced.json",
                "--trace", "1")


@pytest.mark.parametrize("mode", ["end_to_end", "per_layer"])
def test_every_benchmark_metric_is_emitted_with_its_unit(
        mode, untraced, traced):
    doc = untraced if mode == "end_to_end" else traced
    assert [r["workload"] for r in doc["runs"]] == \
        [w["name"] for w in SPEC["workloads"]]
    for run in doc["runs"]:
        assert run["correct"], run["problems"]
        assert run["failed"] == 0 and run["attempted"] > 0
        assert set(run["metrics"]) == {m["name"] for m in SPEC[mode]}
        for m in SPEC[mode]:
            got = run["metrics"][m["name"]]
            assert got["unit"] == m["unit"], m["name"]
            assert math.isfinite(got["value"]), m["name"]


def test_same_seed_repeat_simulates_the_same_world(untraced, traced):
    # Each traced run also ran an untraced episode in a fresh process.
    for a, b in zip(untraced["runs"], traced["runs"]):
        assert a["context"]["sim_digest"] == b["context"]["sim_digest"]


def test_traced_client_record_equals_untraced(traced):
    for run in traced["runs"]:
        ctx = run["context"]
        assert ctx["traced_client_digest"] == ctx["client_digest"]


def test_compare_reports_identical_worlds(tmp_path, untraced):
    base = tmp_path / "base.json"
    base.write_text(json.dumps(untraced))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(base), str(base)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "REGRESSED" not in proc.stdout
    for w in SPEC["workloads"]:
        assert f"sim_digest {w['name']}: identical" in proc.stdout


@pytest.mark.parametrize("metric,factor", [
    ("host_ops_per_s", 0.5),
    # Simulated metrics compare on same-seed pairs, so a cut far inside
    # BENCHMARK.json's seed-pooled bound is still caught.
    ("sim_ops_per_s", 0.95),
])
def test_compare_flags_a_regression_beyond_the_bound(
        tmp_path, untraced, metric, factor):
    slower = json.loads(json.dumps(untraced))
    for run in slower["runs"]:
        run["metrics"][metric]["value"] *= factor
    base, change = tmp_path / "base.json", tmp_path / "change.json"
    base.write_text(json.dumps(untraced))
    change.write_text(json.dumps(slower))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(base), str(change)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "REGRESSED" in proc.stdout


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, it
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
