"""Framework-level tests: findings, suppression, baseline, registry."""

import pytest

from repro.analysis import (Baseline, Finding, all_codes,
                            checker_registry, run_analysis)
from repro.analysis.core import _selected

from .helpers import analyze_source, build_tree


def test_finding_render_format():
    f = Finding(path="repro/x.py", line=7, code="RA101", message="boom")
    assert f.render() == "repro/x.py:7: RA101 boom"
    assert f.baseline_key == ("RA101", "repro/x.py")


def test_registry_names_and_codes_are_unique():
    registry = checker_registry()
    assert set(registry) == {"determinism", "sim-purity", "layering",
                             "span-discipline", "conf-directives",
                             "reactor-sources"}
    codes = all_codes()
    per_checker = [c for chk in registry.values() for c in chk.codes]
    assert len(per_checker) == len(set(per_checker)) == len(codes)
    # every code belongs to the family its checker owns
    assert all(c.startswith("RA") for c in codes)


def test_select_and_ignore_by_prefix_and_name():
    assert _selected("RA101", "determinism", ["RA1"], None)
    assert _selected("RA101", "determinism", ["determinism"], None)
    assert not _selected("RA301", "layering", ["RA1"], None)
    assert not _selected("RA101", "determinism", None, ["determinism"])
    assert not _selected("RA101", "determinism", ["RA1"], ["RA101"])


def test_inline_suppression_variants(tmp_path):
    src = (
        "import time\n"
        "a = time.time()\n"
        "b = time.time()  # analysis: allow\n"
        "c = time.time()  # analysis: allow[RA101]\n"
        "d = time.time()  # analysis: allow[RA102]\n"
        "e = time.time()  # analysis: allow[RA102, RA1]\n"
    )
    result = analyze_source(tmp_path, {"repro/sim/mod.py": src},
                            select=["RA101"])
    flagged = sorted(f.line for f in result.findings)
    # line 2 (no mark) and line 5 (wrong code in the bracket) flag;
    # bare allow, matching code, and a list holding a matching family
    # prefix suppress.
    assert flagged == [2, 5]
    assert result.suppressed == 3


def test_baseline_roundtrip_and_stale(tmp_path):
    baseline_file = tmp_path / "baseline.txt"
    baseline_file.write_text(
        "# comment\n"
        "\n"
        "RA101 repro/sim/mod.py — known debt\n"
        "RA101 repro/sim/other.py — paid off already\n",
        encoding="utf-8")
    baseline = Baseline.load(baseline_file)
    assert set(baseline.entries) == {("RA101", "repro/sim/mod.py"),
                                     ("RA101", "repro/sim/other.py")}
    result = analyze_source(
        tmp_path,
        {"repro/sim/mod.py": "import time\nx = time.time()\n",
         "repro/sim/other.py": "x = 1\n"},
        select=["RA101"], baseline=baseline)
    assert result.findings == []
    assert result.baselined == 1
    assert result.stale_baseline == [("RA101", "repro/sim/other.py")]


def test_baseline_rejects_malformed_lines(tmp_path):
    bad = tmp_path / "baseline.txt"
    bad.write_text("not a baseline line\n", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed baseline"):
        Baseline.load(bad)


def test_stale_scoping_to_selected_checkers(tmp_path):
    """A --select run must not condemn baseline entries belonging to
    checkers that did not run (a ``--select determinism`` regression)."""
    baseline = Baseline({("RA301", "repro/sim/mod.py"): "layering debt"})
    ctx = build_tree(tmp_path, {"repro/sim/mod.py": "x = 1\n"})
    result = run_analysis(ctx, select=["determinism"], baseline=baseline)
    assert result.stale_baseline == []
    result = run_analysis(ctx, select=["layering"], baseline=baseline)
    assert result.stale_baseline == [("RA301", "repro/sim/mod.py")]


def test_findings_sorted_deterministically(tmp_path):
    src = "import time\nb = time.time()\nimport random\nc = random.random()\n"
    result = analyze_source(
        tmp_path, {"repro/sim/b.py": src, "repro/sim/a.py": src},
        select=["RA1"])
    keys = [(f.path, f.line, f.code) for f in result.findings]
    assert keys == sorted(keys)
