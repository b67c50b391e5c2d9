"""Framework-level tests: findings, suppression, registry."""

from repro.analysis import Finding, all_codes, checker_registry
from repro.analysis.core import _selected

from .helpers import analyze_source


def test_finding_render_format():
    f = Finding(path="repro/x.py", line=7, code="RA101", message="boom")
    assert f.render() == "repro/x.py:7: RA101 boom"


def test_registry_names_and_codes_are_unique():
    registry = checker_registry()
    assert set(registry) == {"determinism", "sim-purity", "layering",
                             "span-discipline", "conf-directives"}
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


def test_findings_sorted_deterministically(tmp_path):
    src = "import time\nb = time.time()\nimport random\nc = random.random()\n"
    result = analyze_source(
        tmp_path, {"repro/sim/b.py": src, "repro/sim/a.py": src},
        select=["RA1"])
    keys = [(f.path, f.line, f.code) for f in result.findings]
    assert keys == sorted(keys)
