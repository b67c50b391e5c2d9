"""Meta-tests: the real tree is clean, and the tooling has teeth.

The first half runs the full suite over the actual ``src/`` with the
checked-in baseline — the same gate CI applies — so a regression
anywhere in the repo fails tier-1, not just the lint job. The second
half drives the ``tools/analyze.py`` CLI (exit codes, shim,
``--inject-violation`` canaries).
"""

import subprocess
import sys

import pytest

from repro.analysis import AnalysisContext, Baseline, run_analysis

from .helpers import REPO_ROOT, SRC_ROOT

BASELINE = REPO_ROOT / "tools" / "analysis_baseline.txt"


def real_context():
    return AnalysisContext.from_paths(
        SRC_ROOT, readme_path=REPO_ROOT / "README.md")


def test_src_tree_is_clean_modulo_baseline():
    result = run_analysis(real_context(),
                          baseline=Baseline.load(BASELINE))
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings)


def test_baseline_has_no_stale_entries():
    result = run_analysis(real_context(),
                          baseline=Baseline.load(BASELINE))
    assert result.stale_baseline == []


def test_baseline_entries_carry_justifications():
    baseline = Baseline.load(BASELINE)
    assert baseline.entries, "baseline exists and parses"
    for (code, path), why in baseline.entries.items():
        assert why.strip(), f"{code} {path} needs a justification"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "analyze.py"), *args],
        capture_output=True, text=True, cwd=REPO_ROOT)


def test_cli_ci_gate_exits_zero():
    proc = run_cli("--ci")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_list_prints_catalogue():
    proc = run_cli("--list")
    assert proc.returncode == 0
    for code in ("RA101", "RA201", "RA301", "RA401", "RA501"):
        assert code in proc.stdout


def test_unknown_injection_code_exits_two(tools_on_path):
    import analyze
    assert analyze.inject_violation("RA999", select_only=True) == 2


@pytest.fixture(scope="module")
def tools_on_path():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    yield
    sys.path.remove(str(REPO_ROOT / "tools"))
