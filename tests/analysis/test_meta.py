"""Meta-tests: the real tree is clean, and the tooling has teeth.

The first half runs the full suite over the actual ``src/`` — the same
gate CI applies, where only an inline ``# analysis: allow[CODE]``
excuses a finding — so a regression anywhere in the repo fails tier-1,
not just the lint job. The second half drives the ``tools/analyze.py``
CLI (exit codes, ``--inject-violation`` canaries).
"""

import subprocess
import sys

import pytest

from repro.analysis import AnalysisContext, run_analysis

from .helpers import REPO_ROOT, SRC_ROOT


def real_context():
    return AnalysisContext.from_paths(
        SRC_ROOT, readme_path=REPO_ROOT / "README.md")


def test_src_tree_is_clean():
    result = run_analysis(real_context())
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "analyze.py"), *args],
        capture_output=True, text=True, cwd=REPO_ROOT)


def test_cli_gate_exits_zero():
    proc = run_cli()
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_list_prints_catalogue():
    proc = run_cli("--list")
    assert proc.returncode == 0
    for code in ("RA101", "RA201", "RA301", "RA401", "RA501"):
        assert code in proc.stdout


def test_unknown_injection_code_exits_two(tools_on_path):
    import analyze
    assert analyze.inject_violation("RA999") == 2


@pytest.fixture(scope="module")
def tools_on_path():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    yield
    sys.path.remove(str(REPO_ROOT / "tools"))
