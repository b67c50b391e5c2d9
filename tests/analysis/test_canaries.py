"""Checker-rot canaries: every ``--inject-violation`` recipe is caught.

Mirrors the fuzzer's ``--inject-bug`` teeth-check: for each finding
code with an injection recipe, patch the known-bad pattern into a
throwaway copy of ``src/`` and assert the checker still reports it.
A checker that silently stops matching (AST shape drift, renamed
hook, loosened rule) fails here, in tier-1, not months later.
"""

import sys

import pytest

from .helpers import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "tools"))

import analyze  # noqa: E402
from repro.analysis import all_codes  # noqa: E402


@pytest.mark.parametrize("code", sorted(analyze.INJECTIONS))
def test_injected_violation_is_caught(code, capsys):
    assert analyze.inject_violation(code) == 0, (
        f"checker for {code} no longer catches its canary pattern:\n"
        + capsys.readouterr().out)


def test_every_file_checker_family_has_a_canary():
    """Each registered RAx family keeps at least one live injection
    recipe, and no recipe outlives its family."""
    families = {c[:3] for c in analyze.INJECTIONS}
    assert families == {c[:3] for c in all_codes()}
