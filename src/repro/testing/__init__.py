"""Test/benchmark support package.

Grew out of a single helpers module (PR 3) into the deterministic
simulation-testing harness (PR 8):

- :mod:`repro.testing.helpers` — shared environment builders used by
  ``tests/conftest.py``;
- :mod:`repro.testing.scenario` — seeded random scenario generation
  (config x workload x faults x lifecycle) and execution;
- :mod:`repro.testing.invariants` — cross-layer invariant checkers run
  against the finished world;
- :mod:`repro.testing.shrink` — greedy minimization of failing
  scenario specs.

The helper names are re-exported here so ``from repro.testing import
make_qat_env`` keeps working exactly as before the package split.
"""

from .helpers import (  # noqa: F401
    QatEnv,
    make_job,
    make_qat_env,
    rsa_call,
)

__all__ = ["rsa_call", "make_job", "make_qat_env", "QatEnv"]
