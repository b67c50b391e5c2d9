"""Shared fixtures for the test suite.

The canonical environment builders live in :mod:`repro.testing` (one
source of truth for tests and ad-hoc scripts); this file only binds
them to pytest fixture names.
"""

import pytest

from repro.sim import RngRegistry
from repro.sim.rng import Stream
from repro.testing import make_qat_env


@pytest.fixture
def rng() -> Stream:
    """A deterministic RNG for tests."""
    return Stream(0xDEADBEEF)


@pytest.fixture
def registry() -> RngRegistry:
    return RngRegistry(42)


@pytest.fixture
def qat_env():
    """Factory fixture: build a seeded QAT world on demand (see
    :func:`repro.testing.make_qat_env`)."""
    return make_qat_env
