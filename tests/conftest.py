"""Shared fixtures for the test suite.

The canonical environment builders live in :mod:`repro.testing` (one
source of truth for tests and ad-hoc scripts); this file only binds
them to pytest fixture names.
"""

import numpy as np
import pytest

from repro.sim import RngRegistry
from repro.testing import make_qat_env


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for tests."""
    return np.random.default_rng(0xDEADBEEF)


@pytest.fixture
def registry() -> RngRegistry:
    return RngRegistry(42)


@pytest.fixture
def qat_env():
    """Factory fixture: build a seeded QAT world on demand (see
    :func:`repro.testing.make_qat_env`)."""
    return make_qat_env
