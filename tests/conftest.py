"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

import scipy.linalg as sla

from hypothesis import settings

# The weekly scheduled CI run exercises the property tests much harder
# than the per-PR gate; select with HYPOTHESIS_PROFILE=ci (see ci.yml).
settings.register_profile("default", settings())
settings.register_profile("ci", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    """Run ``async def`` tests automatically where pytest-asyncio exists.

    The serving tests drive coroutines through ``asyncio.run`` inside
    plain test functions, so they pass with or without the plugin; this
    just keeps any future native-async tests runnable in CI (which
    installs pytest-asyncio via requirements-ci.txt) without decorating.
    """
    if config.pluginmanager.hasplugin("asyncio"):
        config.option.asyncio_mode = "auto"


@pytest.fixture
def rng() -> np.random.Generator:
    """Seeded generator - deterministic tests."""
    return np.random.default_rng(12345)


def scipy_svdvals(A: np.ndarray) -> np.ndarray:
    """Float64 LAPACK singular values (the accuracy oracle)."""
    return np.asarray(sla.svdvals(np.asarray(A, dtype=np.float64)))


def rel_err(computed: np.ndarray, reference: np.ndarray) -> float:
    """Relative Frobenius error between sorted singular-value vectors."""
    a = np.sort(np.asarray(computed, dtype=np.float64))[::-1]
    b = np.sort(np.asarray(reference, dtype=np.float64))[::-1]
    denom = max(np.linalg.norm(b), 1e-300)
    return float(np.linalg.norm(a - b) / denom)


def same_bytes(x, y):
    """Bitwise equality (a +0.0 / -0.0 difference fails)."""
    np.testing.assert_array_equal(
        np.ascontiguousarray(x).view(np.uint8),
        np.ascontiguousarray(y).view(np.uint8),
    )
