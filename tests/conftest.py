"""Shared pytest configuration: deterministic hypothesis profile and fixtures."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from dcopt import ProblemInstance, generate_instance, lmax_gram

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# The last bits of numpy's log, power, cbrt and arccos depend on the numpy build
# and on the SIMD kernels it dispatches to, so the pins hold for one of each.
_PINNED_NUMPY = "2.4.6"
_PINNED_SIMD = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]


@pytest.fixture
def pinned_bits():
    """Skips a test that pins digests unless numpy and its SIMD dispatch are the pinned ones."""
    if np.__version__ != _PINNED_NUMPY:
        pytest.skip(f"fingerprints are pinned for numpy {_PINNED_NUMPY}, not {np.__version__}")
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    if found != _PINNED_SIMD:
        pytest.skip(f"fingerprints are pinned for SIMD features {_PINNED_SIMD}, not {found}")
    if os.environ.get("NPY_DISABLE_CPU_FEATURES"):
        pytest.skip("NPY_DISABLE_CPU_FEATURES changes numpy's SIMD dispatch")


@pytest.fixture(scope="session")
def small_instance():
    """One shared (40, 100, 5) problem for solver-level tests."""
    return generate_instance(40, 100, 5, seed=11)


@pytest.fixture(scope="session")
def small_L(small_instance):
    est = lmax_gram(small_instance.A)
    assert est.converged
    return est.value


@pytest.fixture(scope="session")
def overflow_instance():
    """One unit-norm column and b = 1e308 * ones(4), on which A.T b overflows.

    The constructor rejects this b, so it is set after a valid construction;
    that is the only way to reach the solvers' non-finite-iterate guard.
    """
    inst = ProblemInstance(
        A=np.full((4, 1), 0.5),
        b=np.zeros(4),
        ground_truth=np.zeros(1),
        support=np.array([0], dtype=np.int64),
        seed=0,
        noise_scale=0.0,
    )
    object.__setattr__(inst, "b", np.full(4, 1e308))
    return inst


@pytest.fixture()
def rng():
    return np.random.default_rng(0xD1CE)
