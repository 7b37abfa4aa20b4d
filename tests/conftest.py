"""Shared fixtures: machines and matmul cases sized for fast tests."""

from __future__ import annotations

import pytest

from repro.machine import FAST_TEST_MACHINE, SUN_BLADE_100
from repro.matmul import MatmulCase
from repro.navp import ir, kernels


@pytest.fixture(autouse=True, scope="module")
def _registry_hygiene():
    """Each test module leaves the program registry and the kernel
    table as it found them: programs a module registers (``lint
    --all`` and the race pass walk every registered root) must not
    change what a later module sees, whatever the file order."""
    programs = dict(ir.REGISTRY)
    table = dict(kernels.KERNELS)
    yield
    ir.REGISTRY.clear()
    ir.REGISTRY.update(programs)
    kernels.KERNELS.clear()
    kernels.KERNELS.update(table)


@pytest.fixture
def paper_machine():
    """The calibrated SUN Blade 100 model."""
    return SUN_BLADE_100


@pytest.fixture
def test_machine():
    """Slow flops, fast network: compute-dominated, easy to reason about."""
    return FAST_TEST_MACHINE


@pytest.fixture
def small_case():
    """A real (non-shadow) case divisible by 2, 3 and 4 PE geometries."""
    return MatmulCase(n=48, ab=4, seed=101)


@pytest.fixture
def paper_case_shadow():
    """Table 1/4's smallest row, in shadow mode."""
    return MatmulCase(n=1536, ab=128, shadow=True)
