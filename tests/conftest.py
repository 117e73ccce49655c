"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from mlcv import Diffusion1D, SyntheticLowRank, pilot_mlmc
from mlcv.linalg import pivoted_qr, solve_T


@pytest.fixture(scope="session")
def synthetic():
    """Small exactly-low-rank hierarchy used across modules."""
    return SyntheticLowRank(r_true=3, m0=8, refine=2, num_levels=3, input_dim=4, delta=1e-3)


@pytest.fixture(scope="session")
def synthetic_exact():
    """Same hierarchy with the level perturbation switched off (exact rank)."""
    return SyntheticLowRank(r_true=3, m0=8, refine=2, num_levels=3, input_dim=4, delta=0.0)


@pytest.fixture(scope="session")
def synthetic_pilot(synthetic):
    return pilot_mlmc(synthetic, 40, 123)


@pytest.fixture(scope="session")
def diffusion_small():
    """Coarse three-level diffusion hierarchy, cheap enough for unit tests."""
    return Diffusion1D(grids=(7, 15, 31), n_modes=4, kl_grid_n=65)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(987)


def _eager_id(a, *, rank=None, tol=None):
    """The ID's coefficients and residual norm, by the formulas it used when
    it formed both up front; the reference for the deferred ones."""
    n = a.shape[1]
    pqr = pivoted_qr(a, rank=rank, tol=tol)
    r = pqr.rank
    if r == 0:
        return np.zeros((0, n)), float(np.linalg.norm(a, 2))
    t = solve_T(pqr.r11, pqr.r12)
    coeff = np.empty((r, n))
    coeff[:, pqr.permutation[:r]] = np.eye(r)
    coeff[:, pqr.permutation[r:]] = t
    selected = pqr.permutation[:r].copy()
    residual = a - a[:, selected] @ coeff
    return coeff, float(np.linalg.norm(residual, 2))


@pytest.fixture(scope="session")
def eager_id():
    return _eager_id
