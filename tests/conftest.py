"""Shared fixtures for the test suite."""

from __future__ import annotations

import math

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
    """The ID's coefficients and residual norm, formed up front by the plain
    formulas; the reference for the deferred ones.  The norm is the square
    root of the largest eigenvalue of the residual's smaller Gram matrix."""
    n = a.shape[1]
    pqr = pivoted_qr(a, rank=rank, tol=tol)
    r = pqr.rank
    coeff = np.empty((r, n))
    coeff[:, pqr.permutation[:r]] = np.eye(r)
    coeff[:, pqr.permutation[r:]] = solve_T(pqr.r11, pqr.r12)
    residual = a - a[:, pqr.permutation[:r]] @ coeff
    gram = residual @ residual.T if a.shape[0] <= n else residual.T @ residual
    return coeff, float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


@pytest.fixture(scope="session")
def eager_id():
    return _eager_id


def _exact_mean(model: SyntheticLowRank, level: int) -> float:
    """E[Q_level] of a ``SyntheticLowRank`` in closed form, from its frozen
    coefficients.

    Each entry of g(xi) has mean b0 + b3 / sqrt(2): the linear term and the
    product of two distinct inputs have mean 0, and E[exp(-z^2 / 2)] is
    1 / sqrt(2) for a standard Gaussian z.  The perturbation weight has
    mean 1, because tanh of a symmetric Gaussian has mean 0.  The quantity
    of interest averages the output entries, so
    E[Q_l] = mean(A_l (b0 + b3 / sqrt(2))) + delta refine^-l mean(p_l).
    """
    g = model._b0 + model._b3 / math.sqrt(2.0)
    pert = model.delta * float(model.refine) ** (-level) * np.mean(model._pert_profile[level])
    return float(np.mean(model._a[level] @ g) + pert)


@pytest.fixture(scope="session")
def exact_mean():
    return _exact_mean
