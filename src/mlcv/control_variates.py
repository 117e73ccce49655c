"""Low-rank control variates for the multilevel estimator.

Each correction level ell >= 1 gets a surrogate correction
Z = Q(q_id) - Q_(l-1), where q_id reconstructs the fine output from the
coarse output through a pair of reduced bases: an interpolative
decomposition picks r pilot columns of the coarse snapshot matrix, the fine
snapshots at the same inputs form the matching fine basis, and a per-sample
least-squares fit transfers coarse coefficients to the fine basis.  Z is
cheap (coarse solves only), so its mean can be pinned down by extra samples
and subtracted:

    W = Y - theta * (Z - Zbar)

with theta chosen from pilot moments.  The level variance drops by the
factor 1 - rho^2 / (1 + Ntilde/Nprime), which is what the allocation uses.
The estimator is the multilevel one of ``mlmc`` with W in place of Y on the
enabled levels; with no level enabled it is plain MLMC, bit for bit.  Since
theta Zbar is one constant per level and plan, the samples reduced are
Y - theta Z, and theta Zbar is added once to the level mean.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import stats
from .errors import ConfigError, DataError, DimensionError
from .linalg import IDFactorization, LeastSquaresOperator, interpolative_decomposition
from .mlmc import (
    AllocationPlan,
    EstimatorResult,
    LevelStats,
    PilotRun,
    _one_or_many,
    _stream_moments,
    _telescope,
    allocate_samples,
    counted_cost,
    pair_counts,
)
from .models import LevelHierarchy
from .streams import PURPOSE_ZBAR

# Default cap on Nprime / Ntilde: past this, extra mean-pinning samples buy
# almost nothing.
S2_DEFAULT = 10


@dataclass(frozen=True)
class ReducedBasisPair:
    """Coarse/fine snapshot bases at matched pilot inputs for one level.

    ``solver`` holds the coarse basis and its factorization, so repeated
    coefficient fits cost one matrix product each.  ``idf`` is the column
    selection's interpolative decomposition, whose ``residual_norm`` is the
    spectral-norm residual; a basis loaded from the pilot cache has none
    (``idf`` is None), because only the pilot command forms the ID.
    """

    level: int
    fine_basis: np.ndarray
    selected_pilot_indices: np.ndarray
    idf: IDFactorization | None
    solver: LeastSquaresOperator


def build_reduced_basis(
    hierarchy: LevelHierarchy,
    level: int,
    pilot: PilotRun,
    *,
    rank: int | None = None,
    tol: float | None = None,
) -> ReducedBasisPair | None:
    """Select basis columns from the pilot's coarse snapshots at ``level``,
    which are level ``level - 1``'s pilot outputs.

    The fine-basis columns are the level's pilot outputs at the selected
    inputs, so no new evaluations happen here; the cost ledger still charges
    the selected pairs to basis construction because they are withheld from
    main-run recycling.  Returns None when tolerance termination finds rank
    0 (every column already below tolerance), in which case the level runs
    without a control variate.
    """
    hierarchy.check_level(level)
    if level < 1:
        raise DimensionError("reduced bases exist for correction levels (level >= 1)")
    snapshots = pilot.levels[level - 1].q
    if snapshots is None:
        raise DataError(
            "the pilot holds no output snapshots: bases are built from a live "
            "pilot, not one loaded from the cache"
        )
    idf = interpolative_decomposition(snapshots, rank=rank, tol=tol)
    if idf.rank == 0:
        return None
    sel = np.sort(idf.selected_indices)
    return ReducedBasisPair(
        level=level,
        fine_basis=np.ascontiguousarray(pilot.levels[level].q[:, sel]),
        selected_pilot_indices=sel,
        idf=idf,
        solver=LeastSquaresOperator(np.ascontiguousarray(snapshots[:, sel])),
    )


def sample_z(
    hierarchy: LevelHierarchy,
    basis: ReducedBasisPair,
    coarse_q: np.ndarray,
    coarse_qoi: np.ndarray,
) -> np.ndarray:
    """Surrogate corrections Z for the columns of a coarse output matrix.

    Fits each column of ``coarse_q`` in the coarse basis, reconstructs the
    fine output with the fine basis, applies the scalar output map, and
    subtracts the matching coarse quantity of interest ``coarse_qoi``.
    """
    q_id = basis.fine_basis @ basis.solver.solve(coarse_q)
    return hierarchy.qoi(basis.level, q_id) - coarse_qoi


def estimate_zbar(
    hierarchy: LevelHierarchy,
    basis: ReducedBasisPair,
    n_prime: int | Sequence[int],
    master_seed: int,
) -> float | list[float]:
    """Mean of ``n_prime`` fresh surrogate corrections, for one count or
    each count of a sequence (one walk of the stream serves them all; only
    the largest count is sure to match its lone walk bit for bit).

    Uses the level's dedicated auxiliary stream and only coarse solves, so
    each mean costs n_prime coarse evaluations.
    """
    counts, single = _one_or_many(n_prime)
    for n in counts:
        if n < 1:
            raise ConfigError(f"n_prime must be positive, got {n}")

    def z(xi):
        coarse = hierarchy.evaluate(basis.level - 1, xi)
        return sample_z(hierarchy, basis, coarse.q, coarse.qoi)

    means = [
        m.mean
        for m in _stream_moments(
            hierarchy, master_seed, PURPOSE_ZBAR, basis.level, counts, z
        )
    ]
    return means[0] if single else means


def theta_star(cov_yz: float, var_z: float, ratio: float) -> float:
    """Variance-optimal control-variate weight.

    With the surrogate mean estimated from Nprime fresh samples, the weight
    that minimizes the combined estimator variance is the regression slope
    cov/var shrunk by 1 / (1 + ratio), ratio = Ntilde / Nprime.
    """
    if not np.isfinite(var_z) or var_z <= 0:
        raise DataError(f"var_z must be positive, got {var_z}")
    if not np.isfinite(ratio) or ratio < 0:
        raise DataError(f"ratio must be finite and non-negative, got {ratio}")
    return (cov_yz / var_z) / (1.0 + ratio)


def allocate_zbar(rho2: float, zeta: float, s2: float = S2_DEFAULT) -> float:
    """Cost-optimal auxiliary sizing multiplier, Nprime = ceil(multiplier *
    Ntilde), from the level's correlation and the coarse-solve cost fraction
    zeta = C(Q_(l-1)) / (C(Q_l) + C(Q_(l-1))).

    The unconstrained optimum is multiplier = s1 - 1 with
    s1 = sqrt(rho2 / (zeta (1 - rho2))); it is clamped to [0, s2].  A
    multiplier of 0 (weak correlation relative to the coarse cost) disables
    the control variate for the level.
    """
    if not np.isfinite(rho2) or rho2 < 0 or rho2 > 1:
        raise DataError(f"rho2 must lie in [0, 1], got {rho2}")
    if not np.isfinite(zeta) or zeta <= 0 or zeta > 1:
        raise DataError(f"zeta must lie in (0, 1], got {zeta}")
    if not np.isfinite(s2) or s2 <= 1:
        raise ConfigError(f"s2 must exceed 1, got {s2}")
    if rho2 >= 1.0:
        return float(s2)
    s1 = math.sqrt(rho2 / (zeta * (1.0 - rho2)))
    return float(min(s2, max(0.0, s1 - 1.0)))


@dataclass(frozen=True)
class CVLevelConfig:
    """One level's control variate, frozen from the pilot.

    ``enabled`` means ``multiplier > 0``: the control variate runs exactly
    on the levels whose auxiliary multiplier is positive.  ``rank`` is the
    number of columns in the level's reduced basis ``basis``, and
    ``pilot_z`` holds the surrogate corrections Z at the pilot inputs; both
    are None exactly when ``rank`` is 0 (level 0 always).
    """

    level: int
    rank: int = 0
    rho2: float = 0.0
    multiplier: float = 0.0
    theta: float = 0.0
    basis: ReducedBasisPair | None = field(default=None, repr=False, compare=False)
    pilot_z: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def enabled(self) -> bool:
        return self.multiplier > 0.0

    @property
    def ratio(self) -> float:
        if not self.enabled:
            raise DataError("ratio undefined for a disabled level")
        return 1.0 / self.multiplier

    @property
    def mse_factor(self) -> float:
        if not self.enabled:
            return 1.0
        return stats.mse_reduction_factor(self.rho2, self.ratio)


def prepare_control_variates(
    hierarchy: LevelHierarchy,
    pilot: PilotRun,
    *,
    rank=None,
    tol: float | None = None,
    s2: float = S2_DEFAULT,
) -> list[CVLevelConfig]:
    """Build bases and freeze the control variate of each level, one record
    per level.

    ``rank`` may be a single value or one value per correction level;
    alternatively pass ``tol`` for tolerance-terminated basis selection.
    """
    n_levels = hierarchy.n_levels
    ranks: list[int | None]
    if rank is not None and tol is not None:
        raise ConfigError("give rank or tol, not both")
    if rank is None and tol is None:
        raise ConfigError("basis termination needed: rank= or tol=")
    if rank is None:
        ranks = [None] * n_levels
    elif np.isscalar(rank):
        ranks = [int(rank)] * n_levels
    else:
        rank = list(rank)
        if len(rank) != n_levels - 1:
            raise DimensionError(
                f"need one rank per correction level ({n_levels - 1}), got {len(rank)}"
            )
        ranks = [None] + [int(r) for r in rank]

    configs = [CVLevelConfig(level=0)]
    for ell in range(1, n_levels):
        basis = build_reduced_basis(hierarchy, ell, pilot, rank=ranks[ell], tol=tol)
        if basis is None:
            configs.append(CVLevelConfig(level=ell))
            continue
        coarse = pilot.levels[ell - 1]
        y = pilot.levels[ell].y
        z = sample_z(hierarchy, basis, coarse.q, coarse.qoi)
        rho2 = stats.rho_squared(y, z)
        st = pilot.stats[ell]
        zeta = st.cost_coarse / st.unit_cost
        multiplier = allocate_zbar(rho2, zeta, s2)
        theta = 0.0
        if multiplier > 0.0:
            cov = stats.sample_covariance(y, z)
            theta = theta_star(cov, stats.RunningMoments.of(z).variance, 1.0 / multiplier)
        configs.append(
            CVLevelConfig(
                level=ell,
                rank=basis.idf.rank,
                rho2=rho2,
                multiplier=multiplier,
                theta=theta,
                basis=basis,
                pilot_z=z,
            )
        )
    return configs


def allocate_mlcv(
    level_stats: list[LevelStats],
    configs: list[CVLevelConfig],
    epsilon: float,
) -> AllocationPlan:
    """Coupled-sample plan under control variates.

    Each enabled level's variance enters the standard allocation shrunk by
    its reduction factor; the auxiliary counts follow as
    Nprime = ceil(multiplier * Ntilde).
    """
    if len(configs) != len(level_stats):
        raise DimensionError("configs and level_stats must align")
    v_eff = []
    for st, cfg in zip(level_stats, configs):
        v_eff.append(st.var_y * cfg.mse_factor)
    costs = [st.unit_cost for st in level_stats]
    counts = allocate_samples(v_eff, costs, epsilon)
    n_prime = tuple(
        math.ceil(cfg.multiplier * n) if cfg.enabled else 0 for cfg, n in zip(configs, counts)
    )
    return AllocationPlan(n_samples=counts, n_prime=n_prime)


def _controlled_correction(hierarchy: LevelHierarchy, basis: ReducedBasisPair, theta: float):
    """Per-batch map from inputs to the level's Y - theta Z, the controlled
    correction without its constant theta Zbar."""

    def w(xi):
        fine = hierarchy.qoi_of(basis.level, xi)
        coarse = hierarchy.evaluate(basis.level - 1, xi)
        return fine - coarse.qoi - theta * sample_z(hierarchy, basis, coarse.q, coarse.qoi)

    return w


def run_mlcv(
    hierarchy: LevelHierarchy,
    plans: AllocationPlan | Sequence[AllocationPlan],
    pilot: PilotRun,
    setup: list[CVLevelConfig],
) -> EstimatorResult | list[EstimatorResult]:
    """Control-variate estimate under each plan of ``plans``: sum over levels
    of mean(Y - theta (Z - Zbar)).

    Per enabled level: the auxiliary means Zbar, one per plan, come first
    from its own stream (coarse solves only); the coupled samples then
    replay the pilot pairs not consumed by the basis and top up from the
    level's main stream.  These samples are Y - theta Z, the same for every
    plan, and each plan's level mean is their mean plus theta Zbar.
    Disabled levels (including level 0) are plain MLMC levels, replaying
    all pilot samples.  Each stream is walked once for all plans; at each
    level only the plan with the largest count is sure to match its lone
    run bit for bit (see ``mlmc._BATCH``).  A sequence of plans gives a
    list of results in the same order; a single plan gives its one result.
    """
    plans, single = _one_or_many(plans)
    n_levels = hierarchy.n_levels
    if pilot.n_levels != n_levels or any(len(p.n_samples) != n_levels for p in plans):
        raise DimensionError("plan, pilot, and hierarchy level counts must agree")
    if len(setup) != n_levels:
        raise DimensionError("setup level count does not match hierarchy")
    if any(plan.n_prime is None for plan in plans):
        raise ConfigError("plan lacks auxiliary counts; use allocate_mlcv")
    controls = {}
    for ell, cfg in enumerate(setup):
        if not cfg.enabled:
            continue
        n_primes = [plan.n_prime[ell] for plan in plans]
        zbars = estimate_zbar(hierarchy, cfg.basis, n_primes, pilot.master_seed)
        keep = np.delete(np.arange(pilot.n_pilot), cfg.basis.selected_pilot_indices)
        controls[ell] = (
            _controlled_correction(hierarchy, cfg.basis, cfg.theta),
            (pilot.levels[ell].y - cfg.theta * cfg.pilot_z)[keep],
            cfg.theta,
            list(zip(n_primes, zbars)),
            cfg.mse_factor,
        )
    results = _telescope(hierarchy, plans, pilot, controls)
    return results[0] if single else results


def nominal_mlcv_cost(
    level_stats: list[LevelStats], plan: AllocationPlan, setup: list[CVLevelConfig]
) -> float:
    """Plan-implied cost of a control-variate run: coupled samples plus basis
    pairs at each correction level, plus the auxiliary coarse solves, at the
    declared unit costs of ``level_stats``."""
    if plan.n_prime is None:
        raise ConfigError("plan lacks auxiliary counts; use allocate_mlcv")
    counts = [
        pair_counts(ell, n + (cfg.rank if cfg.enabled else 0), n_prime)
        for ell, (cfg, n, n_prime) in enumerate(zip(setup, plan.n_samples, plan.n_prime))
    ]
    return counted_cost(counts, level_stats)


def nominal_mlmc_cost(level_stats: list[LevelStats], plan: AllocationPlan) -> float:
    """Plan-implied cost of a plain multilevel run."""
    return counted_cost(
        [pair_counts(ell, n) for ell, n in enumerate(plan.n_samples)], level_stats
    )

