"""Multilevel Monte Carlo estimation with low-rank control variates.

The package estimates E[Q] for models with a hierarchy of discretization
levels.  A pilot run measures per-level statistics and builds reduced bases
by interpolative decomposition of coarse solution snapshots; the main run
then couples each level correction with a cheap surrogate control variate
and allocates samples to meet a target accuracy at minimum cost.

Layers, bottom up: ``streams`` (reproducible counter-based input sampling),
``stats`` (deterministic moment estimators), ``linalg`` (pivoted QR,
interpolative decomposition, least squares), ``models`` (built-in level
hierarchies), ``mlmc`` (pilot, rates, allocation, telescoping estimator),
``control_variates`` (reduced bases, surrogate corrections, the extended
estimator), ``cache`` (deterministic persistence), ``cli`` (driver).
"""

from .cache import (
    CACHE_SCHEMA,
    canonical_json,
    config_sha,
    load_pilot_cache,
    load_setup,
    save_pilot_cache,
)
from .control_variates import (
    S2_DEFAULT,
    CVLevelConfig,
    ReducedBasisPair,
    allocate_mlcv,
    allocate_zbar,
    build_reduced_basis,
    estimate_zbar,
    nominal_mlcv_cost,
    nominal_mlmc_cost,
    prepare_control_variates,
    run_mlcv,
    sample_z,
    theta_star,
)
from .errors import ConfigError, DataError, DimensionError, NumericalError
from .linalg import (
    IDFactorization,
    LeastSquaresOperator,
    PivotedQR,
    interpolative_decomposition,
    pivoted_qr,
)
from .mlmc import (
    N_MIN,
    AllocationPlan,
    EstimatorResult,
    LevelEvalCounts,
    LevelStats,
    PilotRun,
    RateFit,
    allocate_mlmc,
    allocate_samples,
    bias_check,
    counted_cost,
    fit_rates,
    mc_cost_reference,
    mc_oracle_mean,
    pilot_mlmc,
    run_mc,
    run_mlmc,
)
from .models import (
    Diffusion1D,
    KLField,
    LevelHierarchy,
    LevelOutput,
    LevelSubset,
    SyntheticLowRank,
    kl_decompose,
    kl_modes_at,
    make_kernel,
    trapezoid_weights,
)
from .stats import (
    RunningMoments,
    mse_reduction_factor,
    rho_squared,
    sample_covariance,
)
from .streams import (
    PURPOSE_MAIN_Y,
    PURPOSE_ORACLE,
    PURPOSE_PILOT,
    PURPOSE_ZBAR,
    draw_inputs,
)

__version__ = "0.1.0"

__all__ = [
    "AllocationPlan",
    "CACHE_SCHEMA",
    "CVLevelConfig",
    "ConfigError",
    "DataError",
    "Diffusion1D",
    "DimensionError",
    "EstimatorResult",
    "IDFactorization",
    "KLField",
    "LeastSquaresOperator",
    "LevelEvalCounts",
    "LevelHierarchy",
    "LevelOutput",
    "LevelStats",
    "LevelSubset",
    "N_MIN",
    "NumericalError",
    "PURPOSE_MAIN_Y",
    "PURPOSE_ORACLE",
    "PURPOSE_PILOT",
    "PURPOSE_ZBAR",
    "PilotRun",
    "PivotedQR",
    "RateFit",
    "ReducedBasisPair",
    "RunningMoments",
    "S2_DEFAULT",
    "SyntheticLowRank",
    "allocate_mlcv",
    "allocate_mlmc",
    "allocate_samples",
    "allocate_zbar",
    "bias_check",
    "build_reduced_basis",
    "canonical_json",
    "config_sha",
    "counted_cost",
    "draw_inputs",
    "estimate_zbar",
    "fit_rates",
    "interpolative_decomposition",
    "kl_decompose",
    "kl_modes_at",
    "load_pilot_cache",
    "load_setup",
    "make_kernel",
    "mc_cost_reference",
    "mc_oracle_mean",
    "mse_reduction_factor",
    "nominal_mlcv_cost",
    "nominal_mlmc_cost",
    "pilot_mlmc",
    "pivoted_qr",
    "prepare_control_variates",
    "rho_squared",
    "run_mc",
    "run_mlcv",
    "run_mlmc",
    "sample_covariance",
    "sample_z",
    "save_pilot_cache",
    "theta_star",
    "trapezoid_weights",
]
