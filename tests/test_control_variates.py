"""Tests for the low-rank control-variate machinery."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from mlcv import (
    PURPOSE_ORACLE,
    PURPOSE_PILOT,
    PURPOSE_ZBAR,
    AllocationPlan,
    ConfigError,
    CVLevelConfig,
    DataError,
    DimensionError,
    RunningMoments,
    SyntheticLowRank,
    allocate_mlcv,
    allocate_mlmc,
    allocate_zbar,
    build_reduced_basis,
    counted_cost,
    draw_inputs,
    estimate_zbar,
    nominal_mlcv_cost,
    nominal_mlmc_cost,
    pilot_mlmc,
    prepare_control_variates,
    rho_squared,
    run_mlcv,
    run_mlmc,
    sample_covariance,
    sample_z,
    theta_star,
)
from tests.test_mlmc import make_stats


def all_off(setup):
    """The setup with every level's control variate off: zero correlation,
    multiplier and coefficient, bases and pilot Z kept."""
    return [dataclasses.replace(c, rho2=0.0, multiplier=0.0, theta=0.0) for c in setup]


class TestAllocateZbar:
    def test_moderate_correlation(self):
        multiplier = allocate_zbar(0.5, 0.5)
        assert multiplier == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)
        assert multiplier == pytest.approx(0.41421356, abs=1e-8)
        cfg = CVLevelConfig(level=1, multiplier=multiplier)
        assert cfg.enabled
        assert cfg.ratio == pytest.approx(1.0 / multiplier)
        assert math.ceil(multiplier * 10) == 5

    def test_weak_correlation_disables(self):
        multiplier = allocate_zbar(0.2, 1.0)
        assert multiplier == 0.0
        cfg = CVLevelConfig(level=1, multiplier=multiplier)
        assert not cfg.enabled
        assert math.ceil(multiplier * 1000) == 0
        with pytest.raises(DataError):
            _ = cfg.ratio

    @pytest.mark.parametrize("s2", [1.5, 10.0])
    @pytest.mark.parametrize("zeta", [1e-12, 0.5, 1.0])
    def test_zero_correlation_disables(self, zeta, s2):
        """rho2 = 0, as a zero-variance pilot gives, switches a level off for
        every valid cost fraction and cap."""
        assert allocate_zbar(0.0, zeta, s2) == 0.0

    def test_strong_correlation_capped(self):
        multiplier = allocate_zbar(0.99, 0.1)
        assert math.sqrt(0.99 / (0.1 * 0.01)) > 11.0
        assert multiplier == 10.0

    def test_perfect_correlation_uses_cap(self):
        assert allocate_zbar(1.0, 0.5) == 10.0
        assert allocate_zbar(1.0, 0.5, s2=25) == 25.0

    def test_validation(self):
        with pytest.raises(DataError):
            allocate_zbar(1.5, 0.5)
        with pytest.raises(DataError):
            allocate_zbar(0.5, 0.0)
        with pytest.raises(DataError):
            allocate_zbar(0.5, 1.5)
        with pytest.raises(ConfigError):
            allocate_zbar(0.5, 0.5, s2=1.0)


class TestThetaStar:
    def test_exact_mean_limit(self):
        assert theta_star(2.0, 2.0, 0.0) == 1.0

    def test_unit_ratio_halves(self):
        assert theta_star(2.0, 2.0, 1.0) == 0.5

    def test_zero_covariance(self):
        assert theta_star(0.0, 1.0, 0.3) == 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            theta_star(1.0, 0.0, 0.1)
        with pytest.raises(DataError):
            theta_star(1.0, 1.0, -0.5)


class TestBuildReducedBasis:
    def test_exact_rank_recovered_by_tolerance(self, synthetic_exact):
        pilot = pilot_mlmc(synthetic_exact, 40, 123)
        basis = build_reduced_basis(synthetic_exact, 1, pilot, tol=1e-8)
        assert basis.idf.rank == synthetic_exact.r_true == 3

    def test_basis_columns_are_pilot_snapshots(self, synthetic, synthetic_pilot):
        basis = build_reduced_basis(synthetic, 1, synthetic_pilot, rank=3)
        sel = basis.selected_pilot_indices
        assert np.all(np.diff(sel) > 0)
        assert np.array_equal(basis.solver.a, synthetic_pilot.levels[0].q[:, sel])
        assert np.array_equal(basis.fine_basis, synthetic_pilot.levels[1].q[:, sel])
        xi = draw_inputs(
            synthetic_pilot.master_seed,
            PURPOSE_PILOT,
            0,
            0,
            synthetic_pilot.n_pilot,
            synthetic.input_dim,
        )
        assert np.array_equal(synthetic.evaluate(0, xi[sel]).q, basis.solver.a)
        assert np.array_equal(synthetic.evaluate(1, xi[sel]).q, basis.fine_basis)
        assert sel.size == basis.idf.rank == 3

    def test_square_pilot_selects_everything(self, synthetic):
        pilot = pilot_mlmc(synthetic, 3, 5)
        basis = build_reduced_basis(synthetic, 1, pilot, rank=3)
        assert np.array_equal(basis.selected_pilot_indices, [0, 1, 2])
        assert np.array_equal(basis.solver.a, pilot.levels[0].q)

    def test_id_residual_bound(self, synthetic, synthetic_pilot):
        basis = build_reduced_basis(synthetic, 2, synthetic_pilot, rank=2)
        u = synthetic_pilot.levels[1].q
        sigma = np.linalg.svd(u, compute_uv=False)
        n_cols = u.shape[1]
        assert basis.idf.residual_norm <= 1.5 * math.sqrt(2 * (n_cols - 2) + 1) * sigma[2]

    def test_rank_zero_returns_none(self, synthetic, synthetic_pilot):
        assert build_reduced_basis(synthetic, 1, synthetic_pilot, tol=1e12) is None

    def test_validation(self, synthetic, synthetic_pilot):
        with pytest.raises(DimensionError):
            build_reduced_basis(synthetic, 0, synthetic_pilot, rank=2)
        with pytest.raises(DimensionError):
            build_reduced_basis(synthetic, 1, synthetic_pilot, rank=60)


class TestSampleZ:
    def test_interpolates_exactly_at_basis_points(self, synthetic, synthetic_pilot):
        basis = build_reduced_basis(synthetic, 1, synthetic_pilot, rank=3)
        coarse = synthetic_pilot.levels[0]
        for k, idx in enumerate(basis.selected_pilot_indices):
            z = sample_z(synthetic, basis, coarse.q[:, [idx]], coarse.qoi[[idx]])
            y = synthetic_pilot.levels[1].y[idx]
            assert z[0] == pytest.approx(y, rel=1e-9, abs=1e-12)

    def test_reproduces_y_on_exact_low_rank_model(self, synthetic_exact):
        pilot = pilot_mlmc(synthetic_exact, 40, 123)
        basis = build_reduced_basis(synthetic_exact, 1, pilot, rank=3)
        xi = draw_inputs(99, PURPOSE_ZBAR, 1, 0, 50, synthetic_exact.input_dim)
        fine = synthetic_exact.evaluate(1, xi)
        coarse = synthetic_exact.evaluate(0, xi)
        z = sample_z(synthetic_exact, basis, coarse.q, coarse.qoi)
        y = fine.qoi - coarse.qoi
        assert np.all(np.abs(z - y) <= 1e-6 * np.abs(y) + 1e-10)

    def test_batch_consistent_with_columns(self, synthetic, synthetic_pilot):
        basis = build_reduced_basis(synthetic, 1, synthetic_pilot, rank=3)
        coarse = synthetic_pilot.levels[0]
        batch = sample_z(synthetic, basis, coarse.q[:, :6], coarse.qoi[:6])
        for j in range(6):
            single = sample_z(synthetic, basis, coarse.q[:, [j]], coarse.qoi[[j]])
            assert single[0] == pytest.approx(batch[j], rel=1e-10, abs=1e-13)

    def test_high_correlation_with_y(self, synthetic, synthetic_pilot):
        basis = build_reduced_basis(synthetic, 1, synthetic_pilot, rank=3)
        coarse = synthetic_pilot.levels[0]
        z = sample_z(synthetic, basis, coarse.q, coarse.qoi)
        assert rho_squared(synthetic_pilot.levels[1].y, z) >= 0.99


@pytest.mark.parametrize("call", ["evaluate", "qoi", "sample_z", "solve"])
def test_vector_argument_raises_dimension_error(call, synthetic, synthetic_pilot):
    """Inputs, outputs and right-hand sides are matrices: a vector, even one
    of the right length, is rejected rather than read as one column."""
    basis = build_reduced_basis(synthetic, 1, synthetic_pilot, rank=3)
    coarse = synthetic_pilot.levels[0]
    calls = {
        "evaluate": lambda: synthetic.evaluate(0, np.zeros(synthetic.input_dim)),
        "qoi": lambda: synthetic.qoi(0, coarse.q[:, 0]),
        "sample_z": lambda: sample_z(synthetic, basis, coarse.q[:, 0], coarse.qoi[:1]),
        "solve": lambda: basis.solver.solve(coarse.q[:, 0]),
    }
    with pytest.raises(DimensionError):
        calls[call]()


class TestEstimateZbar:
    def test_deterministic_and_matches_manual_stream(self, synthetic, synthetic_pilot):
        basis = build_reduced_basis(synthetic, 1, synthetic_pilot, rank=3)
        a = estimate_zbar(synthetic, basis, 37, 123)
        b = estimate_zbar(synthetic, basis, 37, 123)
        assert a == b
        xi = draw_inputs(123, PURPOSE_ZBAR, 1, 0, 37, synthetic.input_dim)
        coarse = synthetic.evaluate(0, xi)
        manual = sample_z(synthetic, basis, coarse.q, coarse.qoi).mean()
        assert a == pytest.approx(manual, rel=1e-12)

    def test_single_sample(self, synthetic, synthetic_pilot):
        basis = build_reduced_basis(synthetic, 1, synthetic_pilot, rank=3)
        zbar = estimate_zbar(synthetic, basis, 1, 123)
        xi = draw_inputs(123, PURPOSE_ZBAR, 1, 0, 1, synthetic.input_dim)
        coarse = synthetic.evaluate(0, xi)
        assert zbar == sample_z(synthetic, basis, coarse.q, coarse.qoi)[0]

    def test_approaches_correction_mean_on_exact_model(self, synthetic_exact):
        pilot = pilot_mlmc(synthetic_exact, 40, 123)
        basis = build_reduced_basis(synthetic_exact, 1, pilot, rank=3)
        n_prime = 4000
        zbar = estimate_zbar(synthetic_exact, basis, n_prime, 321)
        # coupled reference: same inputs at both levels so the error scales
        # with the small correction variance rather than the QoI variance
        xi = draw_inputs(5, PURPOSE_ORACLE, 1, 0, 100_000, synthetic_exact.input_dim)
        y = synthetic_exact.evaluate(1, xi).qoi - synthetic_exact.evaluate(0, xi).qoi
        coarse = pilot.levels[0]
        z = sample_z(synthetic_exact, basis, coarse.q, coarse.qoi)
        sigma_z = math.sqrt(np.var(z, ddof=1))
        tol = 3.0 * (sigma_z / math.sqrt(n_prime) + y.std(ddof=1) / math.sqrt(y.size))
        assert abs(zbar - y.mean()) <= tol

    def test_validation(self, synthetic, synthetic_pilot):
        basis = build_reduced_basis(synthetic, 1, synthetic_pilot, rank=3)
        with pytest.raises(ConfigError):
            estimate_zbar(synthetic, basis, 0, 123)


class TestPrepareControlVariates:
    def test_level_zero_always_disabled(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        assert not setup[0].enabled
        assert setup[0].basis is None
        assert setup[0].rank == 0

    def test_synthetic_high_rho2(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        for cfg in setup[1:]:
            assert cfg.enabled
            assert cfg.rho2 >= 0.99

    def test_frozen_parameters_recomputable(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        for ell in (1, 2):
            cfg = setup[ell]
            st = synthetic_pilot.stats[ell]
            zeta = st.cost_coarse / (st.cost_fine + st.cost_coarse)
            assert cfg.multiplier == allocate_zbar(cfg.rho2, zeta)
            y, z = synthetic_pilot.levels[ell].y, setup[ell].pilot_z
            cov_yz, var_z = sample_covariance(y, z), RunningMoments.of(z).variance
            assert cfg.theta == theta_star(cov_yz, var_z, cfg.ratio)
            assert cfg.mse_factor == pytest.approx(
                1.0 - cfg.rho2 / (1.0 + cfg.ratio), rel=1e-12
            )

    def test_pilot_z_matches_sample_z(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        coarse = synthetic_pilot.levels[0]
        z = sample_z(synthetic, setup[1].basis, coarse.q, coarse.qoi)
        assert np.array_equal(setup[1].pilot_z, z)

    def test_all_off_setup_disables_everything(self, synthetic, synthetic_pilot):
        setup = all_off(prepare_control_variates(synthetic, synthetic_pilot, rank=3))
        for cfg in setup:
            assert not cfg.enabled
            assert cfg.rho2 == 0.0
            assert cfg.mse_factor == 1.0
            assert cfg.multiplier == 0.0
        # the bases and pilot Z stay, but a disabled level withholds no pilot pairs
        assert setup[1].basis is not None and setup[1].pilot_z is not None
        plan = allocate_mlcv(synthetic_pilot.stats, setup, 0.05)
        assert nominal_mlcv_cost(synthetic_pilot.stats, plan, setup) == nominal_mlmc_cost(
            synthetic_pilot.stats, plan
        )

    def test_rank_list_per_correction_level(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=[2, 3])
        assert [c.rank for c in setup] == [0, 2, 3]
        with pytest.raises(DimensionError):
            prepare_control_variates(synthetic, synthetic_pilot, rank=[2])

    def test_tolerance_mode(self, synthetic_exact):
        pilot = pilot_mlmc(synthetic_exact, 40, 123)
        setup = prepare_control_variates(synthetic_exact, pilot, tol=1e-8)
        assert [c.rank for c in setup] == [0, 3, 3]

    def test_termination_validation(self, synthetic, synthetic_pilot):
        with pytest.raises(ConfigError):
            prepare_control_variates(synthetic, synthetic_pilot)
        with pytest.raises(ConfigError):
            prepare_control_variates(synthetic, synthetic_pilot, rank=3, tol=1e-8)

    def test_deterministic_model_degenerates(self, unit_diffusion):
        h = unit_diffusion(grids=(7, 15), n_modes=2, kl_grid_n=33)
        pilot = pilot_mlmc(h, 10, 0)
        setup = prepare_control_variates(h, pilot, rank=2)
        # pilot Y and Z both have zero variance here, so rho2 = 0 alone
        # switches the level off
        assert not setup[1].enabled
        assert setup[1].rho2 == 0.0
        assert setup[1].multiplier == 0.0
        assert setup[1].theta == 0.0


class TestAllocateMlcv:
    def test_hand_derived_plan(self):
        stats = [make_stats(0, 4.0, 1.0), make_stats(1, 1.0, 3.0, 1.0)]
        configs = [
            CVLevelConfig(level=0),
            CVLevelConfig(level=1, rank=2, rho2=0.96, multiplier=10.0, theta=0.5),
        ]
        assert configs[1].mse_factor == pytest.approx(1.0 - 0.96 / 1.1, rel=1e-12)
        plan = allocate_mlcv(stats, configs, math.sqrt(2.0))
        # Effective variances (4.0, ~0.1273) with costs (1, 4): proportional
        # rounding gives (6, 2), but (5, 2) still satisfies the budget
        # (4/5 + 0.1273/2 = 0.864 <= 1) at strictly lower cost, and the
        # refinement pass finds it.
        assert plan.n_samples == (5, 2)
        assert plan.n_prime == (0, 20)

    def test_all_disabled_matches_plain_allocation(self, synthetic_pilot):
        configs = [CVLevelConfig(level=k) for k in range(3)]
        plan = allocate_mlcv(synthetic_pilot.stats, configs, 0.05)
        plain = allocate_mlmc(synthetic_pilot.stats, 0.05)
        assert plan.n_samples == plain.n_samples
        assert plan.n_prime == (0, 0, 0)

    def test_enabled_follows_multiplier(self):
        assert CVLevelConfig(level=1, rho2=0.9, multiplier=0.5).enabled
        cfg = CVLevelConfig(level=1, rho2=0.9)
        assert not cfg.enabled
        assert cfg.mse_factor == 1.0
        stats = [make_stats(0, 4.0, 1.0), make_stats(1, 1.0, 3.0, 1.0)]
        plan = allocate_mlcv(stats, [CVLevelConfig(level=0), cfg], 0.1)
        assert plan.n_samples == allocate_mlmc(stats, 0.1).n_samples
        assert plan.n_prime == (0, 0)

    def test_vanishing_effective_variance_floors(self):
        stats = [make_stats(0, 4.0, 1.0), make_stats(1, 1.0, 3.0, 1.0)]
        configs = [
            CVLevelConfig(level=0),
            CVLevelConfig(level=1, rank=2, rho2=1.0, multiplier=1e9, theta=1.0),
        ]
        plan = allocate_mlcv(stats, configs, 0.05)
        assert plan.n_samples[1] == 2

    def test_effective_variance_budget(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        epsilon = 0.02
        plan = allocate_mlcv(synthetic_pilot.stats, setup, epsilon)
        budget = sum(
            (s.var_y * cfg.mse_factor) / n
            for s, cfg, n in zip(synthetic_pilot.stats, setup, plan.n_samples)
        )
        assert budget <= epsilon**2 / 2.0 + 1e-12

    def test_cheaper_than_plain_plan_when_correlated(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        plan_cv = allocate_mlcv(synthetic_pilot.stats, setup, 0.01)
        plan_plain = allocate_mlmc(synthetic_pilot.stats, 0.01)
        for enabled, n_cv, n_plain in zip(
            [c.enabled for c in setup], plan_cv.n_samples, plan_plain.n_samples
        ):
            if enabled:
                assert n_cv <= n_plain

    def test_misaligned_inputs(self, synthetic_pilot):
        with pytest.raises(DimensionError):
            allocate_mlcv(synthetic_pilot.stats, [CVLevelConfig(level=0)], 0.1)


class TestRunMlcv:
    def test_degenerates_to_mlmc_bitwise(self, synthetic, synthetic_pilot):
        setup = all_off(prepare_control_variates(synthetic, synthetic_pilot, rank=3))
        plan = allocate_mlcv(synthetic_pilot.stats, setup, 0.05)
        result_cv = run_mlcv(synthetic, plan, synthetic_pilot, setup)
        plain_plan = AllocationPlan(n_samples=plan.n_samples)
        result_plain = run_mlmc(synthetic, plain_plan, synthetic_pilot)
        assert result_cv.estimate == result_plain.estimate
        assert result_cv.level_estimates == result_plain.level_estimates
        assert result_cv.total_cost == result_plain.total_cost
        assert result_cv.zbar_values == (0.0, 0.0, 0.0)
        # the whole result, down to sampling_error, eval_counts, per-level
        # variances and zbar_values, is the plain estimator's
        assert result_cv == result_plain

    def test_recycles_complement_of_basis_pairs(self, synthetic, synthetic_pilot):
        """With the coupled count equal to the recyclable pilot pairs, the
        level mean is exactly the mean of W over the non-basis pilot pairs."""
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        n_p = synthetic_pilot.n_pilot
        plan = AllocationPlan(
            n_samples=(n_p, n_p - 3, n_p - 3), n_prime=(0, 5, 5)
        )
        result = run_mlcv(synthetic, plan, synthetic_pilot, setup)
        for ell in (1, 2):
            cfg = setup[ell]
            keep = np.setdiff1d(
                np.arange(n_p), setup[ell].basis.selected_pilot_indices
            )
            w = (
                synthetic_pilot.levels[ell].y[keep]
                - cfg.theta * (setup[ell].pilot_z[keep] - result.zbar_values[ell])
            )
            assert result.level_estimates[ell] == pytest.approx(w.mean(), rel=1e-12)
            # no fresh coupled solves: pilot evaluations only
            assert result.eval_counts[ell].fine_evals == n_p

    def test_zbar_values_match_direct_estimates(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        plan = allocate_mlcv(synthetic_pilot.stats, setup, 0.05)
        result = run_mlcv(synthetic, plan, synthetic_pilot, setup)
        for ell in (1, 2):
            direct = estimate_zbar(
                synthetic, setup[ell].basis, plan.n_prime[ell], synthetic_pilot.master_seed
            )
            assert result.zbar_values[ell] == direct

    def test_cost_identity_from_counts(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        plan = AllocationPlan(
            n_samples=(100, 50, 40), n_prime=(0, 7, 9)
        )
        result = run_mlcv(synthetic, plan, synthetic_pilot, setup)
        expected = (
            100 * 8.0
            + (50 + 3) * (16.0 + 8.0) + 7 * 8.0
            + (40 + 3) * (32.0 + 16.0) + 9 * 16.0
        )
        assert result.total_cost == expected
        assert result.total_cost == counted_cost(result.eval_counts, synthetic_pilot.stats)
        assert result.total_cost == pytest.approx(
            nominal_mlcv_cost(synthetic_pilot.stats, plan, setup), rel=1e-14
        )
        counts = {c.level: c for c in result.eval_counts}
        assert counts[1].aux_coarse_evals == 7
        assert counts[2].aux_coarse_evals == 9

    def test_sampling_error_identity(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        plan = allocate_mlcv(synthetic_pilot.stats, setup, 0.03)
        result = run_mlcv(synthetic, plan, synthetic_pilot, setup)
        expected = sum(
            (s.var_y / n) * cfg.mse_factor
            for s, cfg, n in zip(synthetic_pilot.stats, setup, plan.n_samples)
        )
        assert result.sampling_error == pytest.approx(expected, rel=1e-14)

    def test_variance_reduction_on_enabled_levels(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        plan = AllocationPlan(
            n_samples=(200, 200, 200), n_prime=(0, 50, 50)
        )
        result_cv = run_mlcv(synthetic, plan, synthetic_pilot, setup)
        plain = run_mlmc(
            synthetic, AllocationPlan(n_samples=(200, 200, 200)), synthetic_pilot
        )
        for ell in (1, 2):
            var_w = result_cv.sample_variances[ell]
            var_y = plain.sample_variances[ell]
            slack = 3.0 * var_y * math.sqrt(2.0 / 199.0)
            assert var_w <= var_y * setup[ell].mse_factor + slack
            assert var_w <= 0.05 * var_y

    def test_estimator_mean_unbiased_over_seeds(self, synthetic, exact_mean):
        estimates = []
        for seed in range(200):
            pilot = pilot_mlmc(synthetic, 30, 1000 + seed)
            setup = prepare_control_variates(synthetic, pilot, rank=3)
            plan = allocate_mlcv(pilot.stats, setup, 0.15)
            estimates.append(run_mlcv(synthetic, plan, pilot, setup).estimate)
        est = np.asarray(estimates)
        se = est.std(ddof=1) / math.sqrt(est.size)
        assert abs(est.mean() - exact_mean(synthetic, synthetic.finest_level)) <= 3.0 * se

    def test_plan_without_n_prime_rejected(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        plain = AllocationPlan(n_samples=(40, 40, 40))
        with pytest.raises(ConfigError):
            run_mlcv(synthetic, plain, synthetic_pilot, setup)

    def test_same_seed_bitwise_identical(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        plan = allocate_mlcv(synthetic_pilot.stats, setup, 0.04)
        a = run_mlcv(synthetic, plan, synthetic_pilot, setup)
        b = run_mlcv(synthetic, plan, synthetic_pilot, setup)
        assert a.estimate == b.estimate
        assert a.level_estimates == b.level_estimates
        assert a.zbar_values == b.zbar_values
        assert a.total_cost == b.total_cost


class TestNominalCosts:
    def test_mlmc_formula(self, synthetic_pilot):
        plan = AllocationPlan(n_samples=(10, 20, 30))
        expected = 10 * 8.0 + 20 * 24.0 + 30 * 48.0
        assert nominal_mlmc_cost(synthetic_pilot.stats, plan) == expected

    def test_mlcv_includes_basis_and_aux(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        plan = AllocationPlan(n_samples=(10, 20, 30), n_prime=(0, 4, 6))
        expected = 10 * 8.0 + (20 + 3) * 24.0 + 4 * 8.0 + (30 + 3) * 48.0 + 6 * 16.0
        assert nominal_mlcv_cost(synthetic_pilot.stats, plan, setup) == expected

    def test_mlcv_requires_n_prime(self, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        with pytest.raises(ConfigError):
            nominal_mlcv_cost(
                synthetic_pilot.stats, AllocationPlan(n_samples=(2, 2, 2)), setup
            )


class TestRelativeErrorCurve:
    def test_decreases_on_average_over_seeds(self, synthetic, exact_mean):
        exact = exact_mean(synthetic, synthetic.finest_level)
        curves = []
        for seed in range(10):
            pilot = pilot_mlmc(synthetic, 30, 2000 + seed)
            setup = prepare_control_variates(synthetic, pilot, rank=3)
            plan = allocate_mlcv(pilot.stats, setup, 0.05)
            result = run_mlcv(synthetic, plan, pilot, setup)
            curves.append(np.abs(np.cumsum(result.level_estimates) - exact))
        mean_curve = np.mean(curves, axis=0)
        assert mean_curve[-1] < mean_curve[0]
