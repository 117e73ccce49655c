"""Tests for pilot runs, rate fits, sample allocation, and the telescoping estimator."""

from __future__ import annotations

import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlcv import (
    N_MIN,
    PURPOSE_MAIN_Y,
    PURPOSE_ORACLE,
    PURPOSE_PILOT,
    PURPOSE_ZBAR,
    AllocationPlan,
    ConfigError,
    DataError,
    DimensionError,
    LevelHierarchy,
    LevelStats,
    RunningMoments,
    SyntheticLowRank,
    allocate_mlcv,
    allocate_mlmc,
    allocate_samples,
    bias_check,
    counted_cost,
    draw_inputs,
    estimate_zbar,
    fit_rates,
    mc_cost_reference,
    mc_oracle_mean,
    nominal_mlmc_cost,
    pilot_mlmc,
    prepare_control_variates,
    run_mc,
    run_mlcv,
    run_mlmc,
    sample_z,
)
from mlcv import mlmc as mlmc_module


def make_stats(level, var_y, cost_fine, cost_coarse=0.0, mean_y=0.1, var_q=1.0, dofs=None):
    return LevelStats(
        level=level,
        mean_y=mean_y,
        var_y=var_y,
        mean_q=1.0,
        var_q=var_q,
        cost_fine=cost_fine,
        cost_coarse=cost_coarse,
        dofs=dofs if dofs is not None else 10 * (level + 1),
        output_dim=4,
    )


class TestAllocateSamples:
    def test_hand_derived_plan(self):
        assert allocate_samples([4.0, 1.0], [1.0, 4.0], math.sqrt(2.0)) == (8, 2)

    def test_single_level_floors_at_n_min(self):
        assert allocate_samples([1.0], [1.0], math.sqrt(2.0)) == (2,)

    def test_halving_epsilon_quadruples_counts(self):
        big = allocate_samples([4.0, 1.0], [1.0, 4.0], math.sqrt(2.0))
        small = allocate_samples([4.0, 1.0], [1.0, 4.0], math.sqrt(2.0) / 2.0)
        assert small == tuple(4 * n for n in big)

    def test_all_zero_variances_degenerate(self):
        counts = allocate_samples([0.0, 0.0, 0.0], [1.0, 2.0, 4.0], 0.1)
        assert counts == (N_MIN, N_MIN, N_MIN)

    def test_zero_variance_level_gets_floor(self):
        counts = allocate_samples([4.0, 0.0], [1.0, 4.0], 0.1)
        assert counts[1] == N_MIN
        assert counts[0] >= 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            allocate_samples([1.0], [1.0], 0.0)
        with pytest.raises(ConfigError):
            allocate_samples([1.0], [1.0], -1.0)
        # a square that underflows to 0 or overflows, a finite square that
        # plans infinitely many samples, and a finite plan above 2**53
        for eps in (1e-300, 1e160, 1e-160, 1e-100, 2.0**-26 * (1 - 2.0**-52)):
            with pytest.raises(ConfigError, match="out of range"):
                allocate_samples([1.0], [1.0], eps)
        assert allocate_samples([1.0], [1.0], 2.0**-26) == (2**53,)
        with pytest.raises(DimensionError):
            allocate_samples([1.0, 2.0], [1.0], 0.1)
        with pytest.raises(DataError):
            allocate_samples([-1.0], [1.0], 0.1)
        with pytest.raises(DataError):
            allocate_samples([1.0], [0.0], 0.1)

    @settings(max_examples=200, deadline=None)
    @given(
        v=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=6),
        c=st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=6, max_size=6),
        epsilon=st.floats(min_value=0.01, max_value=10.0),
    )
    # a subnormal variance makes the exchange's price bound overflow to +inf
    @example(v=[0.5, 1e-310], c=[1.0] * 6, epsilon=0.1)
    def test_property_budget_met(self, v, c, epsilon):
        c = c[: len(v)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = allocate_samples(v, c, epsilon)
        assert all(n >= N_MIN for n in counts)
        budget = sum(vi / ni for vi, ni in zip(v, counts))
        assert budget <= epsilon**2 / 2.0 + 1e-12


class TestAllocateMlmc:
    def test_from_level_stats(self):
        stats = [make_stats(0, 4.0, 1.0), make_stats(1, 1.0, 3.0, 1.0)]
        plan = allocate_mlmc(stats, math.sqrt(2.0))
        assert plan.n_samples == (8, 2)
        assert plan.n_prime is None
        assert sum(v / n for v, n in zip([4.0, 1.0], plan.n_samples)) <= 1.0 + 1e-12

    def test_plan_feasibility_invariant(self, synthetic_pilot):
        for epsilon in (0.5, 0.05, 0.005):
            plan = allocate_mlmc(synthetic_pilot.stats, epsilon)
            v = [s.var_y for s in synthetic_pilot.stats]
            load = sum(vi / n for vi, n in zip(v, plan.n_samples))
            assert load <= epsilon**2 / 2.0 + 1e-12


class TestPilotMlmc:
    def test_repeated_pilot_bitwise_identical(self, synthetic):
        a = pilot_mlmc(synthetic, 25, 7)
        b = pilot_mlmc(synthetic, 25, 7)
        for la, lb in zip(a.levels, b.levels):
            assert np.array_equal(la.y, lb.y)
            assert np.array_equal(la.q, lb.q)
        for sa, sb in zip(a.stats, b.stats):
            assert sa.mean_y == sb.mean_y
            assert sa.var_y == sb.var_y

    def test_stats_match_cached_samples(self, synthetic_pilot):
        for level, data in enumerate(synthetic_pilot.levels):
            s = synthetic_pilot.stats[level]
            assert s.level == level
            assert data.y.size == synthetic_pilot.n_pilot
            my, mq = RunningMoments.of(data.y), RunningMoments.of(data.qoi)
            assert (s.mean_y, s.var_y) == (my.mean, my.variance)
            assert (s.mean_q, s.var_q) == (mq.mean, mq.variance)

    def test_same_inputs_shared_across_levels(self, synthetic, synthetic_pilot):
        """Every level is evaluated at the one pilot input set, so a coupled
        evaluation there returns the previous level's pilot output bitwise
        as its coarse half; that is why the pilot solves each level once."""
        n = synthetic_pilot.n_pilot
        xi = draw_inputs(
            synthetic_pilot.master_seed, PURPOSE_PILOT, 0, 0, n, synthetic.input_dim
        )
        for level in (1, 2):
            fine, coarse = synthetic.evaluate(level, xi), synthetic.evaluate(level - 1, xi)
            prev = synthetic_pilot.levels[level - 1]
            assert np.array_equal(coarse.qoi, prev.qoi)
            assert np.array_equal(coarse.q, prev.q)
            assert np.array_equal(fine.qoi - coarse.qoi, synthetic_pilot.levels[level].y)

    def test_each_level_evaluated_once(self, monkeypatch):
        h = SyntheticLowRank(r_true=3, m0=8, refine=2, num_levels=3, input_dim=4)
        evaluate, calls = h.evaluate, []

        def counted(level, xi):
            calls.append((level, len(xi)))
            return evaluate(level, xi)

        monkeypatch.setattr(h, "evaluate", counted)
        pilot_mlmc(h, 25, 7)
        assert calls == [(level, 25) for level in range(h.n_levels)]

    def test_level_means_telescope(self, synthetic_pilot):
        total = sum(s.mean_y for s in synthetic_pilot.stats)
        assert total == pytest.approx(synthetic_pilot.stats[-1].mean_q, rel=1e-12)

    def test_correction_variance_decays_on_synthetic(self, synthetic_pilot):
        v = [s.var_y for s in synthetic_pilot.stats]
        assert v[2] < v[1]

    def test_deterministic_model_zero_variances(self, unit_diffusion):
        h = unit_diffusion(grids=(7, 15), n_modes=2, kl_grid_n=33)
        pilot = pilot_mlmc(h, 10, 0)
        assert all(s.var_y == 0.0 for s in pilot.stats)

    def test_pilot_cost_property(self, synthetic_pilot):
        expected = 40 * (8.0 + (16.0 + 8.0) + (32.0 + 16.0))
        pilot_plan = AllocationPlan(n_samples=(40, 40, 40))
        assert nominal_mlmc_cost(synthetic_pilot.stats, pilot_plan) == expected

    def test_n_pilot_validation(self, synthetic):
        with pytest.raises(ConfigError):
            pilot_mlmc(synthetic, 1, 0)


class TestFitRates:
    def test_exact_power_law_recovery(self):
        dofs = [8, 16, 32, 64]
        stats = [
            make_stats(
                k,
                # level 0 is off both laws: Y_0 = Q_0 is no correction, so an
                # exact fit shows the bias and variance rates skip it
                var_y=m**-1.7 if k else 5.0,
                cost_fine=float(m),
                cost_coarse=float(dofs[k - 1]) if k else 0.0,
                mean_y=m**-0.92 if k else 3.0,
                dofs=m,
            )
            for k, m in enumerate(dofs)
        ]
        fit = fit_rates(stats)
        assert fit.alpha == pytest.approx(0.92, abs=1e-10)
        assert fit.beta == pytest.approx(1.7, abs=1e-10)
        assert fit.gamma == pytest.approx(1.0, abs=1e-10)
        assert fit.alpha_residual == pytest.approx(0.0, abs=1e-10)
        assert fit.beta_residual == pytest.approx(0.0, abs=1e-10)

    def test_noisy_power_law_within_tolerance(self, rng):
        dofs = [16, 32, 64, 128, 256]
        noise = rng.uniform(0.95, 1.05, size=len(dofs))
        stats = [
            make_stats(k, var_y=float(m**-2.0 * noise[k]), cost_fine=float(m), dofs=m, mean_y=m**-1.0)
            for k, m in enumerate(dofs)
        ]
        fit = fit_rates(stats)
        assert abs(fit.beta - 2.0) < 0.1

    def test_too_few_levels_raises(self):
        with pytest.raises(DataError):
            fit_rates([make_stats(0, 1.0, 1.0), make_stats(1, 1.0, 2.0, 1.0)])

    def test_zero_variance_levels_excluded(self):
        dofs = [8, 16, 32, 64]
        stats = [
            make_stats(k, var_y=0.0 if k == 2 else m**-1.5, cost_fine=float(m), dofs=m, mean_y=m**-1.0)
            for k, m in enumerate(dofs)
        ]
        fit = fit_rates(stats)
        # log(0) would make the fit nan, so an exact fit shows level 2 left out
        assert fit.beta == pytest.approx(1.5, abs=1e-10)
        assert fit.beta_residual == pytest.approx(0.0, abs=1e-10)


class TestBiasCheck:
    def test_warning_toggles_with_epsilon(self):
        dofs = [8, 16, 32]
        stats = [
            make_stats(k, var_y=m**-2.0, cost_fine=float(m), dofs=m, mean_y=m**-1.0)
            for k, m in enumerate(dofs)
        ]
        fit = fit_rates(stats)
        # alpha = 1, refinement 2: extrapolated bias = |mean Y_L| / (2 - 1)
        report = bias_check(stats, fit, epsilon=1.0)
        assert report["bias_estimate"] == pytest.approx(1.0 / 32.0, rel=1e-10)
        assert not report["bias_warning"]
        tight = bias_check(stats, fit, epsilon=0.01)
        assert tight["bias_warning"]
        assert tight["bias_budget"] == pytest.approx(0.01 / math.sqrt(2.0))

    @pytest.mark.parametrize("alpha", [0.0, -0.42])
    def test_no_decay_gives_no_estimate(self, alpha):
        """Corrections that do not shrink with refinement have no finite
        extrapolated bias: the estimate is None and the warning is on."""
        dofs = [8, 16, 32, 64]
        stats = [
            make_stats(k, var_y=m**-2.0, cost_fine=float(m), dofs=m, mean_y=m**-alpha)
            for k, m in enumerate(dofs)
        ]
        fit = fit_rates(stats)
        assert fit.alpha == pytest.approx(alpha, abs=1e-12)
        report = bias_check(stats, fit, epsilon=1e3)
        assert report["bias_estimate"] is None
        assert report["bias_warning"] is True
        assert report["bias_budget"] == pytest.approx(1e3 / math.sqrt(2.0))


class ScaledHierarchy(LevelHierarchy):
    """A parent model's tables and solve, with its quantity of interest
    multiplied by a constant; used to probe estimator linearity."""

    def __init__(self, parent, factor):
        self._parent = parent
        self._factor = factor
        self.input_dim = parent.input_dim
        self.cost_gamma = parent.cost_gamma
        self._dofs = parent._dofs
        self._output_dims = parent._output_dims

    def _solve(self, level, z):
        return self._parent._solve(level, z)

    def _output_map(self, level, q):
        return self._factor * self._parent._output_map(level, q)


class TestAgainstExactMean:
    """Both estimators on the shared fixture study land within 4 standard
    deviations of the closed-form finest-level mean, by the variance the run
    realized."""

    @pytest.mark.parametrize("eps", [0.05, 0.02, 0.01])
    @pytest.mark.parametrize("method", ["mlmc", "mlcv"])
    def test_estimate_within_four_sigma(self, synthetic, synthetic_pilot, exact_mean, method, eps):
        if method == "mlmc":
            plan = allocate_mlmc(synthetic_pilot.stats, eps)
            result = run_mlmc(synthetic, plan, synthetic_pilot)
        else:
            setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
            plan = allocate_mlcv(synthetic_pilot.stats, setup, eps)
            result = run_mlcv(synthetic, plan, synthetic_pilot, setup)
        realized = sum(v / n for v, n in zip(result.sample_variances, result.n_samples))
        error = result.estimate - exact_mean(synthetic, synthetic.finest_level)
        assert abs(error) <= 4.0 * math.sqrt(realized)


class TestRunMlmc:
    def test_estimate_is_sum_of_level_estimates(self, synthetic, synthetic_pilot):
        plan = allocate_mlmc(synthetic_pilot.stats, 0.05)
        result = run_mlmc(synthetic, plan, synthetic_pilot)
        assert result.estimate == pytest.approx(sum(result.level_estimates), rel=1e-12)
        assert result.zbar_values == (0.0,) * synthetic.n_levels
        assert result.n_samples == plan.n_samples

    def test_pilot_replay_when_plan_fits_in_pilot(self, synthetic, synthetic_pilot):
        plan = AllocationPlan(n_samples=(40, 40, 40))
        result = run_mlmc(synthetic, plan, synthetic_pilot)
        for level, est in enumerate(result.level_estimates):
            assert est == synthetic_pilot.stats[level].mean_y
        # no fresh solves: cost equals the pilot cost
        assert result.total_cost == 40 * (8.0 + (16.0 + 8.0) + (32.0 + 16.0))

    def test_partial_replay_matches_manual_recompute(self, synthetic, synthetic_pilot):
        plan = AllocationPlan(n_samples=(55, 43, 40))
        result = run_mlmc(synthetic, plan, synthetic_pilot)
        for level, n in enumerate(plan.n_samples):
            reused = synthetic_pilot.levels[level].y
            fresh_n = n - reused.size
            if fresh_n > 0:
                xi = draw_inputs(
                    synthetic_pilot.master_seed,
                    PURPOSE_MAIN_Y,
                    level,
                    0,
                    fresh_n,
                    synthetic.input_dim,
                )
                if level == 0:
                    fresh = synthetic.evaluate(0, xi).qoi
                else:
                    fine = synthetic.evaluate(level, xi)
                    fresh = fine.qoi - synthetic.evaluate(level - 1, xi).qoi
                expected = np.concatenate([reused, fresh]).mean()
            else:
                expected = reused.mean()
            assert result.level_estimates[level] == pytest.approx(expected, rel=1e-12)

    def test_eval_counts_and_cost(self, synthetic, synthetic_pilot):
        plan = AllocationPlan(n_samples=(100, 50, 40))
        result = run_mlmc(synthetic, plan, synthetic_pilot)
        counts = {c.level: c for c in result.eval_counts}
        assert counts[0].fine_evals == 40 + 60
        assert counts[0].coarse_evals == 0
        assert counts[1].fine_evals == 40 + 10
        assert counts[1].coarse_evals == 40 + 10
        assert counts[2].fine_evals == 40
        expected_cost = 100 * 8.0 + 50 * (16.0 + 8.0) + 40 * (32.0 + 16.0)
        assert result.total_cost == pytest.approx(expected_cost, rel=1e-12)
        assert result.total_cost == pytest.approx(
            counted_cost(result.eval_counts, synthetic_pilot.stats), rel=1e-15
        )
        assert result.total_cost == pytest.approx(
            nominal_mlmc_cost(synthetic_pilot.stats, plan), rel=1e-12
        )

    def test_sampling_error_uses_frozen_pilot_variances(self, synthetic, synthetic_pilot):
        plan = allocate_mlmc(synthetic_pilot.stats, 0.02)
        result = run_mlmc(synthetic, plan, synthetic_pilot)
        expected = sum(
            s.var_y / n for s, n in zip(synthetic_pilot.stats, plan.n_samples)
        )
        assert result.sampling_error == pytest.approx(expected, rel=1e-14)
        assert result.sampling_error <= 0.02**2 / 2.0 + 1e-12

    def test_same_seed_bitwise_identical(self, synthetic, synthetic_pilot):
        plan = allocate_mlmc(synthetic_pilot.stats, 0.05)
        a = run_mlmc(synthetic, plan, synthetic_pilot)
        b = run_mlmc(synthetic, plan, synthetic_pilot)
        assert a.estimate == b.estimate
        assert a.level_estimates == b.level_estimates
        assert a.total_cost == b.total_cost
        assert a.sample_variances == b.sample_variances

    def test_estimator_linearity(self, synthetic, synthetic_pilot):
        doubled = ScaledHierarchy(synthetic, 2.0)
        pilot2 = pilot_mlmc(doubled, synthetic_pilot.n_pilot, synthetic_pilot.master_seed)
        plan = AllocationPlan(n_samples=(60, 45, 40))
        base = run_mlmc(synthetic, plan, synthetic_pilot)
        scaled = run_mlmc(doubled, plan, pilot2)
        assert scaled.estimate == pytest.approx(2.0 * base.estimate, rel=1e-12)

    def test_deterministic_model_estimate_exact(self, unit_diffusion):
        h = unit_diffusion(grids=(7, 15), n_modes=2, kl_grid_n=33)
        pilot = pilot_mlmc(h, 5, 0)
        plan = AllocationPlan(n_samples=(5, 5))
        result = run_mlmc(h, plan, pilot)
        direct = h.evaluate(1, np.zeros((1, 2))).qoi[0]
        assert result.estimate == pytest.approx(direct, rel=1e-14)

    def test_plan_level_mismatch(self, synthetic, synthetic_pilot):
        with pytest.raises(DimensionError):
            run_mlmc(synthetic, AllocationPlan(n_samples=(5, 5)), synthetic_pilot)

    def test_cumulative_estimates(self, synthetic, synthetic_pilot):
        plan = AllocationPlan(n_samples=(40, 40, 40))
        result = run_mlmc(synthetic, plan, synthetic_pilot)
        cum = np.cumsum(result.level_estimates)
        assert cum[-1] == pytest.approx(result.estimate, rel=1e-14)
        assert cum[0] == result.level_estimates[0]


class TestRunMc:
    def test_sample_count_from_pilot_variance(self, synthetic, synthetic_pilot):
        epsilon = 0.25
        result = run_mc(synthetic, epsilon, synthetic_pilot)
        var_q = synthetic_pilot.stats[-1].var_q
        expected_n = max(math.ceil(2.0 * var_q / epsilon**2), 2)
        assert result.n_samples == (expected_n,)
        assert result.total_cost == expected_n * synthetic.cost(2)
        assert result.sampling_error == pytest.approx(var_q / expected_n)

    def test_estimate_matches_manual_stream(self, synthetic, synthetic_pilot):
        result = run_mc(synthetic, 0.3, synthetic_pilot)
        n = result.n_samples[0]
        xi = draw_inputs(
            synthetic_pilot.master_seed, PURPOSE_MAIN_Y, 2, 0, n, synthetic.input_dim
        )
        manual = synthetic.evaluate(2, xi).qoi.mean()
        assert result.estimate == pytest.approx(manual, rel=1e-12)

    def test_deterministic_model_rejected(self, unit_diffusion):
        h = unit_diffusion(grids=(7, 15), n_modes=2, kl_grid_n=33)
        pilot = pilot_mlmc(h, 5, 0)
        with pytest.raises(DataError):
            run_mc(h, 0.1, pilot)


class TestMcCostReference:
    def test_unit_case(self):
        s = make_stats(0, 0.0, 1.0, var_q=1.0)
        assert mc_cost_reference(s, math.sqrt(2.0)) == 1.0

    def test_epsilon_scaling_ratio_nine(self):
        s = make_stats(0, 0.0, 2.5, var_q=0.0045)
        cost_coarse_eps = mc_cost_reference(s, 0.003)
        cost_fine_eps = mc_cost_reference(s, 0.001)
        assert cost_fine_eps / cost_coarse_eps == pytest.approx(9.0, rel=1e-12)

    def test_formula_within_ceiling(self):
        s = make_stats(0, 0.0, 7.0, var_q=3.3)
        eps = 0.17
        cost = mc_cost_reference(s, eps)
        assert abs(cost - 2.0 * 3.3 * 7.0 / eps**2) <= 7.0

    def test_zero_variance_prices_one_solve(self):
        s = make_stats(0, 0.0, 5.0, var_q=0.0)
        assert mc_cost_reference(s, 0.1) == 5.0

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e-100, 1e300])
    def test_extreme_epsilon_rejected(self, eps):
        s = make_stats(0, 0.0, 5.0, var_q=1.0)
        with pytest.raises(ConfigError, match="out of range"):
            mc_cost_reference(s, eps)


class TestMcOracleMean:
    def test_matches_manual_oracle_stream(self, synthetic):
        val = mc_oracle_mean(synthetic, 500, 77)
        xi = draw_inputs(77, PURPOSE_ORACLE, 2, 0, 500, synthetic.input_dim)
        assert val == pytest.approx(synthetic.evaluate(2, xi).qoi.mean(), rel=1e-12)

    def test_level_override(self, synthetic):
        v2 = mc_oracle_mean(synthetic, 200, 5)
        v0 = mc_oracle_mean(synthetic, 200, 5, level=0)
        assert v0 != v2
        xi = draw_inputs(5, PURPOSE_ORACLE, 0, 0, 200, synthetic.input_dim)
        assert v0 == pytest.approx(synthetic.evaluate(0, xi).qoi.mean(), rel=1e-12)

    def test_batch_split_independence(self, synthetic, synthetic_pilot, monkeypatch):
        """Shrinking the evaluation batch size must not change the drawn
        samples, only the reduction order, for every consumer of the
        batched sampling loop."""
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        plan = AllocationPlan(n_samples=(100, 60, 50), n_prime=(0, 20, 15))

        def levels(result):
            return (result.estimate, *result.level_estimates)

        consumers = {
            "mc_oracle_mean": lambda: mc_oracle_mean(synthetic, 100, 9),
            "run_mc": lambda: levels(run_mc(synthetic, 0.25, synthetic_pilot)),
            "run_mlmc": lambda: levels(run_mlmc(synthetic, plan, synthetic_pilot)),
            "run_mlcv": lambda: levels(run_mlcv(synthetic, plan, synthetic_pilot, setup)),
            "estimate_zbar": lambda: estimate_zbar(synthetic, setup[1].basis, 37, 9),
        }
        default = {name: run() for name, run in consumers.items()}
        monkeypatch.setattr(mlmc_module, "_BATCH", 7)
        for name, run in consumers.items():
            assert run() == pytest.approx(default[name], rel=1e-12), name

    def test_validation(self, synthetic):
        with pytest.raises(ConfigError):
            mc_oracle_mean(synthetic, 0, 1)


def _assert_same_result(joint, alone, fields=None):
    """Fields of two estimator results equal, floats bit for bit (every
    field unless ``fields`` names some)."""
    for name in fields or [f.name for f in dataclasses.fields(alone)]:
        assert repr(getattr(joint, name)) == repr(getattr(alone, name)), name


# Result fields fixed by the plan and the pilot alone, whatever the walk
_PLAN_FIELDS = ("n_samples", "sampling_error", "total_cost", "eval_counts")


def _sliced_moments(h, seed, purpose, level, runs, values_of, batch):
    """The one-pass rule by hand: each batch of the longest run is drawn and
    evaluated once, at full width, and run ``(n, replay)`` reduces its
    replayed samples and then its first ``n`` fresh values, a prefix of
    every batch it reaches."""
    n_max = max(n for n, _ in runs)
    starts = range(0, n_max, batch)
    batches = [
        values_of(draw_inputs(seed, purpose, level, s, min(batch, n_max - s), h.input_dim))
        for s in starts
    ]
    out = []
    for n, replay in runs:
        m = RunningMoments()
        if replay.size:
            m.update(replay)
        for s, values in zip(starts, batches):
            if n > s:
                m.update(values[: n - s])
        out.append(m)
    return out


def _correction_of(h, level):
    if level == 0:
        return lambda xi: h.qoi_of(0, xi)
    return lambda xi: h.qoi_of(level, xi) - h.qoi_of(level - 1, xi)


def _assert_moments(mean, variance, moments):
    assert repr((mean, variance)) == repr((moments.mean, moments.variance))


class BatchWidthHierarchy(ScaledHierarchy):
    """Quantities of interest shifted by an amount that grows with the batch
    width, as BLAS kernel choice shifts the last bits of real models'
    outputs."""

    def __init__(self, parent):
        super().__init__(parent, 1.0)

    def _output_map(self, level, q):
        return super()._output_map(level, q) + (level + 1) * 1e-9 * q.shape[1]


class TestOnePassOverPlans:
    """Several plans run at once walk each level's stream once and evaluate
    each batch once: a run whose count ends inside a batch reduces a prefix
    of the values evaluated for the longest run.  So at each level the run
    with the largest count has the bits of its lone run, and every run's
    level moments are a hand reduction of slices of the full-width batches.

    With ``_BATCH`` at 16 the fresh counts below end on a batch boundary
    (48, 32, 16), inside a batch (10, 5, 1, 7), at zero (plans that fit in
    the replayed pilot samples), and past the last batch of the tightest
    plan (35 fresh samples at level 2 against its 5).  The plans are not
    sorted by size, and at each level the plan with the most coupled
    samples also has the most auxiliary ones.  ``BatchWidthHierarchy`` tells
    a prefix evaluated alone from a slice of a wider batch.
    """

    BATCH = 16
    # (n_samples, n_prime); replayed pilot samples are 40 for MLMC and
    # 40 - rank for controlled levels
    PLANS = (
        ((50, 30, 75), (0, 20, 50)),
        ((88, 72, 45), (0, 32, 16)),
        ((40, 41, 9), (0, 1, 7)),
    )

    @pytest.fixture(params=["synthetic", "diffusion", "batch_width"])
    def study(self, request, synthetic, synthetic_pilot, diffusion_small):
        if request.param == "synthetic":
            return synthetic, synthetic_pilot
        if request.param == "diffusion":
            return diffusion_small, pilot_mlmc(diffusion_small, 40, 5)
        h = BatchWidthHierarchy(synthetic)
        return h, pilot_mlmc(h, 40, 123)

    @pytest.fixture
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(mlmc_module, "_BATCH", self.BATCH)

    def plans(self, with_n_prime):
        return [
            AllocationPlan(n, n_prime if with_n_prime else None)
            for n, n_prime in self.PLANS
        ]

    def _assert_longest_runs_alone(self, joint, alone_of, plans):
        """Per level, the plan with the most samples there has the level
        mean, variance and Zbar of its lone run, and every plan has its lone
        run's plan-fixed fields."""
        alone = [alone_of(plan) for plan in plans]
        for result, lone in zip(joint, alone):
            _assert_same_result(result, lone, _PLAN_FIELDS)
        for ell in range(len(plans[0].n_samples)):
            k = max(range(len(plans)), key=lambda i: plans[i].n_samples[ell])
            for name in ("level_estimates", "sample_variances", "zbar_values"):
                assert repr(getattr(joint[k], name)[ell]) == repr(getattr(alone[k], name)[ell])

    def test_run_mlmc(self, study, small_batches):
        h, pilot = study
        plans = self.plans(with_n_prime=False)
        joint = run_mlmc(h, plans, pilot)
        assert len(joint) == len(plans)
        self._assert_longest_runs_alone(joint, lambda p: run_mlmc(h, p, pilot), plans)
        _assert_same_result(run_mlmc(h, plans[0], pilot), run_mlmc(h, [plans[0]], pilot)[0])
        for ell in range(h.n_levels):
            runs = []
            for plan in plans:
                replay = pilot.levels[ell].y[: plan.n_samples[ell]]
                runs.append((plan.n_samples[ell] - replay.size, replay))
            hand = _sliced_moments(
                h, pilot.master_seed, PURPOSE_MAIN_Y, ell, runs, _correction_of(h, ell), self.BATCH
            )
            for result, m in zip(joint, hand):
                _assert_moments(result.level_estimates[ell], result.sample_variances[ell], m)

    def test_run_mlcv(self, study, small_batches):
        h, pilot = study
        setup = prepare_control_variates(h, pilot, rank=3)
        assert any(c.enabled for c in setup)
        plans = self.plans(with_n_prime=True)
        joint = run_mlcv(h, plans, pilot, setup)
        self._assert_longest_runs_alone(joint, lambda p: run_mlcv(h, p, pilot, setup), plans)
        assert any(z != 0.0 for r in joint for z in r.zbar_values)
        seed = pilot.master_seed
        for ell, cfg in enumerate(setup):
            if not cfg.enabled:
                continue
            basis = cfg.basis
            zbars = [r.zbar_values[ell] for r in joint]
            assert zbars == estimate_zbar(h, basis, [p.n_prime[ell] for p in plans], seed)
            keep = np.delete(np.arange(pilot.n_pilot), basis.selected_pilot_indices)
            replay = (pilot.levels[ell].y - cfg.theta * cfg.pilot_z)[keep]

            def w(xi):
                fine, coarse = h.qoi_of(ell, xi), h.evaluate(ell - 1, xi)
                return fine - coarse.qoi - cfg.theta * sample_z(h, basis, coarse.q, coarse.qoi)

            runs = []
            for plan in plans:
                head = replay[: plan.n_samples[ell]]
                runs.append((plan.n_samples[ell] - head.size, head))
            hand = _sliced_moments(h, seed, PURPOSE_MAIN_Y, ell, runs, w, self.BATCH)
            # theta Zbar is added once, to the mean of Y - theta Z
            for result, m, zbar in zip(joint, hand, zbars):
                assert repr((result.level_estimates[ell], result.sample_variances[ell])) == repr(
                    (m.mean + cfg.theta * zbar, m.variance)
                )

    def test_estimate_zbar(self, study, small_batches):
        h, pilot = study
        basis = prepare_control_variates(h, pilot, rank=3)[1].basis
        counts = [20, 32, 1, 50]
        joint = estimate_zbar(h, basis, counts, 9)
        assert repr(joint[-1]) == repr(estimate_zbar(h, basis, 50, 9))
        assert repr(estimate_zbar(h, basis, 20, 9)) == repr(estimate_zbar(h, basis, [20], 9)[0])

        def z(xi):
            coarse = h.evaluate(0, xi)
            return sample_z(h, basis, coarse.q, coarse.qoi)

        runs = [(n, np.empty(0)) for n in counts]
        hand = _sliced_moments(h, 9, PURPOSE_ZBAR, 1, runs, z, self.BATCH)
        assert repr(joint) == repr([m.mean for m in hand])

    def test_run_mc(self, study, small_batches):
        h, pilot = study
        var_q = pilot.stats[-1].var_q
        # tolerances whose sample counts are exactly these
        counts = (10, 48, 75)
        epsilons = [math.sqrt(2.0 * var_q / n) * (1.0 + 1e-9) for n in counts]
        joint = run_mc(h, epsilons, pilot)
        assert [r.n_samples for r in joint] == [(n,) for n in counts]
        for result, eps in zip(joint, epsilons):
            _assert_same_result(result, run_mc(h, eps, pilot), _PLAN_FIELDS)
        _assert_same_result(joint[-1], run_mc(h, epsilons[-1], pilot))
        finest = h.finest_level
        runs = [(n, np.empty(0)) for n in counts]
        hand = _sliced_moments(
            h, pilot.master_seed, PURPOSE_MAIN_Y, finest, runs,
            lambda xi: h.qoi_of(finest, xi), self.BATCH,
        )
        for result, m in zip(joint, hand):
            _assert_moments(result.estimate, result.sample_variances[0], m)

    @pytest.mark.parametrize("method", ["mlmc", "mlcv"])
    def test_each_drawn_row_solved_once(self, study, small_batches, monkeypatch, method):
        """Each level solves exactly the rows drawn for the maps that read it,
        once for all plans: the main-stream rows of its own correction and of
        the next one, and the auxiliary rows of the next level's Zbar.  Only
        the coarse side of a controlled correction forms output vectors:
        every other solve is a ``qoi_of`` call."""
        h, pilot = study
        setup = prepare_control_variates(h, pilot, rank=3)
        drawn, solved = collections.Counter(), collections.Counter()

        def counting_draw(seed, purpose, level, start, count, dim):
            drawn[purpose, level] += count
            return draw_inputs(seed, purpose, level, start, count, dim)

        def counting(entry):
            solve = getattr(h, entry)

            def counted(level, xi):
                solved[entry, level] += xi.shape[0]
                return solve(level, xi)

            return counted

        monkeypatch.setattr(mlmc_module, "draw_inputs", counting_draw)
        for entry in ("evaluate", "qoi_of"):
            monkeypatch.setattr(h, entry, counting(entry))
        if method == "mlmc":
            run_mlmc(h, self.plans(with_n_prime=False), pilot)
            # the largest fresh count per level, past the 40 replayed samples
            assert [drawn[PURPOSE_MAIN_Y, ell] for ell in range(3)] == [48, 32, 35]
        else:
            run_mlcv(h, self.plans(with_n_prime=True), pilot, setup)
            assert drawn[PURPOSE_ZBAR, 2] == (50 if setup[2].enabled else 0)
        for ell in range(h.n_levels):
            rows = drawn[PURPOSE_MAIN_Y, ell] + drawn[PURPOSE_MAIN_Y, ell + 1]
            total = solved["evaluate", ell] + solved["qoi_of", ell]
            assert total == rows + drawn[PURPOSE_ZBAR, ell + 1], ell
            controlled = (
                method == "mlcv" and ell < h.finest_level and setup[ell + 1].enabled
            )
            read_q = drawn[PURPOSE_MAIN_Y, ell + 1] + drawn[PURPOSE_ZBAR, ell + 1]
            assert solved["evaluate", ell] == (read_q if controlled else 0), ell

    def test_plain_mc_forms_no_output_vector(self, study, small_batches, monkeypatch):
        """``run_mc`` and ``mc_oracle_mean`` read quantities of interest only,
        so they solve through ``qoi_of`` and never call ``evaluate``."""
        h, pilot = study

        def no_evaluate(level, xi):
            raise AssertionError(f"evaluate called at level {level}")

        monkeypatch.setattr(h, "evaluate", no_evaluate)
        var_q = pilot.stats[-1].var_q
        run_mc(h, [math.sqrt(2.0 * var_q / n) for n in (10, 75)], pilot)
        mc_oracle_mean(h, 40, 3)
        mc_oracle_mean(h, 20, 3, level=0)

    def test_checks_cover_every_plan(self, synthetic, synthetic_pilot):
        good = AllocationPlan((50, 30, 75), (0, 20, 50))
        with pytest.raises(ConfigError):
            run_mlmc(synthetic, [good, AllocationPlan((50, 0, 75))], synthetic_pilot)
        with pytest.raises(DimensionError):
            run_mlmc(synthetic, [good, AllocationPlan((50, 30))], synthetic_pilot)
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        with pytest.raises(ConfigError):
            run_mlcv(synthetic, [good, AllocationPlan((50, 30, 75))], synthetic_pilot, setup)
        with pytest.raises(ConfigError):
            run_mc(synthetic, [0.1, -0.2], synthetic_pilot)
        with pytest.raises(ConfigError, match="out of range"):
            run_mc(synthetic, [0.1, 1e-160], synthetic_pilot)



class TestStreamMoments:
    """``_stream_moments`` reduces, per count ``n``, the first ``n`` replayed
    samples and then the fresh stream prefix the replay lacks, drawing only
    the rows some run reduces."""

    BATCH = 4
    LEVEL = 1

    @pytest.fixture
    def draws(self, monkeypatch):
        monkeypatch.setattr(mlmc_module, "_BATCH", self.BATCH)
        rows = []

        def counting_draw(seed, purpose, level, start, count, dim):
            rows.append(count)
            return draw_inputs(seed, purpose, level, start, count, dim)

        monkeypatch.setattr(mlmc_module, "draw_inputs", counting_draw)
        return rows

    def moments(self, h, counts, replay=None):
        return mlmc_module._stream_moments(
            h, 7, PURPOSE_MAIN_Y, self.LEVEL, counts, _correction_of(h, self.LEVEL), replay
        )

    def hand(self, h, runs):
        return _sliced_moments(
            h, 7, PURPOSE_MAIN_Y, self.LEVEL, runs, _correction_of(h, self.LEVEL), self.BATCH
        )

    def test_count_inside_replay_draws_nothing(self, synthetic, draws):
        replay = np.linspace(-1.0, 2.0, 9)
        runs = self.moments(synthetic, [3, 9], replay)
        assert draws == []
        for m, n in zip(runs, [3, 9]):
            ref = RunningMoments()
            ref.update(replay[:n])
            _assert_moments(m.mean, m.variance, ref)

    def test_count_past_replay_reduces_replay_then_fresh_prefix(self, synthetic, draws):
        replay = np.linspace(-1.0, 2.0, 5)
        counts = [15, 7, 2]
        runs = self.moments(synthetic, counts, replay)
        # one walk up to the largest fresh count, 10, in batches of 4
        assert draws == [4, 4, 2]
        hand = self.hand(synthetic, [(10, replay), (2, replay), (0, replay[:2])])
        for m, ref, n in zip(runs, hand, counts):
            assert m.count == n
            _assert_moments(m.mean, m.variance, ref)

    def test_count_zero_reduces_nothing(self, synthetic, draws):
        for replay in (None, np.ones(3), np.empty(0)):
            (m,) = self.moments(synthetic, [0], replay)
            assert (m.count, m.mean, m.variance) == (0, 0.0, 0.0)
        runs = self.moments(synthetic, [0, 6], np.ones(3))
        assert draws == [3]
        assert [m.count for m in runs] == [0, 6]

    def test_without_replay_is_the_plain_stream(self, synthetic, draws):
        counts = [6, 11]
        runs = self.moments(synthetic, counts)
        assert draws == [4, 4, 3]
        hand = self.hand(synthetic, [(n, np.empty(0)) for n in counts])
        for m, ref in zip(runs, hand):
            _assert_moments(m.mean, m.variance, ref)


def test_reference_generator_call_shapes():
    """``perfbench/make_references.py`` calls the estimators in these shapes:
    a single plan to ``run_mlmc`` gives a single result, not a list."""
    h = SyntheticLowRank(r_true=2, m0=4, num_levels=2, input_dim=3)
    pilot = mlmc_module.pilot_mlmc(h, 20, 5)
    var_q = pilot.stats[-1].var_q
    assert isinstance(var_q, float) and var_q > 0.0
    plan = mlmc_module.allocate_mlmc(pilot.stats, 0.1)
    result = mlmc_module.run_mlmc(h, plan, pilot)
    assert isinstance(result.estimate, float)
    assert len(result.sample_variances) == len(result.n_samples) == h.n_levels
    variance = sum(v / n for v, n in zip(result.sample_variances, result.n_samples))
    assert math.isfinite(variance) and variance > 0.0
    assert isinstance(mlmc_module.mc_oracle_mean(h, 50, 5), float)
