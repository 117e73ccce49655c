"""End-to-end acceptance gate for the shipped estimator stack.

One test per shipped guarantee, each printing a single
``[criterion NN] PASS/FAIL`` line so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s

The criteria cover the reduced-basis residual bound, allocation optimality
against exhaustive integer search, hand-derived plans, estimator MSE against
the model's exact mean, variance reduction and cost-ratio trends on the
built-in models, the optimality of the control-variate coefficient,
degeneration to the plain estimator, convergence-rate fits, byte-level
reproducibility of the command line driver, and the exact cost identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

from mlcv import (
    AllocationPlan,
    Diffusion1D,
    LevelStats,
    PURPOSE_MAIN_Y,
    PURPOSE_ORACLE,
    SyntheticLowRank,
    allocate_mlcv,
    allocate_mlmc,
    allocate_samples,
    draw_inputs,
    estimate_zbar,
    fit_rates,
    interpolative_decomposition,
    pilot_mlmc,
    prepare_control_variates,
    nominal_mlcv_cost,
    nominal_mlmc_cost,
    run_mlcv,
    run_mlmc,
    sample_z,
)
from mlcv.cli import main


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}", flush=True)


def make_stats(level, var_y, cost_fine, mean_y=0.1, dofs=None):
    return LevelStats(
        level=level,
        mean_y=mean_y,
        var_y=var_y,
        mean_q=1.0,
        var_q=1.0,
        cost_fine=cost_fine,
        cost_coarse=0.0,
        dofs=dofs if dofs is not None else 10 * (level + 1),
        output_dim=4,
    )


@pytest.fixture(scope="module")
def synthetic_study():
    """Shared pilot and control-variate setup on the default synthetic model."""
    model = SyntheticLowRank()
    pilot = pilot_mlmc(model, 200, 2024)
    setup = prepare_control_variates(model, pilot, rank=5)
    return model, pilot, setup


class TestCriterion01IdResidualBound:
    def test_id_residual_bound(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(314159)
        worst_ratio = 0.0
        identity_ok = True
        for i in range(20):
            m = int(rng.integers(20, 61))
            n = int(rng.integers(50, 301))
            r = int(rng.integers(3, 13))
            kmax = min(m, n)
            k = np.arange(1, kmax + 1, dtype=np.float64)
            kind = ("inverse_square", "geometric", "step")[i % 3]
            if kind == "inverse_square":
                s = k**-2.0
            elif kind == "geometric":
                s = 2.0**-k
            else:
                s = np.where(k <= r, 1.0, 1e-6)
            q1, _ = np.linalg.qr(rng.standard_normal((m, kmax)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, kmax)))
            u = (q1 * s) @ q2.T
            f = interpolative_decomposition(u, rank=r)
            resid = float(np.linalg.norm(u - u[:, f.selected_indices] @ f.coefficients, 2))
            sigma = np.linalg.svd(u, compute_uv=False)
            bound = 1.5 * math.sqrt(r * (n - r) + 1.0) * float(sigma[r])
            worst_ratio = max(worst_ratio, resid / bound)
            identity_ok = identity_ok and np.array_equal(
                f.coefficients[:, f.selected_indices], np.eye(r)
            )
        elapsed = time.perf_counter() - t0
        ok = worst_ratio <= 1.0 and identity_ok and elapsed < 5.0
        _report(1, "id-residual-bound", ok)
        assert worst_ratio <= 1.0, f"worst residual/bound ratio {worst_ratio}"
        assert identity_ok, "identity sub-block of the coefficients is not exact"
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s"


class TestCriterion02AllocationOracle:
    @staticmethod
    def _brute_best(v, c, budget, cost_cap):
        """Minimum cost over integer plans with n >= 2 meeting the budget.

        Per-level caps at cost_cap / c are exact: a candidate beyond a cap
        already costs more than the plan under test.  The last level is
        derived analytically from the remaining budget.
        """
        caps = [max(2, int(cost_cap // ck)) for ck in c]
        best = math.inf
        if len(v) == 2:
            n0 = np.arange(2, caps[0] + 1, dtype=np.float64)
            rem = budget - v[0] / n0
            ok = rem > 0
            n1 = np.maximum(2.0, np.ceil(v[1] / rem[ok]))
            feasible = v[0] / n0[ok] + v[1] / n1 <= budget + 1e-12
            cost = n0[ok] * c[0] + n1 * c[1]
            if feasible.any():
                best = float(cost[feasible].min())
            return best
        for n0 in range(2, caps[0] + 1):
            base0 = v[0] / n0
            if base0 > budget:
                continue
            n1 = np.arange(2, caps[1] + 1, dtype=np.float64)
            rem = budget - base0 - v[1] / n1
            ok = rem > 0
            n2 = np.maximum(2.0, np.ceil(v[2] / rem[ok]))
            feasible = base0 + v[1] / n1[ok] + v[2] / n2 <= budget + 1e-12
            cost = n0 * c[0] + n1[ok] * c[1] + n2 * c[2]
            if feasible.any():
                best = min(best, float(cost[feasible].min()))
        return best

    def test_plans_match_exhaustive_search(self):
        t0 = time.perf_counter()
        worst_gap = -math.inf
        instances = 0
        for n_levels in (2, 3):
            for v in itertools.product((0.25, 1.0, 4.0), repeat=n_levels):
                for c in itertools.product((1.0, 4.0, 16.0), repeat=n_levels):
                    for eps2 in (0.5, 2.0):
                        instances += 1
                        budget = eps2 / 2.0
                        counts = allocate_samples(list(v), list(c), math.sqrt(eps2))
                        load = sum(vi / ni for vi, ni in zip(v, counts))
                        assert load <= budget + 1e-12, (v, c, eps2, counts)
                        plan_cost = sum(n * ck for n, ck in zip(counts, c))
                        best = self._brute_best(list(v), list(c), budget, plan_cost)
                        worst_gap = max(worst_gap, plan_cost - best - min(c))
        elapsed = time.perf_counter() - t0
        ok = worst_gap <= 1e-9 and elapsed < 30.0
        _report(2, "allocation-oracle", ok)
        assert instances == 1620
        assert worst_gap <= 1e-9, f"worst (plan - optimum - cheapest sample) = {worst_gap}"
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s"


class TestCriterion03HandDerivedPlan:
    def test_hand_plan_exact(self):
        counts = allocate_samples([4.0, 1.0], [1.0, 4.0], math.sqrt(2.0))
        ok = counts == (8, 2)
        _report(3, "hand-derived-plan", ok)
        assert counts == (8, 2)


class TestCriterion04EstimatorMse:
    def test_mse_within_budget_over_seeds(self, exact_mean):
        t0 = time.perf_counter()
        model = SyntheticLowRank()
        exact = exact_mean(model, model.finest_level)
        eps = 0.01
        plain, controlled = [], []
        for seed in range(100):
            pilot = pilot_mlmc(model, 100, 10_000 + seed)
            setup = prepare_control_variates(model, pilot, rank=5)
            plan_ml = allocate_mlmc(pilot.stats, eps)
            plan_cv = allocate_mlcv(pilot.stats, setup, eps)
            plain.append(run_mlmc(model, plan_ml, pilot).estimate)
            controlled.append(run_mlcv(model, plan_cv, pilot, setup).estimate)
        mse_ml = float(np.mean((np.asarray(plain) - exact) ** 2))
        mse_cv = float(np.mean((np.asarray(controlled) - exact) ** 2))
        budget = 1.2 * eps**2
        elapsed = time.perf_counter() - t0
        ok = mse_ml <= budget and mse_cv <= budget and elapsed < 300.0
        _report(4, "estimator-mse", ok)
        assert mse_ml <= budget, f"plain estimator MSE {mse_ml:.3e} > {budget:.3e}"
        assert mse_cv <= budget, f"controlled estimator MSE {mse_cv:.3e} > {budget:.3e}"
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s"


class TestCriterion05VarianceReduction:
    def test_correlations_and_sample_variances(self, synthetic_study):
        model, pilot, setup = synthetic_study
        rho2 = [cfg.rho2 for cfg in setup]
        plan_cv = AllocationPlan(
            n_samples=(400, 400, 400), n_prime=(0, 100, 100)
        )
        plan_ml = AllocationPlan(n_samples=(400, 400, 400))
        res_cv = run_mlcv(model, plan_cv, pilot, setup)
        res_ml = run_mlmc(model, plan_ml, pilot)
        ratios = [
            res_cv.sample_variances[ell] / res_ml.sample_variances[ell]
            for ell in (1, 2)
        ]

        diffusion = Diffusion1D()
        pilot_d = pilot_mlmc(diffusion, 200, 2024)
        setup_d = prepare_control_variates(diffusion, pilot_d, rank=10)
        rho2_d = [cfg.rho2 for cfg in setup_d]

        ok = (
            all(r >= 0.99 for r in rho2[1:])
            and all(r <= 0.05 for r in ratios)
            and all(r >= 0.85 for r in rho2_d[1:])
        )
        _report(5, "variance-reduction", ok)
        assert all(r >= 0.99 for r in rho2[1:]), f"synthetic rho^2 {rho2}"
        assert all(r <= 0.05 for r in ratios), f"V[W]/V[Y] {ratios}"
        assert all(r >= 0.85 for r in rho2_d[1:]), f"diffusion rho^2 {rho2_d}"


class TestCriterion06CostRatioTrend:
    def test_cost_ratio_decreases_with_epsilon(self):
        t0 = time.perf_counter()
        hierarchy = Diffusion1D(
            grids=(5, 23, 95),
            cost_gamma=2.0,
            sigma2=0.5,
            corr_length=0.3,
            n_modes=3,
            kl_grid_n=513,
        )
        pilot = pilot_mlmc(hierarchy, 100, 777)
        setup = prepare_control_variates(hierarchy, pilot, rank=5)
        ratios = []
        for eps in (1e-3, 1e-4, 1e-5):
            cost_ml = nominal_mlmc_cost(pilot.stats, allocate_mlmc(pilot.stats, eps))
            plan_cv = allocate_mlcv(pilot.stats, setup, eps)
            cost_cv = nominal_mlcv_cost(pilot.stats, plan_cv, setup)
            ratios.append(cost_cv / cost_ml)
        elapsed = time.perf_counter() - t0
        monotone = all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:]))
        ok = (
            ratios[-1] <= 0.9
            and monotone
            and ratios[0] > min(ratios)
            and elapsed < 600.0
        )
        _report(6, "cost-ratio-trend", ok)
        assert ratios[-1] <= 0.9, f"ratio at smallest epsilon {ratios[-1]:.3f}"
        assert monotone, f"ratios not non-increasing: {ratios}"
        assert ratios[0] > min(ratios), f"no crossover at largest epsilon: {ratios}"
        assert elapsed < 600.0, f"runtime {elapsed:.1f}s"


class TestCriterion07ThetaGridOptimality:
    def test_mse_minimized_at_theta_star(self, synthetic_study):
        model, pilot, setup = synthetic_study
        basis = setup[1].basis
        cfg = setup[1]
        xi_big = draw_inputs(171717, PURPOSE_ORACLE, 1, 0, 400_000, model.input_dim)
        truth = float((model.evaluate(1, xi_big).qoi - model.evaluate(0, xi_big).qoi).mean())
        grid = np.array([0.25, 0.5, 1.0, 1.5, 2.0]) * cfg.theta
        n_tilde = 30
        n_prime = int(round(cfg.multiplier * n_tilde))
        reps = 100
        errors = np.zeros((reps, grid.size))
        for rep in range(reps):
            seed = 515_000 + rep
            xi = draw_inputs(seed, PURPOSE_MAIN_Y, 1, 0, n_tilde, model.input_dim)
            fine = model.evaluate(1, xi)
            coarse = model.evaluate(0, xi)
            y = fine.qoi - coarse.qoi
            z = sample_z(model, basis, coarse.q, coarse.qoi)
            zbar = estimate_zbar(model, basis, n_prime, seed)
            for j, theta in enumerate(grid):
                errors[rep, j] = (y.mean() - theta * (z.mean() - zbar)) - truth
        mse = (errors**2).mean(axis=0)
        # ties within the sampling noise of `reps` squared-error averages are
        # allowed: the relative standard error of an MSE estimate is ~sqrt(2/reps)
        tolerance = 1.0 + 3.0 * math.sqrt(2.0 / reps)
        ok = mse[2] <= mse.min() * tolerance
        _report(7, "theta-grid-optimality", ok)
        assert mse[2] <= mse.min() * tolerance, f"mse grid {mse}, argmin {mse.argmin()}"


class TestCriterion08Degeneration:
    def test_forced_zero_correlation_matches_plain(self):
        model = SyntheticLowRank()
        pilot = pilot_mlmc(model, 100, 4321)
        setup = prepare_control_variates(model, pilot, rank=5)
        setup = [dataclasses.replace(c, rho2=0.0, multiplier=0.0, theta=0.0) for c in setup]
        assert all(not cfg.enabled for cfg in setup)
        plan_cv = allocate_mlcv(pilot.stats, setup, 0.05)
        plan_ml = allocate_mlmc(pilot.stats, 0.05)
        assert plan_cv.n_samples == plan_ml.n_samples
        res_cv = run_mlcv(model, plan_cv, pilot, setup)
        res_ml = run_mlmc(model, plan_ml, pilot)
        rel = abs(res_cv.estimate - res_ml.estimate) / abs(res_ml.estimate)
        # the bases are cut from pilot snapshots, so disabling every level
        # leaves no extra solves: the build cost of the run is exactly zero
        cost_gap = abs(res_cv.total_cost - res_ml.total_cost)
        ok = rel <= 1e-12 and cost_gap == 0.0
        _report(8, "degeneration", ok)
        assert rel <= 1e-12, f"relative estimate gap {rel:.3e}"
        assert cost_gap == 0.0, f"cost gap {cost_gap}"


class TestCriterion09RateFits:
    def test_exact_power_law_and_diffusion_rates(self):
        stats = [
            make_stats(ell, float(dofs**-1.7), 1.0, mean_y=float(dofs**-0.92), dofs=dofs)
            for ell, dofs in enumerate((16, 64, 256, 1024))
        ]
        fit = fit_rates(stats)
        exact_ok = abs(fit.alpha - 0.92) <= 1e-10 and abs(fit.beta - 1.7) <= 1e-10

        pilot = pilot_mlmc(Diffusion1D(), 500, 99)
        fit_d = fit_rates(pilot.stats)
        ok = exact_ok and fit_d.beta > 1.0 and fit_d.alpha > 0.5
        _report(9, "rate-fits", ok)
        assert abs(fit.alpha - 0.92) <= 1e-10, f"alpha {fit.alpha}"
        assert abs(fit.beta - 1.7) <= 1e-10, f"beta {fit.beta}"
        assert fit_d.beta > 1.0, f"diffusion beta {fit_d.beta}"
        assert fit_d.alpha > 0.5, f"diffusion alpha {fit_d.alpha}"


class TestCriterion10Reproducibility:
    @staticmethod
    def _tree_hashes(root):
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    def test_cli_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        config = {
            "schema": 1,
            "model": {
                "name": "synthetic_low_rank",
                "r_true": 3,
                "m0": 8,
                "refine": 2,
                "num_levels": 3,
                "input_dim": 4,
                "delta": 1e-3,
            },
            "epsilon": [0.1, 0.05],
            "methods": ["mc", "mlmc", "mlcv"],
            "rank": 3,
            "n_pilot": 30,
            "master_seed": 11,
            "out_dir": str(out),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        for cmd in ("pilot", "estimate", "compare"):
            assert main([cmd, str(path)]) == 0
        first = self._tree_hashes(out)
        for cmd in ("pilot", "estimate", "compare"):
            assert main([cmd, str(path)]) == 0
        second = self._tree_hashes(out)
        ok = first == second and len(first) >= 8
        _report(10, "reproducibility", ok)
        assert first == second
        assert len(first) >= 8


class TestCriterion11CostIdentity:
    @staticmethod
    def _recompute(model, result):
        total = 0.0
        for counts in result.eval_counts:
            fine = model.cost(counts.level)
            coarse = model.cost(counts.level - 1) if counts.level > 0 else 0.0
            total += counts.fine_evals * fine
            total += (counts.coarse_evals + counts.aux_coarse_evals) * coarse
        return total

    def test_reported_cost_matches_logged_counts(self):
        model = SyntheticLowRank()
        pilot = pilot_mlmc(model, 100, 555)
        setup = prepare_control_variates(model, pilot, rank=5)

        plan = allocate_mlcv(pilot.stats, setup, 0.02)
        result = run_mlcv(model, plan, pilot, setup)
        allocated_ok = result.total_cost == self._recompute(model, result)

        # with every count at or above the pilot size, the logged counts
        # collapse to the closed form: n0 C0 + sum over enabled levels of
        # (n + r)(C_{l-1} + C_l) + sum N' C_{l-1}
        saturated = AllocationPlan(
            n_samples=(150, 120, 110), n_prime=(0, 40, 30)
        )
        result_sat = run_mlcv(model, saturated, pilot, setup)
        closed_form = 0.0
        for ell in range(model.n_levels):
            fine = model.cost(ell)
            coarse = model.cost(ell - 1) if ell > 0 else 0.0
            n = saturated.n_samples[ell]
            cfg = setup[ell]
            if ell == 0 or not cfg.enabled:
                closed_form += n * (fine + coarse)
            else:
                closed_form += (n + cfg.rank) * (fine + coarse)
                closed_form += saturated.n_prime[ell] * coarse
        saturated_ok = (
            result_sat.total_cost == self._recompute(model, result_sat) == closed_form
        )

        ok = allocated_ok and saturated_ok
        _report(11, "cost-identity", ok)
        assert allocated_ok, (result.total_cost, self._recompute(model, result))
        assert saturated_ok, (result_sat.total_cost, closed_form)
