"""Tests for the KL machinery and the built-in model hierarchies."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import tracemalloc

import numpy as np
import pytest

from mlcv import models as models_module
from mlcv import (
    PURPOSE_PILOT,
    ConfigError,
    Diffusion1D,
    DimensionError,
    LevelHierarchy,
    LevelSubset,
    NumericalError,
    SyntheticLowRank,
    draw_inputs,
    kl_decompose,
    kl_modes_at,
    make_kernel,
    mc_oracle_mean,
    pilot_mlmc,
    trapezoid_weights,
)


def _closed_form_reference(a, h, qoi):
    """One system solved in plain Python floats, with each operation rounded
    in the order the batched solve rounds it: node sums are added in node
    order, and u is the running sum of (F_{1/2} - i h) h / a_{i+1/2}."""
    w = [h / v for v in a]
    ih = [i * h for i in range(len(a))]
    f_half = functools.reduce(operator.add, [x * v for x, v in zip(ih, w)]) / (
        functools.reduce(operator.add, w)
    )
    if qoi == "flux_at_left":
        return [x - f_half for x in ih]
    return list(itertools.accumulate((f_half - x) * v for x, v in zip(ih[:-1], w)))


# the two entry points that solve a level: with and without its output vectors
_SOLVES = ("evaluate", "qoi_of")


def _longdouble_solve(a, qoi):
    """The closed form in extended precision for node-major coefficients a
    (m + 1, n); returns (q, Q) with q of shape (output_dim, n)."""
    inv = 1 / np.asarray(a, dtype=np.longdouble)
    ih = (np.arange(inv.shape[0], dtype=np.longdouble) / inv.shape[0])[:, None]
    f_half = (ih * inv).sum(axis=0) / inv.sum(axis=0)
    if qoi == "flux_at_left":
        q = ih - f_half
        return q, 1.5 * q[0] - 0.5 * q[1]
    q = np.cumsum((f_half - ih[:-1]) * inv[:-1], axis=0) / inv.shape[0]
    return q, q.sum(axis=0) / inv.shape[0]


class TestKernels:
    def test_make_kernel_dispatch(self):
        d = np.array([0.0, 0.1, -0.4, 1.0])
        k = make_kernel("exponential", 4.0, 0.15)
        assert np.array_equal(k(d, 0.0), 4.0 * np.exp(-np.abs(d) / 0.15))
        k = make_kernel("squared_exponential", 0.33, 0.33)
        assert np.array_equal(k(d, 0.0), 0.33 * np.exp(-(d * d) / 0.33))
        with pytest.raises(ConfigError, match="unknown kernel 'matern'"):
            make_kernel("matern", 1.0, 1.0)

    def test_kernel_values(self):
        k = make_kernel("exponential", 4.0, 0.5)
        assert k(0.0, 0.0) == 4.0
        assert k(0.0, 0.5) == pytest.approx(4.0 * np.exp(-1.0))
        # the squared exponential divides by corr_length, not its square
        k = make_kernel("squared_exponential", 2.0, 0.25)
        assert k(0.0, 0.5) == pytest.approx(2.0 * np.exp(-1.0))

    def test_parameter_validation(self):
        """The name is checked first, then sigma2, then corr_length."""
        with pytest.raises(ConfigError, match="sigma2 must be positive"):
            make_kernel("exponential", -1.0, 0.3)
        with pytest.raises(ConfigError, match="corr_length must be positive"):
            make_kernel("squared_exponential", 1.0, 0.0)
        with pytest.raises(ConfigError, match="unknown kernel"):
            make_kernel("matern", -1.0, 0.0)
        with pytest.raises(ConfigError, match="sigma2"):
            make_kernel("exponential", np.nan, 0.0)


class TestTrapezoidWeights:
    def test_uniform_grid(self):
        w = trapezoid_weights(np.linspace(0.0, 1.0, 5))
        assert w == pytest.approx([0.125, 0.25, 0.25, 0.25, 0.125])
        assert w.sum() == pytest.approx(1.0)

    def test_nonuniform_grid_sums_to_length(self):
        g = np.array([0.0, 0.1, 0.4, 0.5, 1.0])
        assert trapezoid_weights(g).sum() == pytest.approx(1.0)

    def test_quadrature_exact_for_linear(self):
        g = np.linspace(0.0, 2.0, 9)
        w = trapezoid_weights(g)
        assert np.dot(w, 3.0 * g + 1.0) == pytest.approx(8.0, rel=1e-14)


def _exponential_kl_eigenvalues(sigma2, corr_length, count):
    """The ``count`` largest eigenvalues of sigma2 exp(-|x - y| / corr_length)
    on [0, 1], exactly (Ghanem and Spanos, Stochastic Finite Elements, 1991).

    On an interval of half-length a = 1/2, with c = 1 / corr_length, each
    eigenvalue is 2 c sigma2 / (omega^2 + c^2), where omega solves
    c - omega tan(omega a) = 0 (even modes) or omega + c tan(omega a) = 0
    (odd modes).  Each equation has one root in every half-period of the
    tangent on which it changes sign, found here by bisection.
    """
    c, a = 1.0 / corr_length, 0.5
    k = np.arange(count)

    def bisect(f, lo, hi):
        # f(lo) > 0 > f(hi); tan is never evaluated at a pole
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            above = f(mid) > 0.0
            lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
        return 0.5 * (lo + hi)

    even = bisect(lambda w: c - w * np.tan(w * a), k * np.pi / a, (k + 0.5) * np.pi / a)
    odd = bisect(lambda w: -(w + c * np.tan(w * a)), (k + 0.5) * np.pi / a, (k + 1) * np.pi / a)
    omega = np.sort(np.concatenate([even, odd]))[:count]
    return 2.0 * c * sigma2 / (omega**2 + c * c)


class TestKlDecompose:
    def test_exponential_eigenvalues_converge_at_second_order(self):
        """The trapezoid Nystrom eigenvalues approach the exact ones as h^2:
        the 10 largest lie within the pinned relative bounds, and doubling
        the grid divides each error by 4."""
        exact = _exponential_kl_eigenvalues(0.5, 0.3, 10)
        assert exact[0] == pytest.approx(0.2181243, rel=1e-6)
        errors = {}
        for n, bound in ((65, 2e-2), (513, 3e-4), (1025, 8e-5)):
            field = kl_decompose(make_kernel("exponential", 0.5, 0.3), np.linspace(0.0, 1.0, n), 10)
            errors[n] = np.abs(field.eigenvalues - exact) / exact
            assert errors[n].max() <= bound, n
        assert np.all(np.abs(errors[513] / errors[1025] - 4.0) <= 0.2)

    def test_constant_kernel_rank_one(self):
        class ConstKernel:
            def __call__(self, x, y):
                return 0.7 * np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape)

        field = kl_decompose(ConstKernel(), np.linspace(0.0, 1.0, 33), 5)
        assert field.eigenvalues[0] == pytest.approx(0.7, rel=1e-10)
        assert np.all(field.eigenvalues[1:] < 1e-10)

    def test_eigenvalues_descending_nonnegative(self):
        field = kl_decompose(make_kernel("exponential", 4.0, 0.15), np.linspace(0.0, 1.0, 128), 50)
        lam = field.eigenvalues
        assert np.all(lam >= 0.0)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_exponential_trace_capture(self):
        kernel = make_kernel("exponential", 4.0, 0.15)
        grid = np.linspace(0.0, 1.0, 128)
        field = kl_decompose(kernel, grid, 50)
        trace = 4.0 * trapezoid_weights(grid).sum()
        assert field.eigenvalues.sum() / trace >= 0.95

    def test_squared_exponential_decays_faster(self):
        grid = np.linspace(0.0, 1.0, 128)
        se = kl_decompose(make_kernel("squared_exponential", 0.33, 0.33), grid, 12)
        ex = kl_decompose(make_kernel("exponential", 0.33, 0.33), grid, 12)
        ratio_se = se.eigenvalues[9] / se.eigenvalues[0]
        ratio_ex = ex.eigenvalues[9] / ex.eigenvalues[0]
        assert ratio_se < ratio_ex

    def test_eigenvectors_orthonormal_under_quadrature(self):
        grid = np.linspace(0.0, 1.0, 65)
        field = kl_decompose(make_kernel("squared_exponential", 1.0, 0.2), grid, 8)
        w = trapezoid_weights(grid)
        gram = field.eigenvectors.T @ (w[:, None] * field.eigenvectors)
        assert np.allclose(gram, np.eye(8), atol=1e-8)

    def test_kernel_matrix_reconstruction(self):
        """Full-rank Nystrom decomposition reproduces the kernel matrix."""
        grid = np.linspace(0.0, 1.0, 24)
        field = kl_decompose(make_kernel("squared_exponential", 0.5, 0.3), grid, 24)
        recon = (field.eigenvectors * field.eigenvalues) @ field.eigenvectors.T
        k = field.kernel(grid[:, None], grid[None, :])
        assert np.allclose(recon, k, atol=1e-8)

    def test_sign_convention_deterministic(self):
        grid = np.linspace(0.0, 1.0, 40)
        a = kl_decompose(make_kernel("exponential", 1.0, 0.3), grid, 6)
        b = kl_decompose(make_kernel("exponential", 1.0, 0.3), grid, 6)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for i in range(6):
            col = a.eigenvectors[:, i]
            first = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
            assert first > 0

    def test_validation(self):
        kernel = make_kernel("exponential", 1.0, 0.3)
        with pytest.raises(DimensionError):
            kl_decompose(kernel, np.linspace(0, 1, 8), 9)
        with pytest.raises(DimensionError):
            kl_decompose(kernel, np.array([0.5]), 1)

    # (kernel, grid points, modes, eigenvalue bound / lambda_1, scaled-mode
    # bound).  Measured under one and two OpenBLAS threads: eigenvalues
    # within 1.4e-15 lambda_1 and scaled modes within 1.2e-11 (``fine_mc``,
    # whose tenth eigenvalue is 1e-9 of the first), 3.7e-15 (``cv_crossover``)
    # and 1.1e-12 (slow decay).
    @pytest.mark.parametrize(
        "kernel, n, n_modes, value_bound, mode_bound",
        [
            (("squared_exponential", 0.3, 0.3), 1025, 10, 1e-14, 1e-10),
            (("exponential", 0.5, 0.3), 513, 3, 1e-14, 1e-13),
            (("exponential", 4.0, 0.15), 128, 50, 1e-14, 1e-11),
        ],
        ids=["fine_mc", "cv_crossover", "slow_decay"],
    )
    def test_matches_dense_eigensolver(self, kernel, n, n_modes, value_bound, mode_bound):
        """The subspace iteration keeps the pairs a dense ``eigh`` of the
        same weighted matrix keeps, on both benchmark kernels and on a kernel
        whose 50 kept eigenvalues of 128 decay slowly: eigenvalues within
        ``value_bound`` of the largest, and scaled modes sqrt(lambda) phi
        within ``mode_bound``."""
        k = make_kernel(*kernel)
        grid = np.linspace(0.0, 1.0, n)
        field = kl_decompose(k, grid, n_modes)
        sw = np.sqrt(trapezoid_weights(grid))
        lam, psi = np.linalg.eigh(sw[:, None] * k(grid[:, None], grid[None, :]) * sw[None, :])
        lam, psi = lam[::-1][:n_modes], psi[:, ::-1][:, :n_modes]
        phi = psi / sw[:, None] * np.sign(psi[0])  # every mode's first entry is nonzero here
        assert np.abs(field.eigenvalues - lam).max() <= value_bound * lam[0]
        scaled = field.eigenvectors * np.sqrt(field.eigenvalues) - phi * np.sqrt(lam)
        assert np.abs(scaled).max() <= mode_bound

    def test_step_cap_raises(self, monkeypatch):
        """A kernel whose kept eigenvalues need more steps than the cap
        allows fails loudly instead of returning unsettled modes."""
        monkeypatch.setattr(models_module, "_KL_MAX_STEPS", 5)
        with pytest.raises(NumericalError, match="needs more than 5 steps"):
            kl_decompose(make_kernel("exponential", 4.0, 0.15), np.linspace(0.0, 1.0, 128), 50)

    def test_no_dense_eigensolve_of_the_nystrom_matrix(self, monkeypatch):
        """On the ``fine_mc`` grid, no symmetric eigensolver sees a matrix
        larger than the iteration block, 10 modes plus the oversampling."""
        shapes = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)

            def recorded(a, *args, _solve=solve, **kwargs):
                shapes.append(np.shape(a))
                return _solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        kl_decompose(make_kernel("squared_exponential", 0.3, 0.3), np.linspace(0.0, 1.0, 1025), 10)
        width = 10 + models_module._KL_OVERSAMPLE
        assert shapes
        assert all(shape == (width, width) for shape in shapes)


class TestKlModesAt:
    def test_matches_grid_values(self):
        grid = np.linspace(0.0, 1.0, 48)
        field = kl_decompose(make_kernel("squared_exponential", 1.0, 0.2), grid, 6)
        at_grid = kl_modes_at(field, grid)
        assert np.allclose(at_grid, field.eigenvectors, atol=1e-8)

    def test_extension_is_smooth_between_nodes(self):
        grid = np.linspace(0.0, 1.0, 48)
        field = kl_decompose(make_kernel("squared_exponential", 1.0, 0.2), grid, 4)
        mid = (grid[:-1] + grid[1:]) / 2.0
        vals = kl_modes_at(field, mid)
        neighbor_mean = (field.eigenvectors[:-1] + field.eigenvectors[1:]) / 2.0
        # midpoint values sit within linear-interpolation error of the nodes
        assert np.allclose(vals, neighbor_mean, atol=2e-2)


class TestModelSizeCap:
    """A model whose set-up would hold more float64 values than the cap is
    refused by its constructor before anything large is allocated."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SyntheticLowRank(num_levels=60),
            lambda: SyntheticLowRank(m0=1 << 40),
            lambda: Diffusion1D(kl_grid_n=10**6),
            lambda: Diffusion1D(grids=(1 << 30,)),
        ],
        ids=["num_levels", "m0", "kl_grid_n", "grids"],
    )
    def test_oversized_model_refused_before_allocating(self, build):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="model too large"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_cap_counts_what_the_model_holds(self, monkeypatch):
        """A model holding exactly the cap is built; a larger one is refused."""
        # 8 + 16 rows of r_true + 1 = 3 values
        monkeypatch.setattr(models_module, "_MAX_MODEL_DOUBLES", 72)
        SyntheticLowRank(r_true=2, m0=8, num_levels=2, input_dim=3)
        with pytest.raises(ConfigError, match="model too large"):
            SyntheticLowRank(r_true=2, m0=8, num_levels=2, input_dim=3, refine=3)
        # a 33-point KL matrix plus (7 + 1) + (15 + 1) midpoints of 2 modes
        monkeypatch.setattr(models_module, "_MAX_MODEL_DOUBLES", 33 * 33 + 48)
        Diffusion1D(grids=(7, 15), n_modes=2, kl_grid_n=33)
        with pytest.raises(ConfigError, match="model too large"):
            Diffusion1D(grids=(7, 15), n_modes=2, kl_grid_n=34)


class TestSyntheticLowRank:
    def test_shapes_and_costs(self, synthetic, synthetic_pilot):
        assert synthetic.finest_level == 2
        assert synthetic.n_levels == 3
        assert [synthetic.dofs(k) for k in range(3)] == [8, 16, 32]
        assert [synthetic.output_dim(k) for k in range(3)] == [8, 16, 32]
        assert [synthetic.cost(k) for k in range(3)] == [8.0, 16.0, 32.0]
        assert synthetic_pilot.stats[0].unit_cost == 8.0
        assert synthetic_pilot.stats[2].unit_cost == 48.0
        assert synthetic.input_dim == 4

    def test_cost_gamma_exponent(self):
        h = SyntheticLowRank(r_true=2, m0=4, num_levels=2, input_dim=3, cost_gamma=2.0)
        assert h.cost(0) == 16.0
        assert h.cost(1) == 64.0

    def test_deterministic_in_xi(self, synthetic):
        xi = draw_inputs(7, PURPOSE_PILOT, 0, 0, 5, synthetic.input_dim)
        a = synthetic.evaluate(1, xi)
        b = synthetic.evaluate(1, xi)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.qoi, b.qoi)

    def test_qoi_is_mean_of_entries(self, synthetic):
        xi = draw_inputs(7, PURPOSE_PILOT, 0, 0, 3, synthetic.input_dim)
        out = synthetic.evaluate(2, xi)
        assert out.q.shape == (32, 3)
        assert out.qoi == pytest.approx(out.q.mean(axis=0), rel=1e-15)
        assert synthetic.qoi(2, out.q) == pytest.approx(out.qoi, rel=1e-15)

    def test_exact_rank_when_unperturbed(self, synthetic_exact):
        xi = draw_inputs(11, PURPOSE_PILOT, 0, 0, 200, synthetic_exact.input_dim)
        data = synthetic_exact.evaluate(1, xi).q
        s = np.linalg.svd(data, compute_uv=False)
        numerical_rank = int(np.sum(s > 1e-8 * s[0]))
        assert numerical_rank == synthetic_exact.r_true == 3

    def test_correction_variance_decays(self, synthetic):
        xi = draw_inputs(13, PURPOSE_PILOT, 0, 0, 100, synthetic.input_dim)
        v = []
        for level in (1, 2):
            fine, coarse = synthetic.evaluate(level, xi), synthetic.evaluate(level - 1, xi)
            v.append(np.var(fine.qoi - coarse.qoi, ddof=1))
        assert v[1] < v[0]

    def test_qoi_of_memory_is_a_few_g_rows(self):
        """``qoi_of`` never forms the (m, n) output matrix: on a
        ``wide_pilot``-shaped model its traced peak stays below four (r_true,
        n) arrays, far under one (64, n) output."""
        h = SyntheticLowRank(r_true=12, m0=64, refine=2, num_levels=5, input_dim=16)
        n = 65536
        xi = draw_inputs(12, PURPOSE_PILOT, 0, 0, n, h.input_dim)
        tracemalloc.start()
        try:
            h.qoi_of(0, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * h.r_true * n * 8

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            SyntheticLowRank(r_true=0)
        with pytest.raises(ConfigError):
            SyntheticLowRank(r_true=5, m0=4)
        with pytest.raises(ConfigError):
            SyntheticLowRank(num_levels=1)
        with pytest.raises(ConfigError):
            SyntheticLowRank(refine=1)
        with pytest.raises(ConfigError):
            SyntheticLowRank(delta=-0.1)
        with pytest.raises(ConfigError):
            SyntheticLowRank(coeff_seed=-1)


class TestSyntheticExactMean:
    """The closed-form mean of ``SyntheticLowRank`` against large Monte Carlo
    oracles on their own streams, each within 4 standard deviations."""

    @pytest.fixture(scope="class")
    def model(self):
        return SyntheticLowRank()

    @pytest.fixture(scope="class")
    def var_q(self, model):
        """Per-level output variances from a large pilot, for the oracles'
        standard deviations."""
        return [s.var_q for s in pilot_mlmc(model, 10_000, 424242).stats]

    def test_finest_level_oracle(self, model, var_q, exact_mean):
        # the oracle of acceptance criterion 04
        n = 10**6
        oracle = mc_oracle_mean(model, n, 424242)
        assert abs(oracle - exact_mean(model, 2)) <= 4.0 * math.sqrt(var_q[2] / n)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_level_oracles(self, model, var_q, exact_mean, level):
        n = 2 * 10**5
        oracle = mc_oracle_mean(model, n, 424242, level=level)
        assert abs(oracle - exact_mean(model, level)) <= 4.0 * math.sqrt(var_q[level] / n)


class TestDiffusion1D:
    def test_constant_coefficient_exact_solution(self, unit_diffusion):
        h = unit_diffusion(grids=(15, 31), n_modes=2, kl_grid_n=33)
        xi = np.zeros((1, 2))
        out = h.evaluate(1, xi)
        m = 31
        nodes = np.arange(1, m + 1) / (m + 1)
        exact = nodes * (1.0 - nodes) / 2.0
        assert np.allclose(out.q[:, 0], exact, atol=1e-13)

    def test_constant_coefficient_flux(self, unit_diffusion):
        h = unit_diffusion(
            grids=(7, 15),
            qoi="flux_at_left",
            n_modes=2,
            kl_grid_n=33,
        )
        out = h.evaluate(0, np.zeros((1, 2)))
        assert out.qoi[0] == pytest.approx(-0.5, abs=1e-13)
        mids = (np.arange(8) + 0.5) / 8.0
        assert np.allclose(out.q[:, 0], mids - 0.5, atol=1e-13)

    def test_integral_qoi_second_order_convergence(self, unit_diffusion):
        h = unit_diffusion(grids=(7, 15, 31, 63), n_modes=2, kl_grid_n=33)
        errors = [abs(h.evaluate(k, np.zeros((1, 2))).qoi[0] - 1.0 / 12.0) for k in range(4)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    @pytest.mark.parametrize("qoi", ["integral_of_u", "flux_at_left"])
    def test_solver_satisfies_assembled_system(self, qoi):
        """Solution of each sampled system has a tiny residual against the
        directly assembled tridiagonal matrix; the flux profile is -a u' of
        that solution."""
        h = Diffusion1D(grids=(9, 19), n_modes=4, kl_grid_n=65, qoi=qoi)
        xi = draw_inputs(3, PURPOSE_PILOT, 0, 0, 5, h.input_dim)
        out = h.evaluate(1, xi)
        m = 19
        step = 1.0 / (m + 1)
        a = h._coefficient(1, xi).T  # per sample
        for j in range(5):
            mat = (
                np.diag(a[j, :-1] + a[j, 1:])
                - np.diag(a[j, 1:-1], k=1)
                - np.diag(a[j, 1:-1], k=-1)
            )
            u = np.linalg.solve(mat, np.full(m, step * step))
            if qoi == "integral_of_u":
                resid = mat @ out.q[:, j] - step * step
                assert np.linalg.norm(resid) < 1e-12
                assert np.allclose(out.q[:, j], u, rtol=1e-12, atol=0.0)
            else:
                flux = -a[j] * np.diff(np.concatenate([[0.0], u, [0.0]])) / step
                assert np.allclose(out.q[:, j], flux, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("qoi", ["integral_of_u", "flux_at_left"])
    def test_solver_matches_scalar_reference_bitwise(self, qoi):
        h = Diffusion1D(grids=(2, 5, 11, 23, 47, 95, 191), n_modes=4, kl_grid_n=65, qoi=qoi)
        xi = draw_inputs(11, PURPOSE_PILOT, 0, 0, 4, h.input_dim)
        for level in range(h.n_levels):
            out = h.evaluate(level, xi)
            assert out.q.shape == (h.output_dim(level), 4)
            assert out.q.flags.c_contiguous
            step = 1.0 / (h.dofs(level) + 1)
            a = h._coefficient(level, xi)
            for j in range(4):
                q = _closed_form_reference(a[:, j].tolist(), step, qoi)
                if qoi == "integral_of_u":
                    # summed in node order, as the QoI sums down the rows of q
                    qoi_j = step * functools.reduce(operator.add, q)
                else:
                    qoi_j = 1.5 * q[0] - 0.5 * q[1]
                assert out.q[:, j].tobytes() == np.array(q).tobytes()
                assert out.qoi[j] == qoi_j

    @pytest.mark.parametrize("level", [0, 1])
    def test_non_finite_solve_names_input_row(self, level):
        # 3000 overflows the coefficient at a few midpoints only, which the
        # closed form would turn into finite output if it went unchecked;
        # -1e4 with no mean coefficient underflows it to zero, a finite
        # coefficient with a non-finite solution
        for qoi, entry in itertools.product(("integral_of_u", "flux_at_left"), _SOLVES):
            for abar, big in ((0.1, 1e4), (0.1, 3000.0), (0.0, -1e4)):
                h = Diffusion1D(
                    grids=(9, 19), n_modes=4, kl_grid_n=65, qoi=qoi, mean_coefficient=abar
                )
                xi = np.zeros((5, 4))
                xi[2, 0] = big
                with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
                    getattr(h, entry)(level, xi)
                assert f"at level {level} for input row 2: xi=[{big:.0f}." in str(err.value)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double is no wider than double here",
    )
    @pytest.mark.parametrize("qoi", ["integral_of_u", "flux_at_left"])
    def test_solve_is_accurate_at_fine_grid(self, qoi):
        """At m = 255 both outputs lie within 3e-14 relative of the closed
        form evaluated in extended precision from the same coefficients."""
        h = Diffusion1D(grids=(255,), n_modes=8, kl_grid_n=513, qoi=qoi)
        xi = draw_inputs(13, PURPOSE_PILOT, 0, 0, 64, h.input_dim)
        out = h.evaluate(0, xi)
        ref_q, ref_qoi = _longdouble_solve(h._coefficient(0, xi), qoi)
        q_err = np.abs(out.q - ref_q).max(axis=0) / np.abs(ref_q).max(axis=0)
        assert float(q_err.max()) < 3e-14
        assert float(np.max(np.abs(out.qoi - ref_qoi) / np.abs(ref_qoi))) < 3e-14

    @pytest.mark.parametrize("qoi", ["integral_of_u", "flux_at_left"])
    def test_column_blocks_do_not_change_bits(self, qoi, monkeypatch):
        """A blocked solve is its blocks' solves side by side, bit for bit,
        and each lies within 3e-14 relative of the closed form evaluated in
        long double."""
        h = Diffusion1D(grids=(2, 5, 11), n_modes=4, kl_grid_n=65, qoi=qoi)
        for n in (1, 2, 3, 6, 11, 16):
            xi = draw_inputs(5, PURPOSE_PILOT, 0, 0, n, h.input_dim)
            for level in range(h.n_levels):
                # blocks of 5 columns: 1, 6, 11 and 16 samples end in a
                # one-column block
                monkeypatch.setattr(models_module, "_BLOCK_DOUBLES", 5 * (h.dofs(level) + 1))
                out = h.evaluate(level, xi)
                alone = [h.evaluate(level, xi[s : s + 5]) for s in range(0, n, 5)]
                assert out.q.flags.c_contiguous
                assert out.q.tobytes() == np.hstack([b.q for b in alone]).tobytes(), (n, level)
                assert out.qoi.tobytes() == np.hstack([b.qoi for b in alone]).tobytes()
                ref_q, ref_qoi = _longdouble_solve(h._coefficient(level, xi), qoi)
                q_err = np.abs(out.q - ref_q).max(axis=0) / np.abs(ref_q).max(axis=0)
                assert float(q_err.max()) < 3e-14, (n, level)
                assert float(np.max(np.abs(out.qoi - ref_qoi) / np.abs(ref_qoi))) < 3e-14

    @pytest.mark.parametrize("n", [8192, 65536])
    @pytest.mark.parametrize("qoi", ["integral_of_u", "flux_at_left"])
    def test_solve_memory_is_a_few_blocks(self, qoi, n):
        h = Diffusion1D(grids=(255,), n_modes=8, kl_grid_n=513, qoi=qoi)
        xi = draw_inputs(12, PURPOSE_PILOT, 0, 0, n, h.input_dim)
        tracemalloc.start()
        try:
            out = h.evaluate(0, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's h / a and its product with the midpoint positions are
        # live at once; the rest covers the finiteness masks and the small
        # temporaries
        assert peak - out.q.nbytes - out.qoi.nbytes < 4 * models_module._BLOCK_DOUBLES * 8

    def test_non_finite_solve_names_row_of_later_block(self, monkeypatch):
        h = Diffusion1D(grids=(9, 19), n_modes=4, kl_grid_n=65)
        monkeypatch.setattr(models_module, "_BLOCK_DOUBLES", 2 * 10)
        xi = np.zeros((5, 4))
        xi[3, 0] = 1e4
        for entry in _SOLVES:
            with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
                getattr(h, entry)(0, xi)
            assert "at level 0 for input row 3: xi=[10000." in str(err.value)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
        reason="long double is no wider than double here",
    )
    @pytest.mark.parametrize("qoi", ["integral_of_u", "flux_at_left"])
    def test_qoi_of_is_accurate_at_fine_grid(self, qoi):
        """At m = 255 the quantities of interest solved without the output
        vector lie within 3e-14 relative of the closed form evaluated in
        extended precision from the same coefficients."""
        h = Diffusion1D(grids=(255,), n_modes=8, kl_grid_n=513, qoi=qoi)
        xi = draw_inputs(13, PURPOSE_PILOT, 0, 0, 64, h.input_dim)
        _, ref_qoi = _longdouble_solve(h._coefficient(0, xi), qoi)
        assert float(np.max(np.abs(h.qoi_of(0, xi) - ref_qoi) / np.abs(ref_qoi))) < 3e-14

    @pytest.mark.parametrize("qoi", ["integral_of_u", "flux_at_left"])
    def test_qoi_of_blocks_do_not_change_bits(self, qoi, monkeypatch):
        """A blocked ``qoi_of`` is its blocks' calls side by side, bit for bit."""
        h = Diffusion1D(grids=(2, 5, 11), n_modes=4, kl_grid_n=65, qoi=qoi)
        for n in (1, 2, 3, 6, 11, 16):
            xi = draw_inputs(5, PURPOSE_PILOT, 0, 0, n, h.input_dim)
            for level in range(h.n_levels):
                monkeypatch.setattr(models_module, "_BLOCK_DOUBLES", 5 * (h.dofs(level) + 1))
                alone = [h.qoi_of(level, xi[s : s + 5]) for s in range(0, n, 5)]
                assert h.qoi_of(level, xi).tobytes() == np.hstack(alone).tobytes(), (n, level)

    @pytest.mark.parametrize("qoi", ["integral_of_u", "flux_at_left"])
    def test_qoi_of_memory_is_a_few_blocks(self, qoi):
        """``qoi_of`` never forms the (m, n) output matrix: its traced peak,
        its n quantities of interest included, stays below four blocks."""
        h = Diffusion1D(grids=(255,), n_modes=8, kl_grid_n=513, qoi=qoi)
        xi = draw_inputs(12, PURPOSE_PILOT, 0, 0, 65536, h.input_dim)
        h.qoi_of(0, xi[:1])  # the KL modes are formed once, outside the trace
        tracemalloc.start()
        try:
            h.qoi_of(0, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * models_module._BLOCK_DOUBLES * 8

    def test_coefficient_positive(self):
        h = Diffusion1D(grids=(9, 19), n_modes=4, sigma2=1.5, kl_grid_n=65)
        xi = draw_inputs(4, PURPOSE_PILOT, 0, 0, 50, h.input_dim)
        a = h._coefficient(1, xi)
        assert a.shape == (20, 50)
        assert np.all(a > 0.1)

    def test_coupled_at_zero_xi_is_deterministic_difference(self):
        h = Diffusion1D(grids=(7, 15), n_modes=3, kl_grid_n=65)
        xi = np.zeros((1, 3))
        fine, coarse = h.evaluate(1, xi), h.evaluate(0, xi)
        y = fine.qoi[0] - coarse.qoi[0]
        alt = h.evaluate(1, xi).qoi[0] - h.evaluate(0, xi).qoi[0]
        assert y == alt
        assert y != 0.0

    def test_deterministic_model_zero_correction_variance(self, unit_diffusion):
        h = unit_diffusion(grids=(7, 15), n_modes=2, kl_grid_n=33)
        xi = draw_inputs(5, PURPOSE_PILOT, 0, 0, 20, h.input_dim)
        fine, coarse = h.evaluate(1, xi), h.evaluate(0, xi)
        y = fine.qoi - coarse.qoi
        assert np.var(y) == 0.0

    def test_correction_variance_decays(self):
        h = Diffusion1D(grids=(7, 15, 31), n_modes=6, kl_grid_n=129)
        xi = draw_inputs(6, PURPOSE_PILOT, 0, 0, 200, h.input_dim)
        v = []
        for level in (1, 2):
            fine, coarse = h.evaluate(level, xi), h.evaluate(level - 1, xi)
            v.append(np.var(fine.qoi - coarse.qoi, ddof=1))
        assert v[1] < v[0]

    def test_telescoping_pathwise(self, diffusion_small):
        xi = draw_inputs(8, PURPOSE_PILOT, 0, 0, 4, diffusion_small.input_dim)
        total = diffusion_small.evaluate(0, xi).qoi.copy()
        for level in (1, 2):
            fine = diffusion_small.evaluate(level, xi)
            coarse = diffusion_small.evaluate(level - 1, xi)
            total += fine.qoi - coarse.qoi
        direct = diffusion_small.evaluate(2, xi).qoi
        assert np.allclose(total, direct, rtol=1e-12)

    def test_coupling_shares_inputs_bitwise(self, diffusion_small):
        """A coupled pair's coarse half is a plain evaluation at the shared
        inputs: solving the fine level first leaves no state behind."""
        xi = draw_inputs(9, PURPOSE_PILOT, 0, 0, 6, diffusion_small.input_dim)
        direct = diffusion_small.evaluate(0, xi)
        diffusion_small.evaluate(1, xi)
        coarse = diffusion_small.evaluate(0, xi)
        assert np.array_equal(coarse.q, direct.q)
        assert np.array_equal(coarse.qoi, direct.qoi)

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            Diffusion1D(grids=(15, 30))
        with pytest.raises(ConfigError):
            Diffusion1D(grids=(15, 15))
        with pytest.raises(ConfigError):
            Diffusion1D(qoi="point_value")
        with pytest.raises(ConfigError):
            Diffusion1D(mean_coefficient=-1.0)
        with pytest.raises(ConfigError):
            Diffusion1D(kernel="unknown")

    @pytest.mark.parametrize(
        "params",
        [{"n_modes": 0}, {"n_modes": 8, "kl_grid_n": 4}, {"sigma2": -1.0},
         {"corr_length": 0.0}],
        ids=["no_modes", "kl_grid_too_small", "negative_sigma2", "zero_corr_length"],
    )
    def test_constructor_checks_stay_eager(self, monkeypatch, params):
        """The KL eigensolve is deferred, but no parameter check is."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the constructor formed the KL modes")

        monkeypatch.setattr(models_module, "kl_decompose", forbidden)
        with pytest.raises(ConfigError):
            Diffusion1D(**params)

    def test_kl_modes_formed_on_first_solve(self, monkeypatch):
        calls = []
        decompose = models_module.kl_decompose

        def counted(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(models_module, "kl_decompose", counted)
        h = Diffusion1D(grids=(7, 15), n_modes=3, kl_grid_n=65)
        assert calls == []
        xi = draw_inputs(3, PURPOSE_PILOT, 0, 0, 4, h.input_dim)
        h.evaluate(1, xi)
        h.evaluate(0, xi)
        assert len(calls) == 1

    @pytest.mark.parametrize("qoi", ["integral_of_u", "flux_at_left"])
    def test_lazy_modes_match_forced_bitwise(self, qoi):
        """A model whose modes form on its first solve gives the outputs of
        one whose modes were forced at construction, bit for bit."""
        params = {"grids": (7, 15, 31), "n_modes": 4, "kl_grid_n": 65, "qoi": qoi}
        forced = Diffusion1D(**params)
        forced_modes = forced._mid_modes
        lazy = Diffusion1D(**params)
        assert lazy._modes is None
        xi = draw_inputs(10, PURPOSE_PILOT, 0, 0, 50, lazy.input_dim)
        for level in (2, 0, 1):
            a, b = lazy.evaluate(level, xi), forced.evaluate(level, xi)
            assert a.q.tobytes() == b.q.tobytes()
            assert a.qoi.tobytes() == b.qoi.tobytes()
        for m_lazy, m_forced in zip(lazy._mid_modes, forced_modes, strict=True):
            assert m_lazy.tobytes() == m_forced.tobytes()

    def test_evaluate_validation(self, diffusion_small):
        with pytest.raises(DimensionError):
            diffusion_small.evaluate(5, np.zeros((1, 4)))
        with pytest.raises(DimensionError):
            diffusion_small.evaluate(0, np.zeros((1, 3)))


class _NoQoiHook(LevelHierarchy):
    """A minimal model that keeps the default ``_solve_qoi``."""

    input_dim = 3
    cost_gamma = 1.0
    _dofs = _output_dims = (4, 9)

    def _solve(self, level, z):
        x = np.arange(self._dofs[level])[:, None] / self._dofs[level]
        return np.sin(x + z[:, 0]) * np.exp(0.1 * z[:, 1] * z[:, 2])

    def _output_map(self, level, q):
        return q.mean(axis=0)


def test_default_qoi_of_is_evaluate_qoi_bitwise():
    """A model without its own ``_solve_qoi`` maps its solved outputs, so
    ``qoi_of`` is ``evaluate``'s quantity of interest bit for bit."""
    h = _NoQoiHook()
    xi = draw_inputs(21, PURPOSE_PILOT, 0, 0, 200, h.input_dim)
    for level in range(h.n_levels):
        assert h.qoi_of(level, xi).tobytes() == h.evaluate(level, xi).qoi.tobytes()


@pytest.mark.parametrize("model", ["synthetic", "synthetic_exact"])
def test_synthetic_qoi_of_agrees_with_evaluate(model, request):
    """``SyntheticLowRank.qoi_of`` averages A's rows before the product with
    g, so it rounds differently from the mean of ``evaluate``'s outputs; the
    gap is measured against the level's largest Q, since single Q near zero
    carry a larger relative gap (up to 3.6e-12 on 65,536 rows of these
    models)."""
    h = request.getfixturevalue(model)
    xi = draw_inputs(21, PURPOSE_PILOT, 0, 0, 200, h.input_dim)
    for level in range(h.n_levels):
        ref = h.evaluate(level, xi).qoi
        gap = np.max(np.abs(h.qoi_of(level, xi) - ref))
        assert gap <= 1e-14 * np.max(np.abs(ref)), level


@pytest.mark.parametrize("model", ["synthetic", "integral_of_u", "flux_at_left", "subset"])
def test_evaluate_qoi_is_qoi_of_outputs_bitwise(model, synthetic):
    """``evaluate``'s quantities of interest are ``qoi`` applied to its
    outputs, bit for bit, so reconstructed outputs round as solved ones do."""
    grids = (15, 31, 63, 127, 255)
    if model == "synthetic":
        h = synthetic
    elif model == "subset":
        h = LevelSubset(Diffusion1D(grids=grids, n_modes=6), [0, 2, 4])
    else:
        h = Diffusion1D(grids=grids, n_modes=6, qoi=model)
    xi = draw_inputs(21, PURPOSE_PILOT, 0, 0, 200, h.input_dim)
    for level in range(h.n_levels):
        out = h.evaluate(level, xi)
        assert out.qoi.tobytes() == h.qoi(level, out.q).tobytes()


class TestLevelSubset:
    def test_reindexing_and_delegation(self, diffusion_small):
        sub = LevelSubset(diffusion_small, [0, 2])
        assert sub.finest_level == 1
        assert sub.input_dim == diffusion_small.input_dim
        assert sub.dofs(1) == diffusion_small.dofs(2)
        assert [sub.cost(0), sub.cost(1)] == [diffusion_small.cost(0), diffusion_small.cost(2)]
        assert sub.output_dim(1) == diffusion_small.output_dim(2)
        xi = draw_inputs(10, PURPOSE_PILOT, 0, 0, 3, sub.input_dim)
        assert np.array_equal(sub.evaluate(1, xi).q, diffusion_small.evaluate(2, xi).q)
        fine, coarse = sub.evaluate(1, xi), sub.evaluate(0, xi)
        assert np.array_equal(fine.q, diffusion_small.evaluate(2, xi).q)
        assert np.array_equal(coarse.q, diffusion_small.evaluate(0, xi).q)

    def test_qoi_of_forwards_to_parent(self, diffusion_small, synthetic, monkeypatch):
        """A subset solves its quantities of interest through its parent's
        ``_solve_qoi``, not through the output vectors, for both models that
        override it."""

        def no_solve(level, z):
            raise AssertionError("output vector formed")

        for parent in (diffusion_small, synthetic):
            sub = LevelSubset(parent, [0, 2])
            xi = draw_inputs(10, PURPOSE_PILOT, 0, 0, 3, sub.input_dim)
            expected = [parent.qoi_of(level, xi) for level in (0, 2)]
            with monkeypatch.context() as patch:
                patch.setattr(parent, "_solve", no_solve)
                for level, ref in enumerate(expected):
                    assert sub.qoi_of(level, xi).tobytes() == ref.tobytes()

    def test_single_level_subset(self, diffusion_small):
        sub = LevelSubset(diffusion_small, [2])
        assert sub.finest_level == 0
        assert sub.n_levels == 1

    def test_validation(self, diffusion_small):
        with pytest.raises(ConfigError):
            LevelSubset(diffusion_small, [])
        with pytest.raises(ConfigError):
            LevelSubset(diffusion_small, [2, 0])
        with pytest.raises(ConfigError):
            LevelSubset(diffusion_small, [0, 0, 1])
        with pytest.raises(DimensionError):
            LevelSubset(diffusion_small, [0, 7])
