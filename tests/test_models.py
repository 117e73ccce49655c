"""Tests for the KL machinery and the built-in model hierarchies."""

from __future__ import annotations

import functools
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
    ExponentialKernel,
    LevelSubset,
    NumericalError,
    SquaredExponentialKernel,
    SyntheticLowRank,
    draw_inputs,
    kl_decompose,
    kl_modes_at,
    make_kernel,
    mc_oracle_mean,
    pilot_mlmc,
    trapezoid_weights,
)


def _thomas_reference(a, h):
    """One system solved in plain Python floats, with the multiply and the
    subtract of each update done separately, as the batched sweep does."""
    m = len(a) - 1
    diag = [a[i] + a[i + 1] for i in range(m)]
    off = [-a[i + 1] for i in range(m - 1)]
    rhs = h * h
    cp = [off[0] / diag[0]]
    dp = [rhs / diag[0]]
    for i in range(1, m):
        denom = diag[i] - off[i - 1] * cp[i - 1]
        if i < m - 1:
            cp.append(off[i] / denom)
        dp.append((rhs - off[i - 1] * dp[i - 1]) / denom)
    for i in range(m - 2, -1, -1):
        dp[i] = dp[i] - cp[i] * dp[i + 1]
    return dp


def _whole_batch_solve(h, level, xi):
    """A Diffusion1D solve as one block: the whole batch's coefficient,
    transposed to node-major, then one Thomas sweep."""
    step = 1.0 / (h.dofs(level) + 1)
    a = np.ascontiguousarray(h._coefficient(level, xi).T)
    upad = np.zeros((a.shape[0] + 1, a.shape[1]))
    models_module._solve_tridiagonal_batch(a[:-1] + a[1:], -a[1:-1], step * step, upad[1:-1])
    if h.qoi_kind == "integral_of_u":
        q = upad[1:-1]
    else:
        q = -a * np.diff(upad, axis=0) / step
    return q, h.qoi(level, q)


@pytest.mark.parametrize("width", range(5))
def test_splits_cover_in_order_without_one_row_pieces(width):
    assert models_module._splits(0, width) == []
    for n in range(1, 40):
        pieces = models_module._splits(n, width)
        bounds = [0] + [stop for _, stop in pieces]
        assert [start for start, _ in pieces] == bounds[:-1]
        assert bounds[-1] == n
        sizes = [stop - start for start, stop in pieces]
        assert sizes == [1] if n == 1 else 2 <= min(sizes)
        assert max(sizes) <= max(2, width) + 1


class TestKernels:
    def test_make_kernel_dispatch(self):
        k = make_kernel("exponential", 4.0, 0.15)
        assert isinstance(k, ExponentialKernel)
        k = make_kernel("squared_exponential", 0.33, 0.33)
        assert isinstance(k, SquaredExponentialKernel)
        with pytest.raises(ConfigError):
            make_kernel("matern", 1.0, 1.0)

    def test_kernel_values(self):
        k = ExponentialKernel(4.0, 0.5)
        assert k(0.0, 0.0) == 4.0
        assert k(0.0, 0.5) == pytest.approx(4.0 * np.exp(-1.0))
        k = SquaredExponentialKernel(2.0, 0.25)
        assert k(0.0, 0.5) == pytest.approx(2.0 * np.exp(-1.0))

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            ExponentialKernel(-1.0, 0.3)
        with pytest.raises(ConfigError):
            SquaredExponentialKernel(1.0, 0.0)


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


class TestKlDecompose:
    def test_constant_kernel_rank_one(self):
        class ConstKernel:
            def __call__(self, x, y):
                return 0.7 * np.ones(np.broadcast(np.asarray(x), np.asarray(y)).shape)

        field = kl_decompose(ConstKernel(), np.linspace(0.0, 1.0, 33), 5)
        assert field.eigenvalues[0] == pytest.approx(0.7, rel=1e-10)
        assert np.all(field.eigenvalues[1:] < 1e-10)

    def test_eigenvalues_descending_nonnegative(self):
        field = kl_decompose(ExponentialKernel(4.0, 0.15), np.linspace(0.0, 1.0, 128), 50)
        lam = field.eigenvalues
        assert np.all(lam >= 0.0)
        assert np.all(np.diff(lam) <= 1e-12)

    def test_exponential_trace_capture(self):
        kernel = ExponentialKernel(4.0, 0.15)
        grid = np.linspace(0.0, 1.0, 128)
        field = kl_decompose(kernel, grid, 50)
        trace = 4.0 * trapezoid_weights(grid).sum()
        assert field.eigenvalues.sum() / trace >= 0.95

    def test_squared_exponential_decays_faster(self):
        grid = np.linspace(0.0, 1.0, 128)
        se = kl_decompose(SquaredExponentialKernel(0.33, 0.33), grid, 12)
        ex = kl_decompose(ExponentialKernel(0.33, 0.33), grid, 12)
        ratio_se = se.eigenvalues[9] / se.eigenvalues[0]
        ratio_ex = ex.eigenvalues[9] / ex.eigenvalues[0]
        assert ratio_se < ratio_ex

    def test_eigenvectors_orthonormal_under_quadrature(self):
        grid = np.linspace(0.0, 1.0, 65)
        field = kl_decompose(SquaredExponentialKernel(1.0, 0.2), grid, 8)
        w = trapezoid_weights(grid)
        gram = field.eigenvectors.T @ (w[:, None] * field.eigenvectors)
        assert np.allclose(gram, np.eye(8), atol=1e-8)

    def test_kernel_matrix_reconstruction(self):
        """Full-rank Nystrom decomposition reproduces the kernel matrix."""
        grid = np.linspace(0.0, 1.0, 24)
        field = kl_decompose(SquaredExponentialKernel(0.5, 0.3), grid, 24)
        recon = (field.eigenvectors * field.eigenvalues) @ field.eigenvectors.T
        k = field.kernel(grid[:, None], grid[None, :])
        assert np.allclose(recon, k, atol=1e-8)

    def test_sign_convention_deterministic(self):
        grid = np.linspace(0.0, 1.0, 40)
        a = kl_decompose(ExponentialKernel(1.0, 0.3), grid, 6)
        b = kl_decompose(ExponentialKernel(1.0, 0.3), grid, 6)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for i in range(6):
            col = a.eigenvectors[:, i]
            first = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
            assert first > 0

    def test_validation(self):
        kernel = ExponentialKernel(1.0, 0.3)
        with pytest.raises(DimensionError):
            kl_decompose(kernel, np.linspace(0, 1, 8), 9)
        with pytest.raises(DimensionError):
            kl_decompose(kernel, np.array([0.5]), 1)


class TestKlModesAt:
    def test_matches_grid_values(self):
        grid = np.linspace(0.0, 1.0, 48)
        field = kl_decompose(SquaredExponentialKernel(1.0, 0.2), grid, 6)
        at_grid = kl_modes_at(field, grid)
        assert np.allclose(at_grid, field.eigenvectors, atol=1e-8)

    def test_extension_is_smooth_between_nodes(self):
        grid = np.linspace(0.0, 1.0, 48)
        field = kl_decompose(SquaredExponentialKernel(1.0, 0.2), grid, 4)
        mid = (grid[:-1] + grid[1:]) / 2.0
        vals = kl_modes_at(field, mid)
        neighbor_mean = (field.eigenvectors[:-1] + field.eigenvectors[1:]) / 2.0
        # midpoint values sit within linear-interpolation error of the nodes
        assert np.allclose(vals, neighbor_mean, atol=2e-2)


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
    def test_constant_coefficient_exact_solution(self):
        h = Diffusion1D(grids=(15, 31), constant_coefficient=True, n_modes=2, kl_grid_n=33)
        xi = np.zeros((1, 2))
        out = h.evaluate(1, xi)
        m = 31
        nodes = np.arange(1, m + 1) / (m + 1)
        exact = nodes * (1.0 - nodes) / 2.0
        assert np.allclose(out.q[:, 0], exact, atol=1e-13)

    def test_constant_coefficient_flux(self):
        h = Diffusion1D(
            grids=(7, 15),
            constant_coefficient=True,
            qoi="flux_at_left",
            n_modes=2,
            kl_grid_n=33,
        )
        out = h.evaluate(0, np.zeros((1, 2)))
        assert out.qoi[0] == pytest.approx(-0.5, abs=1e-13)
        mids = (np.arange(8) + 0.5) / 8.0
        assert np.allclose(out.q[:, 0], mids - 0.5, atol=1e-13)

    def test_integral_qoi_second_order_convergence(self):
        h = Diffusion1D(
            grids=(7, 15, 31, 63), constant_coefficient=True, n_modes=2, kl_grid_n=33
        )
        errors = [abs(h.evaluate(k, np.zeros((1, 2))).qoi[0] - 1.0 / 12.0) for k in range(4)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_solver_satisfies_assembled_system(self):
        """Solution of each sampled system has a tiny residual against the
        directly assembled tridiagonal matrix."""
        h = Diffusion1D(grids=(9, 19), n_modes=4, kl_grid_n=65)
        xi = draw_inputs(3, PURPOSE_PILOT, 0, 0, 5, h.input_dim)
        out = h.evaluate(1, xi)
        m = 19
        step = 1.0 / (m + 1)
        a = h._coefficient(1, xi)
        for j in range(5):
            mat = (
                np.diag(a[j, :-1] + a[j, 1:])
                - np.diag(a[j, 1:-1], k=1)
                - np.diag(a[j, 1:-1], k=-1)
            )
            resid = mat @ out.q[:, j] - step * step
            assert np.linalg.norm(resid) < 1e-12

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
                u = _thomas_reference(a[j].tolist(), step)
                if qoi == "integral_of_u":
                    q = u
                    # summed in node order, as the QoI sums down the rows of q
                    qoi_j = step * functools.reduce(operator.add, q)
                else:
                    upad = [0.0] + u + [0.0]
                    q = [-a[j, k] * (upad[k + 1] - upad[k]) / step for k in range(len(u) + 1)]
                    qoi_j = 1.5 * q[0] - 0.5 * q[1]
                assert out.q[:, j].tobytes() == np.array(q).tobytes()
                assert out.qoi[j] == qoi_j

    @pytest.mark.parametrize("level", [0, 1])
    def test_non_finite_solve_names_input_row(self, level):
        h = Diffusion1D(grids=(9, 19), n_modes=4, kl_grid_n=65)
        xi = np.zeros((5, 4))
        xi[2, 0] = 1e4
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
            h.evaluate(level, xi)
        assert f"at level {level} for input row 2: xi=[10000." in str(err.value)

    @pytest.mark.parametrize("qoi", ["integral_of_u", "flux_at_left"])
    def test_column_blocks_do_not_change_bits(self, qoi, monkeypatch):
        h = Diffusion1D(grids=(2, 5, 11), n_modes=4, kl_grid_n=65, qoi=qoi)
        for n in (1, 2, 3, 6, 11, 16):
            xi = draw_inputs(5, PURPOSE_PILOT, 0, 0, n, h.input_dim)
            for level in range(h.n_levels):
                ref_q, ref_qoi = _whole_batch_solve(h, level, xi)
                # blocks of 5 columns filled from slabs of 2 rows: 11 samples
                # give blocks of 5 and 6 columns, and the block of 5 slabs of
                # 2 and 3 rows, so both splits fold a one-row remainder
                width = h.dofs(level) + 1
                monkeypatch.setattr(models_module, "_BLOCK_DOUBLES", 5 * width)
                monkeypatch.setattr(models_module, "_SLAB_DOUBLES", 2 * width)
                out = h.evaluate(level, xi)
                assert out.q.flags.c_contiguous
                assert out.q.tobytes() == ref_q.tobytes(), (n, level)
                assert out.qoi.tobytes() == ref_qoi.tobytes(), (n, level)

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
        # one block's coefficient, diag, off and elimination factors are live
        # at once, and flux_at_left adds its padded solution; a block's
        # worth of slack covers the small temporaries
        blocks = 5 if qoi == "integral_of_u" else 6
        assert peak - out.q.nbytes - out.qoi.nbytes < blocks * models_module._BLOCK_DOUBLES * 8

    def test_non_finite_solve_names_row_of_later_block(self, monkeypatch):
        h = Diffusion1D(grids=(9, 19), n_modes=4, kl_grid_n=65)
        monkeypatch.setattr(models_module, "_BLOCK_DOUBLES", 2 * 10)
        xi = np.zeros((5, 4))
        xi[3, 0] = 1e4
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
            h.evaluate(0, xi)
        assert "at level 0 for input row 3: xi=[10000." in str(err.value)

    def test_coefficient_positive(self):
        h = Diffusion1D(grids=(9, 19), n_modes=4, sigma2=1.5, kl_grid_n=65)
        xi = draw_inputs(4, PURPOSE_PILOT, 0, 0, 50, h.input_dim)
        a = h._coefficient(1, xi)
        assert np.all(a > 0.1)

    def test_coupled_at_zero_xi_is_deterministic_difference(self):
        h = Diffusion1D(grids=(7, 15), n_modes=3, kl_grid_n=65)
        xi = np.zeros((1, 3))
        fine, coarse = h.evaluate(1, xi), h.evaluate(0, xi)
        y = fine.qoi[0] - coarse.qoi[0]
        alt = h.evaluate(1, xi).qoi[0] - h.evaluate(0, xi).qoi[0]
        assert y == alt
        assert y != 0.0

    def test_deterministic_model_zero_correction_variance(self):
        h = Diffusion1D(grids=(7, 15), constant_coefficient=True, n_modes=2, kl_grid_n=33)
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

    def test_evaluate_validation(self, diffusion_small):
        with pytest.raises(DimensionError):
            diffusion_small.evaluate(5, np.zeros((1, 4)))
        with pytest.raises(DimensionError):
            diffusion_small.evaluate(0, np.zeros((1, 3)))


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
