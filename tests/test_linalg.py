"""Tests for the dense kernels: pivoted QR, interpolative decomposition, least squares."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlcv import (
    DataError,
    DimensionError,
    LeastSquaresOperator,
    interpolative_decomposition,
    pivoted_qr,
)
from mlcv import linalg
from mlcv.linalg import solve_T


def matrix_with_spectrum(m, n, sigmas, rng):
    """Random matrix with prescribed leading singular values."""
    k = len(sigmas)
    left = np.linalg.qr(rng.normal(size=(m, k)))[0]
    right = np.linalg.qr(rng.normal(size=(n, k)))[0]
    return (left * np.asarray(sigmas)) @ right.T


def id_bound(rank, n_cols, sigma_next):
    """Spectral-norm bound for the greedy column ID with the 1.5x slack."""
    return 1.5 * np.sqrt(rank * (n_cols - rank) + 1.0) * sigma_next


def geqp3_rank(r_ref, *, rank=None, tol=None):
    """The rank a truncation of geqp3's full R keeps: ``rank``, or the first
    step whose diagonal entry is ``tol`` or below in magnitude."""
    if rank is not None:
        return rank
    below = np.flatnonzero(np.abs(np.diag(r_ref)) <= tol)
    return int(below[0]) if below.size else min(r_ref.shape)


def gram_gap(a, f):
    """A[:, p].T @ A[:, p] - R.T @ R for the truncated factors of ``f``.

    With A[:, p] = Q R, the gap is R22.T @ R22 of the trailing block, so
    its spectral norm is the squared truncation residual; Q is not needed.
    """
    ap = a[:, f.permutation]
    r = np.hstack([f.r11, f.r12])
    return ap.T @ ap - r.T @ r


class TestPivotedQR:
    def test_identity_exact(self):
        f = pivoted_qr(np.eye(3), rank=3)
        assert f.rank == 3
        assert np.allclose(gram_gap(np.eye(3), f), 0.0, atol=1e-14)

    def test_reconstruction_full_rank(self, rng):
        a = rng.normal(size=(12, 9))
        f = pivoted_qr(a, rank=9)
        assert np.linalg.norm(gram_gap(a, f)) <= 1e-10 * np.linalg.norm(a) ** 2

    def test_r11_triangular(self, rng):
        a = rng.normal(size=(20, 15))
        f = pivoted_qr(a, rank=7)
        assert f.r11.shape == (7, 7) and f.r12.shape == (7, 8)
        assert np.allclose(f.r11, np.triu(f.r11))
        assert sorted(f.permutation) == list(range(15))

    def test_truncation_residual_bound(self, rng):
        sigmas = [2.0 ** (-k) for k in range(1, 26)]
        a = matrix_with_spectrum(50, 200, sigmas, rng)
        f = pivoted_qr(a, rank=10)
        residual = np.sqrt(np.linalg.norm(gram_gap(a, f), 2))
        sigma11 = np.linalg.svd(a, compute_uv=False)[10]
        assert residual <= np.sqrt(10 * 190 + 1) * sigma11

    def test_rank_one_tolerance_termination(self, rng):
        a = np.outer(rng.normal(size=30), rng.normal(size=50))
        f = pivoted_qr(a, tol=1e-8)
        assert f.rank == 1
        sigma = np.linalg.svd(a, compute_uv=False)
        assert sigma[1] <= 1e-10 * sigma[0]

    def test_graded_spectrum_pivots_follow_geqp3(self):
        """The residual column norms fall by eleven decades, so downdating
        alone loses them to cancellation; recomputing the stale ones keeps
        the pivots geqp3's (at every step the two largest true residual
        norms differ by 1.8% or more)."""
        a = matrix_with_spectrum(30, 80, 10.0 ** -np.arange(12.0), np.random.default_rng(3))
        _, _, piv_ref = scipy.linalg.qr(a, mode="economic", pivoting=True)
        f = pivoted_qr(a, rank=11)
        assert np.array_equal(f.permutation[:11], piv_ref[:11])

    def test_tolerance_rank_beyond_first_allocation(self):
        """Under tolerance termination the factors start with room for
        ``_GROW_ROWS`` pivots and grow when the rank passes it."""
        a = np.random.default_rng(5).normal(size=(50, 70))
        f = pivoted_qr(a, tol=1e-8)
        _, _, piv_ref = scipy.linalg.qr(a, mode="economic", pivoting=True)
        assert f.rank == 50 > linalg._GROW_ROWS
        assert np.array_equal(f.permutation[:50], piv_ref[:50])
        assert np.linalg.norm(gram_gap(a, f)) <= 1e-12 * np.linalg.norm(a) ** 2

    def test_tolerance_above_all_columns_gives_rank_zero(self, rng):
        a = rng.normal(size=(4, 6))
        # a first pivot whose norm equals tol already stops the factorization
        largest = max(np.linalg.norm(a[:, j]) for j in range(6))
        for tol in (1e9, largest):
            f = pivoted_qr(a, tol=tol)
            assert f.rank == 0
            assert f.r11.shape == (0, 0)
            assert f.r12.shape == (0, 6)

    @pytest.mark.parametrize(
        "a",
        [
            np.outer(np.arange(1.0, 9.0), np.linspace(-1.0, 2.0, 11)),
            np.zeros((5, 7)),
        ],
        ids=["outer_product_rank3", "zero_rank1"],
    )
    def test_rank_above_numerical_rank_stays_finite(self, a):
        """Pivots past the numerical rank orthogonalize rounding noise, and
        a zero pivot gets a zero row of R: nothing divides by zero."""
        rank = 3 if a.any() else 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = pivoted_qr(a, rank=rank)
            idf = interpolative_decomposition(a, rank=rank)
            coeff, residual = idf.coefficients, idf.residual_norm
        assert f.rank == rank and np.array_equal(idf.selected_indices, f.permutation[:rank])
        assert np.all(np.isfinite(f.r11)) and np.all(np.isfinite(f.r12))
        assert np.all(np.diag(f.r11) >= 0.0)
        assert np.all(np.isfinite(coeff))
        assert residual <= 1e-13 * max(np.linalg.norm(a, 2), 1.0)

    def test_validation(self, rng):
        a = rng.normal(size=(3, 4))
        with pytest.raises(DimensionError):
            pivoted_qr(a, rank=4)
        with pytest.raises(DimensionError):
            pivoted_qr(a)
        with pytest.raises(DimensionError):
            pivoted_qr(a, rank=2, tol=1e-3)
        with pytest.raises(DataError):
            pivoted_qr(np.array([[1.0, np.inf], [0.0, 1.0]]), rank=1)
        with pytest.raises(DataError):
            pivoted_qr(a, tol=-1.0)


class TestSolveT:
    def test_identity_passthrough(self, rng):
        r12 = rng.normal(size=(4, 6))
        assert np.array_equal(solve_T(np.eye(4), r12), r12)

    def test_truncated_solve_drops_tiny_direction(self):
        r11 = np.diag([1.0, 1e-14])
        r12 = np.array([[1.0], [1.0]])
        t = solve_T(r11, r12)
        assert t == pytest.approx(np.array([[1.0], [0.0]]), abs=1e-10)

    def test_well_conditioned_residual(self, rng):
        r11 = np.triu(rng.normal(size=(5, 5))) + 5.0 * np.eye(5)
        r12 = rng.normal(size=(5, 3))
        t = solve_T(r11, r12)
        assert np.linalg.norm(r11 @ t - r12) <= 1e-10 * np.linalg.norm(r12)

    def test_shape_validation(self, rng):
        with pytest.raises(DimensionError):
            solve_T(rng.normal(size=(3, 2)), rng.normal(size=(3, 1)))
        with pytest.raises(DimensionError):
            solve_T(np.eye(3), rng.normal(size=(2, 1)))


class TestInterpolativeDecomposition:
    def test_full_rank_square_exact(self, rng):
        a = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        f = interpolative_decomposition(a, rank=4)
        recon = a[:, f.selected_indices] @ f.coefficients
        assert np.linalg.norm(a - recon) <= 1e-12 * np.linalg.norm(a)
        assert f.residual_norm <= 1e-12 * np.linalg.norm(a, 2)

    def test_identity_subblock_exact(self, rng):
        a = matrix_with_spectrum(30, 100, [k ** (-3.0) for k in range(1, 21)], rng)
        f = interpolative_decomposition(a, rank=8)
        sub = f.coefficients[:, f.selected_indices]
        assert np.array_equal(sub, np.eye(8))

    def test_duplicated_columns_rank_two(self, rng):
        u1 = rng.normal(size=5)
        v = rng.normal(size=5)
        a = np.column_stack([u1, u1, v])
        f = interpolative_decomposition(a, tol=1e-10)
        assert f.rank == 2
        assert 2 in f.selected_indices
        assert f.selected_indices[0] in (0, 1) or f.selected_indices[1] in (0, 1)

    def test_power_law_spectrum_bound(self, rng):
        sigmas = [k ** (-3.0) for k in range(1, 21)]
        a = matrix_with_spectrum(30, 100, sigmas, rng)
        f = interpolative_decomposition(a, rank=8)
        sigma9 = np.linalg.svd(a, compute_uv=False)[8]
        assert f.residual_norm <= id_bound(8, 100, sigma9)

    def test_residual_norm_matches_direct_computation(self, rng):
        a = matrix_with_spectrum(25, 40, [2.0 ** (-k) for k in range(12)], rng)
        f = interpolative_decomposition(a, rank=6)
        direct = np.linalg.norm(a - a[:, f.selected_indices] @ f.coefficients, 2)
        assert f.residual_norm == pytest.approx(direct, rel=1e-10)

    def test_tolerance_termination_residual(self, rng):
        a = matrix_with_spectrum(40, 60, [10.0 ** (-k) for k in range(10)], rng)
        f = interpolative_decomposition(a, tol=1e-5)
        assert 0 < f.rank < 10
        # The deflated-column-norm trigger bounds the spectral residual up
        # to the sqrt(n-r) proxy factor.
        assert f.residual_norm <= 1e-5 * np.sqrt(60 - f.rank) * 1.5

    def test_rank_zero_factorization(self, rng):
        a = rng.normal(size=(5, 7))
        f = interpolative_decomposition(a, tol=1e12)
        assert f.rank == 0
        assert f.selected_indices.size == 0
        assert f.residual_norm == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)

    def test_coefficients_finite(self, rng):
        a = matrix_with_spectrum(20, 50, [k ** (-2.0) for k in range(1, 16)], rng)
        f = interpolative_decomposition(a, rank=10)
        assert np.all(np.isfinite(f.coefficients))


# tol 1e9 lies above every column norm: rank 0
SNAPSHOT_TERMINATIONS = pytest.mark.parametrize(
    "termination",
    [{"rank": 1}, {"rank": 3}, {"tol": 1e-6}, {"tol": 1e-2}, {"tol": 1e9}],
    ids=["rank1", "rank3", "tol1e-6", "tol1e-2", "tol1e9"],
)


class TestPinnedBytes:
    """Deferring work must not change a bit of what the factorizations return."""

    @SNAPSHOT_TERMINATIONS
    def test_pivoted_qr_matches_economic_qr(self, synthetic_pilot, termination):
        """The pivots and the rank are geqp3's exactly; R is geqp3's up to
        the sign of each row, column by column, to rounding."""
        for ell, lv in enumerate(synthetic_pilot.levels):
            f = pivoted_qr(lv.q, **termination)
            _, r_ref, piv_ref = scipy.linalg.qr(lv.q, mode="economic", pivoting=True)
            assert f.rank == geqp3_rank(r_ref, **termination), ell
            k = f.rank
            assert np.array_equal(f.permutation[:k], piv_ref[:k]), ell
            assert sorted(f.permutation) == list(range(lv.q.shape[1])), ell
            signs = np.where(np.diag(r_ref)[:k] < 0.0, -1.0, 1.0)
            # column j of f's factors is geqp3's column position[f.permutation[j]]
            position = np.argsort(piv_ref)
            ref = signs[:, None] * r_ref[:k, position[f.permutation]]
            atol = 1e-12 * np.linalg.norm(lv.q, 2)
            assert np.allclose(f.r11, ref[:, :k], rtol=0.0, atol=atol), ell
            assert np.allclose(f.r12, ref[:, k:], rtol=0.0, atol=atol), ell

    @SNAPSHOT_TERMINATIONS
    def test_id_matches_eager_formulas(self, synthetic_pilot, eager_id, termination):
        ranks = set()
        for ell, lv in enumerate(synthetic_pilot.levels):
            f = interpolative_decomposition(lv.q, **termination)
            coeff, residual = eager_id(lv.q, **termination)
            ranks.add(f.rank)
            assert np.array_equal(f.coefficients, coeff), ell
            assert f.residual_norm == residual, ell
        if "rank" in termination:
            assert ranks == {termination["rank"]}
        elif termination["tol"] > 1e3:
            assert ranks == {0}
        else:
            assert 0 not in ranks

    def test_nothing_deferred_is_computed_until_read(self, synthetic_pilot, monkeypatch):
        from mlcv import linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("deferred ID work ran")

        monkeypatch.setattr(linalg, "solve_T", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        a = synthetic_pilot.levels[1].q
        f = interpolative_decomposition(a, rank=3)
        assert f.rank == 3 and f.selected_indices.shape == (3,)
        monkeypatch.undo()
        assert not {"coefficients", "residual_norm"} & vars(f).keys()
        assert f.coefficients is f.coefficients
        assert f.residual_norm > 0.0
        assert {"coefficients", "residual_norm"} <= vars(f).keys()


class TestLeastSquares:
    def test_orthonormal_basis_projects(self, rng):
        q = rng.normal(size=(6, 1))
        c = LeastSquaresOperator(np.eye(6)[:, :3]).solve(q)
        assert np.allclose(c, q[:3], atol=1e-14)

    def test_exact_representability(self, rng):
        a = rng.normal(size=(20, 5))
        c_true = rng.normal(size=(5, 1))
        q = a @ c_true
        c = LeastSquaresOperator(a).solve(q)
        assert np.linalg.norm(a @ c - q) <= 1e-10 * np.linalg.norm(q)

    def test_matches_normal_equations_oracle(self, rng):
        a = rng.normal(size=(20, 5))
        q = rng.normal(size=(20, 1))
        oracle = np.linalg.solve(a.T @ a, a.T @ q)
        assert LeastSquaresOperator(a).solve(q) == pytest.approx(oracle, rel=1e-8)

    def test_residual_orthogonal_to_span(self, rng):
        a = rng.normal(size=(30, 4))
        q = rng.normal(size=(30, 1))
        c = LeastSquaresOperator(a).solve(q)
        lhs = np.linalg.norm(a.T @ (a @ c - q))
        assert lhs <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(q)

    def test_operator_reuse_and_matrix_rhs(self, rng):
        a = rng.normal(size=(15, 4))
        op = LeastSquaresOperator(a)
        assert op.solve(np.zeros((15, 1))).shape == (4, 1)
        q1 = rng.normal(size=(15, 1))
        assert np.array_equal(op.solve(q1), op.solve(q1))
        batch = rng.normal(size=(15, 3))
        cols = op.solve(batch)
        for j in range(3):
            single = LeastSquaresOperator(a).solve(batch[:, [j]])
            assert cols[:, [j]] == pytest.approx(single, rel=1e-10)

    def test_rank_deficient_minimum_norm(self, rng):
        col = rng.normal(size=(10, 1))
        a = np.column_stack([col, col])
        q = 3.0 * col
        c = LeastSquaresOperator(a).solve(q)
        oracle = np.linalg.lstsq(a, q, rcond=None)[0]
        assert c == pytest.approx(oracle, abs=1e-10)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            LeastSquaresOperator(rng.normal(size=(5, 2))).solve(rng.normal(size=(4, 1)))


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(np.linalg.svd(np.eye(4), compute_uv=False), np.ones(4))

    def test_diagonal(self):
        d = np.diag([3.0, 2.0, 1.0])
        assert np.linalg.svd(d, compute_uv=False) == pytest.approx([3.0, 2.0, 1.0])

    def test_frobenius_identity(self, rng):
        a = rng.normal(size=(10, 10))
        s = np.linalg.svd(a, compute_uv=False)
        assert np.all(np.diff(s) <= 0)
        assert np.sqrt(np.sum(s**2)) == pytest.approx(np.linalg.norm(a), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=12),
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_full_rank_id_is_exact(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, n))
    r = min(m, n)
    f = interpolative_decomposition(a, rank=r)
    recon = a[:, f.selected_indices] @ f.coefficients
    scale = max(np.linalg.norm(a), 1.0)
    assert np.linalg.norm(a - recon) <= 1e-9 * scale
    assert np.array_equal(f.coefficients[:, f.selected_indices], np.eye(r))


@settings(max_examples=25, deadline=None)
@given(
    rank=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_lemma_bound_random_spectra(rank, seed):
    rng = np.random.default_rng(seed)
    sigmas = np.sort(rng.uniform(0.01, 10.0, size=12))[::-1]
    a = matrix_with_spectrum(15, 30, sigmas, rng)
    f = interpolative_decomposition(a, rank=rank)
    sigma_next = np.linalg.svd(a, compute_uv=False)[rank]
    assert f.residual_norm <= id_bound(rank, 30, sigma_next) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=40),
    n=st.integers(min_value=2, max_value=60),
    k=st.integers(min_value=1, max_value=12),
    duplicates=st.integers(min_value=0, max_value=4),
    by_rank=st.booleans(),
    step=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_selection_equals_geqp3(m, n, k, duplicates, by_rank, step, seed):
    """Up to the numerical rank, the truncated pivoting selects geqp3's
    columns and rank under either termination.  Where a column repeats, the
    tie between its copies may break either way, so the selected columns
    are compared as vectors."""
    rng = np.random.default_rng(seed)
    k = min(k, m, n)
    sigmas = np.sort(10.0 ** rng.uniform(-6.0, 1.0, size=k))[::-1]
    a = matrix_with_spectrum(m, n, sigmas, rng)
    for _ in range(duplicates):
        a[:, rng.integers(n)] = a[:, rng.integers(n)]
    _, r_ref, piv_ref = scipy.linalg.qr(a, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_ref))
    # the rank kept, at most the numerical rank (a repeated column can lower it)
    t = min(step, int(np.count_nonzero(diag > 1e-10 * diag[0])))
    if by_rank:
        termination = {"rank": max(t, 1)}
    else:
        # a tolerance halfway (in log scale) between two steps' pivot norms,
        # and above the rounding noise that pivots past the numerical rank see
        hi = diag[t - 1] if t else 4.0 * diag[0]
        lo = max(diag[t] if t < diag.size else 0.0, 1e-12 * diag[0])
        assume(hi > 1.01 * lo)
        termination = {"tol": float(np.sqrt(hi * lo))}
    f = interpolative_decomposition(a, **termination)
    assert f.rank == geqp3_rank(r_ref, **termination)
    assert np.array_equal(a[:, f.selected_indices], a[:, piv_ref[: f.rank]])
    if not duplicates:
        assert np.array_equal(f.selected_indices, piv_ref[: f.rank])
    assert np.all(np.isfinite(f.coefficients))
    residual = a - a[:, f.selected_indices] @ f.coefficients
    direct = np.linalg.svd(residual, compute_uv=False)[0]
    assert f.residual_norm == pytest.approx(direct, rel=1e-10, abs=0.0)
