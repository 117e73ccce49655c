"""Interpolative decomposition on top of column-pivoted QR.

The ID of a snapshot matrix U (m x N) selects r columns and a coefficient
matrix C with U ~= U[:, selected] @ C, where C restricted to the selected
columns is exactly the identity.  Pivoting is classic greedy largest-column
selection (the rule of LAPACK geqp3), run for only the r steps the ID keeps,
so selection costs O(r m N) rather than a full QR's O(m N min(m, N)); the
stronger rank-revealing variants are not needed at the ranks used here, and
the residual is reported exactly so callers can check the quality
themselves.  Column selection needs only the pivoted R factor; C and the
residual norm (the largest eigenvalue of the residual's smaller Gram
matrix) are computed on first access, so only callers that read them pay
for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DimensionError

# Above this condition number of R11 the direct solve for the
# coefficient matrix is replaced by a truncated-SVD minimum-norm solve.
_COND_LIMIT = 1e10

# Relative singular value cutoff for the truncated solves.
_RCOND = 1e-12

# A downdated squared column norm below this fraction of its last exact value
# has lost about half its digits to cancellation, so it is recomputed from the
# residual column; geqp3 uses the same threshold, sqrt(eps).
_STALE = 2.0**-26

# Columns per block when residual column norms are recomputed, so the
# temporary is a few hundred columns, never the whole matrix.
_NORM_BLOCK = 256


def _check_matrix(u, name: str = "matrix") -> np.ndarray:
    a = np.asarray(u, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionError(f"{name} must be a non-empty 2-D array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DataError(f"{name} contains non-finite entries")
    return a


def _resolve_termination(rank, tol, m: int, n: int) -> tuple[int | None, float | None]:
    if (rank is None) == (tol is None):
        raise DimensionError("exactly one of rank= or tol= must be given")
    if rank is not None:
        rank = int(rank)
        if rank < 1 or rank > min(m, n):
            raise DimensionError(f"rank must lie in [1, {min(m, n)}], got {rank}")
        return rank, None
    tol = float(tol)
    if not np.isfinite(tol) or tol < 0.0:
        raise DataError(f"tol must be finite and non-negative, got {tol}")
    return None, tol


@dataclass(frozen=True)
class PivotedQR:
    """Truncated column-pivoted QR: U[:, permutation] ~= Q @ [r11 | r12], Q not formed."""

    r11: np.ndarray
    r12: np.ndarray
    permutation: np.ndarray
    rank: int


def _residual_norms2(
    a: np.ndarray, qt: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Squared norms of the residual columns a[:, cols] - qt.T @ rows[:, cols],
    formed one block of columns at a time."""
    out = np.empty(cols.size)
    for lo in range(0, cols.size, _NORM_BLOCK):
        block = cols[lo : lo + _NORM_BLOCK]
        w = np.take(a, block, axis=1)  # C-ordered, unlike a[:, block]
        w -= qt.T @ rows[:, block]
        out[lo : lo + block.size] = np.einsum("ij,ij->j", w, w)
    return out


def pivoted_qr(u, *, rank: int | None = None, tol: float | None = None) -> PivotedQR:
    """Column-pivoted QR truncated at a fixed rank or at a column-norm tolerance.

    Each step pivots on the column of largest residual norm, orthogonalizes
    it against the pivots so far by classical Gram-Schmidt applied twice,
    and forms its row of R over every column.  The residual column norms are
    downdated by that row and recomputed where cancellation has made them
    stale, as in geqp3, so the pivots are geqp3's (unless two residual norms
    tie to rounding, as copies of one column do), but only the steps kept
    are run.  Under tolerance termination the factorization stops at the
    first pivot whose residual norm (the diagonal of R) is ``tol`` or below;
    that norm is the standard cheap proxy for the trailing residual.  A
    tolerance larger than every column norm yields rank 0 with empty
    factors.  A zero pivot, which only a fixed rank above the numerical rank
    reaches, gets a zero row of R rather than a division by zero.  The
    diagonal of ``r11`` is non-negative, and the columns after the pivots
    keep their original order.
    """
    a = _check_matrix(u)
    m, n = a.shape
    rank, tol = _resolve_termination(rank, tol, m, n)
    steps = rank if rank is not None else min(m, n)

    # Orthonormal pivot directions and the rows of R over the original column
    # order, one row per pivot; a row's pages are touched only once its pivot
    # writes it.
    qt, rows = np.empty((steps, m)), np.empty((steps, n))
    piv = np.empty(steps, dtype=np.int64)
    norms2 = np.einsum("ij,ij->j", a, a)
    exact2 = norms2.copy()  # each norm's value when it was last formed exactly
    r = 0
    while r < steps:
        p = int(np.argmax(norms2))
        v = a[:, p].copy()
        for _ in range(2):
            v -= qt[:r].T @ (qt[:r] @ v)
        diag = float(np.linalg.norm(v))
        if tol is not None and diag <= tol:
            break
        qt[r] = v / diag if diag > 0.0 else 0.0
        np.matmul(qt[r], a, out=rows[r])
        rows[r, p] = diag
        piv[r] = p
        r += 1
        if r == steps:
            break
        norms2 -= rows[r - 1] ** 2
        # A pivot never pivots again and is never stale (-inf < -inf is false).
        norms2[p] = exact2[p] = -np.inf
        stale = np.flatnonzero(norms2 < _STALE * exact2)
        if stale.size:
            norms2[stale] = exact2[stale] = _residual_norms2(a, qt[:r], rows[:r], stale)

    piv = piv[:r]
    rest = np.ones(n, dtype=bool)
    rest[piv] = False
    tail = np.flatnonzero(rest)
    return PivotedQR(
        r11=np.triu(rows[:r, piv]),
        r12=rows[:r, tail],
        permutation=np.concatenate([piv, tail]),
        rank=r,
    )


def solve_T(r11: np.ndarray, r12: np.ndarray) -> np.ndarray:
    """Solve R11 T = R12 for the interpolation coefficients.

    Uses a direct solve while R11 is comfortably conditioned and falls
    back to the minimum-Frobenius-norm solution via a truncated SVD when it
    is not, so near-duplicate selected columns degrade gracefully instead of
    blowing up the coefficients.
    """
    r11 = np.asarray(r11, dtype=np.float64)
    r12 = np.asarray(r12, dtype=np.float64)
    if r11.ndim != 2 or r11.shape[0] != r11.shape[1]:
        raise DimensionError(f"R11 must be square, got shape {r11.shape}")
    if r12.ndim != 2 or r12.shape[0] != r11.shape[0]:
        raise DimensionError(f"R12 rows must match R11, got {r12.shape} vs {r11.shape}")
    r = r11.shape[0]
    if r == 0:
        return np.zeros((0, r12.shape[1]))
    if r12.shape[1] == 0:
        return np.zeros((r, 0))
    with np.errstate(all="ignore"):
        cond = np.linalg.cond(r11)
    if np.isfinite(cond) and cond < _COND_LIMIT:
        return np.linalg.solve(r11, r12)
    return np.linalg.pinv(r11, rcond=_RCOND) @ r12


class IDFactorization:
    """Column interpolative decomposition U ~= U[:, selected_indices] @ coefficients."""

    def __init__(self, u: np.ndarray, pqr: PivotedQR):
        self._u, self._qr = u, pqr
        self.rank = pqr.rank
        self.selected_indices = pqr.permutation[: pqr.rank].copy()

    @cached_property
    def coefficients(self) -> np.ndarray:
        r, perm = self.rank, self._qr.permutation
        coeff = np.empty((r, perm.size))
        coeff[:, perm[:r]] = np.eye(r)
        coeff[:, perm[r:]] = solve_T(self._qr.r11, self._qr.r12)
        return coeff

    @cached_property
    def residual_norm(self) -> float:
        """Spectral norm of U - U[:, selected] @ C: the square root of the
        largest eigenvalue of the residual's smaller Gram matrix (m x m or
        N x N), not an SVD of the m x N residual.  Values at rounding level,
        as for an exactly low-rank U, are noise."""
        residual = self._u[:, self.selected_indices] @ self.coefficients
        np.subtract(self._u, residual, out=residual)
        m, n = residual.shape
        gram = residual @ residual.T if m <= n else residual.T @ residual
        return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def interpolative_decomposition(
    u, *, rank: int | None = None, tol: float | None = None
) -> IDFactorization:
    """Column ID with the coefficient block on the selected columns pinned to I.

    Runs only the pivoted QR; ``coefficients`` and ``residual_norm`` are
    computed once each, on first access, from ``u``, which must not change.
    """
    a = _check_matrix(u)
    return IDFactorization(a, pivoted_qr(a, rank=rank, tol=tol))


class LeastSquaresOperator:
    """Reusable minimum-norm least-squares solver against a fixed matrix.

    The pseudoinverse is formed once at construction; every ``solve`` call is
    then a single matrix product, which is what the per-sample coefficient
    fits in the control-variate loop need.  ``a`` is the matrix itself.
    """

    def __init__(self, a):
        self.a = _check_matrix(a, "basis matrix")
        self._pinv = np.linalg.pinv(self.a, rcond=_RCOND)

    def solve(self, b) -> np.ndarray:
        """Coefficients c minimizing ||a c - b|| for each column of the
        matrix ``b``, one independent right-hand side per column."""
        bv = np.asarray(b, dtype=np.float64)
        if bv.ndim != 2 or bv.shape[0] != self.a.shape[0]:
            raise DimensionError(
                f"right-hand side must be a matrix of {self.a.shape[0]} rows, "
                f"got shape {bv.shape}"
            )
        if not np.all(np.isfinite(bv)):
            raise DataError("right-hand side contains non-finite entries")
        return self._pinv @ bv
