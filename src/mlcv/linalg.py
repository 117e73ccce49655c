"""Interpolative decomposition on top of column-pivoted QR.

The ID of a snapshot matrix U (m x N) selects r columns and a coefficient
matrix C with U ~= U[:, selected] @ C, where C restricted to the selected
columns is exactly the identity.  Pivoting is classic greedy largest-column
selection (LAPACK geqp3); the stronger rank-revealing variants are not
needed at the ranks used here, and the residual is reported exactly so
callers can check the quality themselves.  Column selection needs only the
pivoted R factor; C and the residual norm (a full SVD) are computed on first
access, so only callers that read them pay for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DataError, DimensionError

# Above this condition number of R11 the triangular solve for the
# coefficient matrix is replaced by a truncated-SVD minimum-norm solve.
_COND_LIMIT = 1e10

# Relative singular value cutoff for the truncated solves.
_RCOND = 1e-12


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


def pivoted_qr(u, *, rank: int | None = None, tol: float | None = None) -> PivotedQR:
    """Column-pivoted QR truncated at a fixed rank or at a column-norm tolerance.

    Under tolerance termination the factorization stops at the first step
    where the largest remaining (deflated) column norm drops to ``tol`` or
    below; that norm is the standard cheap proxy for the trailing residual.
    A tolerance larger than every column norm yields rank 0 with empty
    factors.
    """
    a = _check_matrix(u)
    m, n = a.shape
    rank, tol = _resolve_termination(rank, tol, m, n)

    r_full, piv = scipy.linalg.qr(a, mode="r", pivoting=True)
    diag = np.abs(np.diag(r_full))

    if rank is not None:
        r = rank
    else:
        below = np.nonzero(diag <= tol)[0]
        r = int(below[0]) if below.size else diag.size

    return PivotedQR(
        r11=np.triu(r_full[:r, :r]),
        r12=np.ascontiguousarray(r_full[:r, r:]),
        permutation=np.asarray(piv, dtype=np.int64),
        rank=r,
    )


def solve_T(r11: np.ndarray, r12: np.ndarray) -> np.ndarray:
    """Solve R11 T = R12 for the interpolation coefficients.

    Uses back-substitution while R11 is comfortably conditioned and falls
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
        return scipy.linalg.solve_triangular(r11, r12, lower=False)
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
        """Spectral norm of U - U[:, selected] @ C, computed directly."""
        residual = self._u - self._u[:, self.selected_indices] @ self.coefficients
        return float(np.linalg.norm(residual, 2))


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
    fits in the control-variate loop need.
    """

    def __init__(self, a):
        self._a = _check_matrix(a, "basis matrix")
        self._pinv = np.linalg.pinv(self._a, rcond=_RCOND)

    def solve(self, b) -> np.ndarray:
        """Coefficients c minimizing ||a c - b|| for each column of the
        matrix ``b``, one independent right-hand side per column."""
        bv = np.asarray(b, dtype=np.float64)
        if bv.ndim != 2 or bv.shape[0] != self._a.shape[0]:
            raise DimensionError(
                f"right-hand side must be a matrix of {self._a.shape[0]} rows, "
                f"got shape {bv.shape}"
            )
        if not np.all(np.isfinite(bv)):
            raise DataError("right-hand side contains non-finite entries")
        return self._pinv @ bv
