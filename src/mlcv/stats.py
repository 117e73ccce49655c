"""Plain Monte Carlo moment estimators and variance-reduction bookkeeping.

Reductions run over fixed 1024-element chunks with compensated (Kahan)
accumulation of the chunk partials.  The chunk boundaries depend only on the
array, so a serial pass and a chunk-parallel pass that combines partials in
index order produce bitwise-identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, DimensionError

_CHUNK = 1024


def _as_vector(values, name: str) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError(f"{name} must be a 1-D sample vector, got shape {x.shape}")
    if x.size == 0:
        raise DataError(f"{name} must be non-empty")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{name} contains non-finite entries")
    return x


def _chunked_sum(x: np.ndarray) -> float:
    """Deterministic compensated sum over fixed-size chunks."""
    full = x.size - x.size % _CHUNK
    # One reduction over the full chunks' rows gives each chunk's partial,
    # equal bit for bit to its own np.sum; the tail chunk is summed alone.
    parts = np.add.reduce(x[:full].reshape(-1, _CHUNK), axis=1).tolist()
    if full < x.size:
        parts.append(float(np.sum(x[full:])))
    total = 0.0
    comp = 0.0
    for part in parts:
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


class RunningMoments:
    """Streaming mean and variance over batches of samples.

    Batches are reduced with the chunked compensated sum and merged with the
    standard parallel-moments update, so results depend only on the batch
    boundaries, which callers keep fixed.  This bounds memory for runs whose
    sample counts are too large to hold at once.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    @classmethod
    def of(cls, values) -> RunningMoments:
        """The moments of one batch: its mean, and its variance for two or
        more values."""
        moments = cls()
        moments.update(values)
        return moments

    def update(self, values) -> None:
        x = _as_vector(values, "values")
        n = x.size
        mean_b = _chunked_sum(x) / n
        m2_b = _chunked_sum((x - mean_b) ** 2)
        total = self.count + n
        delta = mean_b - self.mean
        self.mean += delta * (n / total)
        # no cross term on the first batch: delta * delta may overflow there
        cross = delta * delta * (self.count * n / total) if self.count else 0.0
        self._m2 += m2_b + cross
        self.count = total

    @property
    def variance(self) -> float:
        """Unbiased sample variance; 0.0 until two samples are seen."""
        if self.count < 2:
            return 0.0
        return max(self._m2, 0.0) / (self.count - 1)


def sample_covariance(y, z) -> float:
    """Unbiased sample covariance of two aligned sample vectors."""
    yv = _as_vector(y, "y")
    zv = _as_vector(z, "z")
    if yv.size != zv.size:
        raise DimensionError(f"length mismatch: {yv.size} vs {zv.size}")
    if yv.size < 2:
        raise DataError("sample_covariance needs at least two values")
    my = _chunked_sum(yv) / yv.size
    mz = _chunked_sum(zv) / zv.size
    return _chunked_sum((yv - my) * (zv - mz)) / (yv.size - 1)


def rho_squared(y, z) -> float:
    """Squared sample correlation of y and z, clamped to [0, 1].

    When either variance is zero the pair carries no usable correlation
    signal and the value is 0.0, instead of raising.
    """
    yv = _as_vector(y, "y")
    zv = _as_vector(z, "z")
    if yv.size != zv.size:
        raise DimensionError(f"length mismatch: {yv.size} vs {zv.size}")
    if yv.size < 2:
        raise DataError("rho_squared needs at least two values")
    vy = RunningMoments.of(yv).variance
    vz = RunningMoments.of(zv).variance
    if vy <= 0.0 or vz <= 0.0:
        return 0.0
    cov = sample_covariance(yv, zv)
    rho2 = (cov * cov) / (vy * vz)
    return min(max(rho2, 0.0), 1.0)


def mse_reduction_factor(rho2: float, ratio: float) -> float:
    """Factor by which one level's sampling MSE shrinks under the control
    variate: ``1 - rho2 / (1 + ratio)``.

    ``ratio`` is the planned count ratio (coupled samples over auxiliary
    mean samples).  ratio = 0 recovers the exact-mean limit 1 - rho2; large
    ratio drives the factor back to 1.
    """
    if not np.isfinite(rho2) or rho2 < 0.0 or rho2 > 1.0:
        raise DataError(f"rho2 must lie in [0, 1], got {rho2}")
    if not np.isfinite(ratio) or ratio < 0.0:
        raise DataError(f"ratio must be finite and non-negative, got {ratio}")
    return 1.0 - rho2 / (1.0 + ratio)
