"""Tests for sample-statistic kernels."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from mlcv import (
    PURPOSE_ORACLE,
    PURPOSE_PILOT,
    DataError,
    DimensionError,
    RunningMoments,
    draw_inputs,
    mc_mean,
    mse_reduction_factor,
    rho_squared,
    sample_covariance,
    sample_variance,
)


def _uniforms(seed, n, purpose=PURPOSE_PILOT):
    """n uniforms on (0, 1): the normal CDF of a Gaussian input stream."""
    return ndtr(draw_inputs(seed, purpose, 0, 0, n, 1)[:, 0])


class TestMcMean:
    def test_singleton(self):
        assert mc_mean([3.0]) == 3.0

    def test_small(self):
        assert mc_mean([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_uniform_mean_near_half(self):
        vals = _uniforms(1, 10_000)
        assert abs(mc_mean(vals) - 0.5) < 0.01

    def test_matches_numpy_oracle(self, rng):
        x = rng.normal(size=1001) * 3.0 + 7.0
        assert mc_mean(x) == pytest.approx(np.mean(x), rel=1e-14)

    def test_empty_raises(self):
        with pytest.raises(DataError):
            mc_mean([])

    def test_non_finite_raises(self):
        with pytest.raises(DataError):
            mc_mean([1.0, np.nan])


class TestSampleVariance:
    def test_constant_is_zero(self):
        assert sample_variance([4.2, 4.2, 4.2]) == 0.0

    def test_two_points(self):
        assert sample_variance([0.0, 2.0]) == 2.0

    def test_uniform_variance(self):
        vals = _uniforms(2, 100_000)
        assert abs(sample_variance(vals) - 1.0 / 12.0) < 0.002

    def test_matches_numpy_oracle(self, rng):
        x = rng.normal(size=513)
        assert sample_variance(x) == pytest.approx(np.var(x, ddof=1), rel=1e-12)

    def test_needs_two_values(self):
        with pytest.raises(DataError):
            sample_variance([1.0])

    def test_catastrophic_offset(self):
        """Large common offset must not destroy the variance estimate."""
        base = np.array([0.0, 1.0, 2.0, 3.0])
        shifted = base + 1e9
        assert sample_variance(shifted) == pytest.approx(
            np.var(base, ddof=1), rel=1e-9
        )


class TestSampleCovariance:
    def test_self_covariance_is_variance(self, rng):
        y = rng.normal(size=301)
        assert sample_covariance(y, y) == sample_variance(y)

    def test_negated(self, rng):
        y = rng.normal(size=301)
        assert sample_covariance(y, -y) == pytest.approx(-sample_variance(y), rel=1e-12)

    def test_independent_near_zero(self):
        y = _uniforms(3, 100_000)
        z = _uniforms(3, 100_000, PURPOSE_ORACLE)
        assert abs(sample_covariance(y, z)) < 0.002

    def test_matches_numpy_oracle(self, rng):
        y = rng.normal(size=400)
        z = 0.3 * y + rng.normal(size=400)
        assert sample_covariance(y, z) == pytest.approx(np.cov(y, z, ddof=1)[0, 1], rel=1e-12)

    def test_misaligned_lengths(self):
        with pytest.raises(DimensionError):
            sample_covariance([1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "reduce",
    [
        mc_mean,
        sample_variance,
        lambda x: sample_covariance(x, x),
        lambda x: rho_squared(x, x),
        lambda x: RunningMoments().update(x),
    ],
    ids=["mc_mean", "sample_variance", "sample_covariance", "rho_squared", "RunningMoments.update"],
)
def test_non_vector_samples_rejected(reduce, rng):
    """Sample statistics take 1-D vectors; a matrix is refused, not flattened."""
    with pytest.raises(DimensionError):
        reduce(rng.normal(size=(2, 50)))


class TestRhoSquared:
    def test_affine_dependence(self, rng):
        y = rng.normal(size=500)
        value, degenerate = rho_squared(y, 2.0 * y + 5.0)
        assert not degenerate
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_independent_near_zero(self):
        y = _uniforms(4, 100_000)
        z = _uniforms(4, 100_000, PURPOSE_ORACLE)
        value, degenerate = rho_squared(y, z)
        assert not degenerate
        assert value <= 0.001

    def test_constant_input_degenerate(self, rng):
        y = rng.normal(size=50)
        value, degenerate = rho_squared(y, np.full(50, 3.0))
        assert degenerate
        assert value == 0.0
        value, degenerate = rho_squared(np.full(50, 3.0), y)
        assert degenerate
        assert value == 0.0

    def test_clamped_to_unit_interval(self, rng):
        for _ in range(50):
            y = rng.normal(size=20)
            z = rng.normal(size=20)
            value, _ = rho_squared(y, z)
            assert 0.0 <= value <= 1.0


class TestMseReductionFactor:
    def test_zero_rho2_is_one(self):
        for ratio in (0.0, 0.1, 5.0):
            assert mse_reduction_factor(0.0, ratio) == 1.0

    def test_perfect_cv_zero_ratio(self):
        assert mse_reduction_factor(1.0, 0.0) == 0.0

    def test_hand_value(self):
        assert mse_reduction_factor(0.95, 0.1) == pytest.approx(1.0 - 0.95 / 1.1, rel=1e-14)
        assert mse_reduction_factor(0.95, 0.1) == pytest.approx(0.13636363636363635, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DataError):
            mse_reduction_factor(1.5, 0.1)
        with pytest.raises(DataError):
            mse_reduction_factor(-0.1, 0.1)
        with pytest.raises(DataError):
            mse_reduction_factor(0.5, -1.0)

    @settings(max_examples=200, deadline=None)
    @given(
        rho2=st.floats(min_value=0.0, max_value=1.0),
        ratio=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_property_bounds_and_monotonicity(self, rho2, ratio):
        value = mse_reduction_factor(rho2, ratio)
        assert 1.0 - rho2 - 1e-12 <= value <= 1.0 + 1e-12
        assert mse_reduction_factor(rho2, ratio + 1.0) >= value - 1e-12
        if rho2 >= 0.1:
            assert mse_reduction_factor(rho2 / 2.0, ratio) >= value - 1e-12


class TestRunningMoments:
    def test_matches_batch_statistics(self, rng):
        x = rng.normal(size=10_001) * 2.0 + 1.0
        mom = RunningMoments()
        for chunk in np.array_split(x, 7):
            mom.update(chunk)
        assert mom.count == x.size
        assert mom.mean == pytest.approx(np.mean(x), rel=1e-13)
        assert mom.variance == pytest.approx(np.var(x, ddof=1), rel=1e-12)

    def test_split_invariance(self, rng):
        """Different chunkings agree to tight tolerance."""
        x = rng.normal(size=4096)
        a = RunningMoments()
        a.update(x)
        b = RunningMoments()
        for chunk in np.array_split(x, 13):
            b.update(chunk)
        assert a.mean == pytest.approx(b.mean, rel=1e-13)
        assert a.variance == pytest.approx(b.variance, rel=1e-12)

    def test_short_series_variance_is_zero(self):
        mom = RunningMoments()
        mom.update([5.0])
        assert mom.count == 1
        assert mom.mean == 5.0
        assert mom.variance == 0.0


def test_chunked_sum_matches_fsum(rng):
    from mlcv.stats import _chunked_sum

    x = rng.normal(size=50_000) * 1e6
    assert _chunked_sum(x) == pytest.approx(math.fsum(x), rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=60
    )
)
def test_property_variance_nonnegative_and_cov_symmetric(data):
    x = np.asarray(data)
    assert sample_variance(x) >= 0.0
    y = x[::-1].copy()
    assert sample_covariance(x, y) == pytest.approx(sample_covariance(y, x), rel=1e-12, abs=1e-12)
