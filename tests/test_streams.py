"""Tests for deterministic stream-keyed input generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import ndtri

from mlcv import (
    PURPOSE_MAIN_Y,
    PURPOSE_ORACLE,
    PURPOSE_PILOT,
    PURPOSE_ZBAR,
    ConfigError,
    DistributionTag,
    draw_inputs,
    standard_gaussian,
    uniform,
)

GAUSS = (standard_gaussian(),)
UNIF01 = (uniform(0.0, 1.0),)


def test_same_key_bitwise_identical():
    a = draw_inputs(42, PURPOSE_PILOT, 0, 7, 1, UNIF01)[0]
    b = draw_inputs(42, PURPOSE_PILOT, 0, 7, 1, UNIF01)[0]
    assert a.shape == (1,)
    assert a[0] == b[0]


def test_draw_inputs_matches_single_draws():
    rows = draw_inputs(9, PURPOSE_MAIN_Y, 2, 5, 20, GAUSS)
    for i in range(20):
        single = draw_inputs(9, PURPOSE_MAIN_Y, 2, 5 + i, 1, GAUSS)[0]
        assert single[0] == rows[i, 0]


def test_batch_split_invariance():
    """Any partition of an index range returns the same rows bitwise."""
    tags = (standard_gaussian(), uniform(-1.0, 1.0))
    whole = draw_inputs(3, PURPOSE_PILOT, 0, 0, 2500, tags)
    pieces = np.vstack(
        [
            draw_inputs(3, PURPOSE_PILOT, 0, 0, 1000, tags),
            draw_inputs(3, PURPOSE_PILOT, 0, 1000, 37, tags),
            draw_inputs(3, PURPOSE_PILOT, 0, 1037, 1463, tags),
        ]
    )
    assert np.array_equal(whole, pieces)


def test_distinct_key_fields_change_output():
    base = draw_inputs(1, PURPOSE_MAIN_Y, 1, 0, 1, UNIF01)[0, 0]
    assert draw_inputs(2, PURPOSE_MAIN_Y, 1, 0, 1, UNIF01)[0, 0] != base
    assert draw_inputs(1, PURPOSE_ZBAR, 1, 0, 1, UNIF01)[0, 0] != base
    assert draw_inputs(1, PURPOSE_MAIN_Y, 2, 0, 1, UNIF01)[0, 0] != base
    assert draw_inputs(1, PURPOSE_MAIN_Y, 1, 1, 1, UNIF01)[0, 0] != base


def test_purposes_are_mutually_independent_streams():
    purposes = (PURPOSE_PILOT, PURPOSE_MAIN_Y, PURPOSE_ZBAR, PURPOSE_ORACLE)
    cols = [draw_inputs(11, p, 0, 0, 4000, UNIF01)[:, 0] for p in purposes]
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            corr = np.corrcoef(cols[i], cols[j])[0, 1]
            assert abs(corr) < 0.06


def test_uniform_values_strictly_inside_bounds():
    vals = draw_inputs(0, PURPOSE_PILOT, 0, 0, 5000, (uniform(2.0, 5.0),))[:, 0]
    assert vals.min() > 2.0
    assert vals.max() < 5.0


def test_gaussian_is_inverse_cdf_of_uniform_stream():
    """Gaussian coordinates are the normal quantile of the raw uniform draws."""
    u = draw_inputs(77, PURPOSE_ORACLE, 0, 0, 256, UNIF01)[:, 0]
    g = draw_inputs(77, PURPOSE_ORACLE, 0, 0, 256, GAUSS)[:, 0]
    assert np.array_equal(g, ndtri(u))


def test_gaussian_moments():
    vals = draw_inputs(5, PURPOSE_PILOT, 0, 0, 100_000, GAUSS)[:, 0]
    assert abs(vals.mean()) < 0.02
    assert abs(vals.var() - 1.0) < 0.02


def test_mixed_layout_52_coordinates():
    tags = tuple([uniform(-1.0, 1.0)] * 50 + [uniform(105.0, 109.0), uniform(0.004, 0.01)])
    sample = draw_inputs(13, PURPOSE_PILOT, 0, 0, 1, tags)[0]
    assert sample.shape == (52,)
    assert np.all(sample[:50] > -1.0) and np.all(sample[:50] < 1.0)
    assert 105.0 < sample[50] < 109.0
    assert 0.004 < sample[51] < 0.01


def test_uniform_ks_statistic_below_critical():
    """10^5 uniforms across distinct sample indices pass a 1% KS test."""
    vals = draw_inputs(2024, PURPOSE_MAIN_Y, 3, 0, 100_000, UNIF01)[:, 0]
    stat = scipy_stats.kstest(vals, "uniform").statistic
    critical_1pct = 1.6276 / np.sqrt(vals.size)
    assert stat < critical_1pct


def test_coordinates_mutually_independent():
    tags = (standard_gaussian(), standard_gaussian(), standard_gaussian())
    x = draw_inputs(8, PURPOSE_PILOT, 0, 0, 20_000, tags)
    c = np.corrcoef(x.T)
    off_diag = c[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off_diag)) < 0.03


def test_invalid_inputs_raise_config_error():
    with pytest.raises(ConfigError):
        draw_inputs(0, "bogus", 0, 0, 1, UNIF01)
    with pytest.raises(ConfigError):
        draw_inputs(-1, PURPOSE_PILOT, 0, 0, 1, UNIF01)
    with pytest.raises(ConfigError):
        draw_inputs(0, PURPOSE_PILOT, -1, 0, 1, UNIF01)
    with pytest.raises(ConfigError):
        draw_inputs(0, PURPOSE_PILOT, 0, -1, 1, UNIF01)
    with pytest.raises(ConfigError):
        draw_inputs(0, PURPOSE_PILOT, 0, 0, 1, ())
    with pytest.raises(ConfigError):
        draw_inputs(0, PURPOSE_PILOT, 0, 0, 1, (DistributionTag("cauchy"),))
    with pytest.raises(ConfigError):
        uniform(1.0, 1.0)
    with pytest.raises(ConfigError):
        uniform(0.0, float("inf"))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    purpose=st.sampled_from((PURPOSE_PILOT, PURPOSE_MAIN_Y, PURPOSE_ZBAR, PURPOSE_ORACLE)),
    level=st.integers(min_value=0, max_value=40),
    index=st.integers(min_value=0, max_value=10_000),
)
def test_property_draws_finite_and_in_support(seed, purpose, level, index):
    tags = (standard_gaussian(), uniform(-2.0, 3.0))
    row = draw_inputs(seed, purpose, level, index, 1, tags)[0]
    assert np.all(np.isfinite(row))
    assert -2.0 < row[1] < 3.0
    again = draw_inputs(seed, purpose, level, index, 1, tags)[0]
    assert np.array_equal(row, again)
