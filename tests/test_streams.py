"""Tests for deterministic stream-keyed input generation."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import ndtr

from mlcv import (
    PURPOSE_MAIN_Y,
    PURPOSE_ORACLE,
    PURPOSE_PILOT,
    PURPOSE_ZBAR,
    ConfigError,
    draw_inputs,
)

# The stream layout, restated here so a change to it fails a test: purpose
# codes in the spawn key and samples per block.
_PURPOSE_CODES = {PURPOSE_PILOT: 0, PURPOSE_MAIN_Y: 1, PURPOSE_ZBAR: 2, PURPOSE_ORACLE: 3}
_BLOCK = 1024


def _block_draws(seed, purpose, level, block, dim):
    """Block ``block`` of the (seed, purpose, level) stream, built from
    numpy primitives: a Philox generator on the stream's key with the block
    index in its counter, and a (_BLOCK, dim) standard normal matrix."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(_PURPOSE_CODES[purpose], level))
    key = seq.generate_state(2, np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, block, 0]))
    return gen.standard_normal((_BLOCK, dim))


def _reference_rows(seed, purpose, level, start, count, dim):
    """Rows start..start+count-1 built one by one, each from its own fresh
    block generator."""
    rows = [
        _block_draws(seed, purpose, level, index // _BLOCK, dim)[index % _BLOCK]
        for index in range(start, start + count)
    ]
    return np.array(rows, dtype=np.float64).reshape(count, dim)


def _reference_blocks(seed, purpose, level, start, count, dim):
    """The same rows built one block at a time and sliced."""
    first, stop = start // _BLOCK, -(-(start + count) // _BLOCK)
    blocks = [_block_draws(seed, purpose, level, block, dim) for block in range(first, stop)]
    offset = start - first * _BLOCK
    return np.vstack(blocks)[offset : offset + count]


def test_same_key_bitwise_identical():
    a = draw_inputs(42, PURPOSE_PILOT, 0, 7, 1, 1)[0]
    b = draw_inputs(42, PURPOSE_PILOT, 0, 7, 1, 1)[0]
    assert a.shape == (1,)
    assert a[0] == b[0]


def test_draw_inputs_matches_single_draws():
    rows = draw_inputs(9, PURPOSE_MAIN_Y, 2, 5, 20, 1)
    for i in range(20):
        single = draw_inputs(9, PURPOSE_MAIN_Y, 2, 5 + i, 1, 1)[0]
        assert single[0] == rows[i, 0]


def test_batch_split_invariance():
    """Any partition of an index range returns the same rows bitwise."""
    whole = draw_inputs(3, PURPOSE_PILOT, 0, 0, 2500, 2)
    pieces = np.vstack(
        [
            draw_inputs(3, PURPOSE_PILOT, 0, 0, 1000, 2),
            draw_inputs(3, PURPOSE_PILOT, 0, 1000, 37, 2),
            draw_inputs(3, PURPOSE_PILOT, 0, 1037, 1463, 2),
        ]
    )
    assert np.array_equal(whole, pieces)


def test_distinct_key_fields_change_output():
    base = draw_inputs(1, PURPOSE_MAIN_Y, 1, 0, 1, 1)[0, 0]
    assert draw_inputs(2, PURPOSE_MAIN_Y, 1, 0, 1, 1)[0, 0] != base
    assert draw_inputs(1, PURPOSE_ZBAR, 1, 0, 1, 1)[0, 0] != base
    assert draw_inputs(1, PURPOSE_MAIN_Y, 2, 0, 1, 1)[0, 0] != base
    assert draw_inputs(1, PURPOSE_MAIN_Y, 1, 1, 1, 1)[0, 0] != base


def test_purposes_are_mutually_independent_streams():
    purposes = (PURPOSE_PILOT, PURPOSE_MAIN_Y, PURPOSE_ZBAR, PURPOSE_ORACLE)
    cols = [draw_inputs(11, p, 0, 0, 4000, 1)[:, 0] for p in purposes]
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            corr = np.corrcoef(cols[i], cols[j])[0, 1]
            assert abs(corr) < 0.06


def test_uniform_values_strictly_inside_bounds():
    """The normal CDF of the draws lies strictly inside (0, 1)."""
    u = ndtr(draw_inputs(0, PURPOSE_PILOT, 0, 0, 5000, 1)[:, 0])
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_draws_equal_per_sample_reference():
    """Draws equal, bit for bit, the stream rebuilt from numpy primitives
    one sample at a time, at several widths and at start offsets on both
    sides of a block boundary."""
    for dim in (1, 3, 16):
        for start, count in ((0, 5), (1000, 60), (2047, 3)):
            rows = draw_inputs(77, PURPOSE_ORACLE, 2, start, count, dim)
            ref = _reference_rows(77, PURPOSE_ORACLE, 2, start, count, dim)
            assert rows.shape == (count, dim)
            assert rows.tobytes() == ref.tobytes()


def test_draw_across_block_two_to_the_32():
    """One call across block 2**32 at a level of two 32-bit words, and the
    last sample index that fits in 64 bits (block 2**54 - 1)."""
    for start, count in ((2**32 * _BLOCK - 3, 7), (2**64 - 1, 1)):
        rows = draw_inputs(2**40 + 9, PURPOSE_ZBAR, 2**32 + 1, start, count, 2)
        ref = _reference_rows(2**40 + 9, PURPOSE_ZBAR, 2**32 + 1, start, count, 2)
        assert rows.tobytes() == ref.tobytes()


def test_full_batch_equals_per_block_reference():
    """A 65,536-row draw cut by both ends of its range equals the stream
    rebuilt one block at a time."""
    rows = draw_inputs(777, PURPOSE_MAIN_Y, 0, 1000, 65_536, 3)
    ref = _reference_blocks(777, PURPOSE_MAIN_Y, 0, 1000, 65_536, 3)
    assert rows.tobytes() == ref.tobytes()


def test_concurrent_draws_equal_serial_draws():
    """Two threads drawing different keys at once get the serial bytes."""
    keys = [(seed, PURPOSE_MAIN_Y, seed % 3, 5_000 * seed) for seed in range(20)]
    serial = [draw_inputs(*key, 5_000, 3).tobytes() for key in keys]
    got = [None] * len(keys)

    def work(offset):
        for i in range(offset, len(keys), 2):
            got[i] = draw_inputs(*keys[i], 5_000, 3).tobytes()

    threads = [threading.Thread(target=work, args=(offset,)) for offset in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == serial


def test_gaussian_moments():
    vals = draw_inputs(5, PURPOSE_PILOT, 0, 0, 100_000, 1)[:, 0]
    assert abs(vals.mean()) < 0.02
    assert abs(vals.var() - 1.0) < 0.02
    # The kurtosis of 2**20 Gaussian draws has standard deviation
    # sqrt(24 / 2**20) ~ 0.0048, so each column sits within about 5 of them.
    x = draw_inputs(5, PURPOSE_MAIN_Y, 1, 0, 1 << 20, 3)
    centred = x - x.mean(axis=0)
    kurtosis = (centred**4).mean(axis=0) / (centred**2).mean(axis=0) ** 2
    assert np.all(np.abs(kurtosis - 3.0) < 0.025)


def test_mixed_layout_52_coordinates():
    sample = draw_inputs(13, PURPOSE_PILOT, 0, 0, 1, 52)[0]
    assert sample.shape == (52,)
    assert np.all(np.isfinite(sample))
    u = ndtr(sample)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert np.unique(sample).size == 52


def test_uniform_ks_statistic_below_critical():
    """The normal CDF of 10^5 draws across distinct sample indices passes a
    1% KS test against the uniform law."""
    vals = ndtr(draw_inputs(2024, PURPOSE_MAIN_Y, 3, 0, 100_000, 1)[:, 0])
    stat = scipy_stats.kstest(vals, "uniform").statistic
    critical_1pct = 1.6276 / np.sqrt(vals.size)
    assert stat < critical_1pct


def test_coordinates_mutually_independent():
    x = draw_inputs(8, PURPOSE_PILOT, 0, 0, 20_000, 3)
    c = np.corrcoef(x.T)
    off_diag = c[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off_diag)) < 0.03


def test_invalid_inputs_raise_config_error():
    with pytest.raises(ConfigError):
        draw_inputs(0, "bogus", 0, 0, 1, 1)
    with pytest.raises(ConfigError):
        draw_inputs(-1, PURPOSE_PILOT, 0, 0, 1, 1)
    with pytest.raises(ConfigError):
        draw_inputs(0, PURPOSE_PILOT, -1, 0, 1, 1)
    with pytest.raises(ConfigError):
        draw_inputs(0, PURPOSE_PILOT, 0, -1, 1, 1)
    with pytest.raises(ConfigError):
        draw_inputs(0, PURPOSE_PILOT, 0, 2**64 - 1, 2, 1)
    with pytest.raises(ConfigError):
        draw_inputs(0, PURPOSE_PILOT, 0, 0, -1, 1)
    with pytest.raises(ConfigError):
        draw_inputs(0, PURPOSE_PILOT, 0, 0, 1, 0)
    with pytest.raises(ConfigError):
        draw_inputs(0, PURPOSE_PILOT, 0, 0, 1, -2)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    purpose=st.sampled_from((PURPOSE_PILOT, PURPOSE_MAIN_Y, PURPOSE_ZBAR, PURPOSE_ORACLE)),
    level=st.integers(min_value=0, max_value=40),
    index=st.integers(min_value=0, max_value=10_000),
)
def test_property_draws_finite_and_in_support(seed, purpose, level, index):
    row = draw_inputs(seed, purpose, level, index, 1, 2)[0]
    assert np.all(np.isfinite(row))
    assert np.all((ndtr(row) > 0.0) & (ndtr(row) < 1.0))
    again = draw_inputs(seed, purpose, level, index, 1, 2)[0]
    assert np.array_equal(row, again)
