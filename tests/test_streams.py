"""Tests for deterministic stream-keyed input generation."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import ndtr, ndtri

from mlcv import (
    PURPOSE_MAIN_Y,
    PURPOSE_ORACLE,
    PURPOSE_PILOT,
    PURPOSE_ZBAR,
    ConfigError,
    draw_inputs,
)
from mlcv import streams

# The stream layout, restated here so a change to it fails a test: purpose
# codes in the spawn key and samples per keyed block.
_PURPOSE_CODES = {PURPOSE_PILOT: 0, PURPOSE_MAIN_Y: 1, PURPOSE_ZBAR: 2, PURPOSE_ORACLE: 3}
_BLOCK = 1024


def _reference_rows(seed, purpose, level, start, count, dim):
    """Rows start..start+count-1 built from numpy primitives one by one: a
    Philox generator per (seed, purpose, level, block) key, 53-bit integers,
    midpoint uniforms and the normal quantile of each column."""
    rows = []
    for index in range(start, start + count):
        block, offset = divmod(index, _BLOCK)
        seq = np.random.SeedSequence(
            entropy=seed, spawn_key=(_PURPOSE_CODES[purpose], level, block)
        )
        gen = np.random.Generator(np.random.Philox(seq))
        raw = gen.integers(0, 1 << 53, size=(_BLOCK, dim), dtype=np.uint64)
        u = (raw[offset].astype(np.float64) + 0.5) / float(1 << 53)
        rows.append([ndtri(u[j]) for j in range(dim)])
    return np.array(rows, dtype=np.float64).reshape(count, dim)


def _reference_blocks(seed, purpose, level, start, count, dim):
    """The same rows built one keyed block at a time: a Philox generator and
    a (_BLOCK, dim) matrix of 53-bit integers per block, midpoint uniforms,
    the clamp below 1 and the normal quantile."""
    first, stop = start // _BLOCK, -(-(start + count) // _BLOCK)
    u = []
    for block in range(first, stop):
        seq = np.random.SeedSequence(
            entropy=seed, spawn_key=(_PURPOSE_CODES[purpose], level, block)
        )
        gen = np.random.Generator(np.random.Philox(seq))
        raw = gen.integers(0, 1 << 53, size=(_BLOCK, dim), dtype=np.uint64)
        u.append((raw.astype(np.float64) + 0.5) / float(1 << 53))
    offset = start - first * _BLOCK
    u = np.vstack(u)[offset : offset + count]
    return ndtri(np.minimum(u, np.nextafter(1.0, 0.0)))


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
    """The uniforms behind the draws lie strictly inside (0, 1)."""
    u = ndtr(draw_inputs(0, PURPOSE_PILOT, 0, 0, 5000, 1)[:, 0])
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniform_of_one_gives_finite_draw(monkeypatch):
    """The midpoint map rounds the largest 53-bit integer up to exactly 1.0,
    whose normal quantile is inf; the draw is clamped to the largest double
    below 1 instead."""
    assert (float(2**53 - 1) + 0.5) * 2.0**-53 == 1.0
    monkeypatch.setattr(streams, "_uniforms", lambda *key: np.ones((key[-2], key[-1])))
    draws = draw_inputs(0, PURPOSE_PILOT, 0, 1000, 30, 2)
    assert draws.shape == (30, 2)
    assert np.all(np.isfinite(draws))
    assert np.all(draws == ndtri(np.nextafter(1.0, 0.0)))


def test_gaussian_is_inverse_cdf_of_uniform_stream():
    """Draws equal, bit for bit, the normal quantile of the keyed uniform
    stream rebuilt from numpy primitives, at several widths and at start
    offsets on both sides of a block boundary."""
    for dim in (1, 3, 16):
        for start, count in ((0, 5), (1000, 60), (2047, 3)):
            rows = draw_inputs(77, PURPOSE_ORACLE, 2, start, count, dim)
            ref = _reference_rows(77, PURPOSE_ORACLE, 2, start, count, dim)
            assert rows.shape == (count, dim)
            assert rows.tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_block_keys_equal_seed_sequence_state(seed):
    """The vectorized key derivation equals SeedSequence's for seeds, levels
    and block indices of one and of two 32-bit words."""
    blocks = [0, 1, 2**32 - 1, 2**32, 2**43]
    for code in _PURPOSE_CODES.values():
        for level in (0, 3, 2**32 + 1):
            keys = streams._block_keys(seed, code, level, np.array(blocks, dtype=np.uint64))
            assert keys.dtype == np.uint64 and keys.shape == (len(blocks), 2)
            for block, key in zip(blocks, keys):
                seq = np.random.SeedSequence(entropy=seed, spawn_key=(code, level, block))
                assert key.tobytes() == seq.generate_state(2, np.uint64).tobytes()


def test_draw_across_block_two_to_the_32():
    """One call whose blocks go from one-word to two-word indices, and the
    last sample index that fits in 64 bits."""
    for start, count in ((2**32 * _BLOCK - 3, 7), (2**64 - 1, 1)):
        rows = draw_inputs(2**40 + 9, PURPOSE_ZBAR, 2**32 + 1, start, count, 2)
        ref = _reference_rows(2**40 + 9, PURPOSE_ZBAR, 2**32 + 1, start, count, 2)
        assert rows.tobytes() == ref.tobytes()


def test_full_batch_equals_per_block_reference():
    """A 65,536-row draw cut by both ends of its range equals the stream
    rebuilt one keyed block at a time."""
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


def test_mixed_layout_52_coordinates():
    sample = draw_inputs(13, PURPOSE_PILOT, 0, 0, 1, 52)[0]
    assert sample.shape == (52,)
    assert np.all(np.isfinite(sample))
    u = ndtr(sample)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert np.unique(sample).size == 52


def test_uniform_ks_statistic_below_critical():
    """The uniforms behind 10^5 draws across distinct sample indices pass a
    1% KS test."""
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
