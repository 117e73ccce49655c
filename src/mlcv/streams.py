"""Deterministic stream-keyed input sampling.

Every random input vector consumed anywhere in the package is addressed by a
key (master seed, purpose label, level, sample index).  The key is hashed
into the state of a counter-based generator, so replaying a key reproduces
the sample bit for bit, independent of how many other samples were drawn, in
which order, or from how many workers.

Sample indices fall into keyed blocks of ``_BLOCK``.  Block b is the Philox
stream keyed by ``SeedSequence(entropy=seed, spawn_key=(purpose code, level,
b)).generate_state(2, np.uint64)``; its (``_BLOCK``, dim) 53-bit integers r,
in row order, give the uniforms (r + 0.5)·2**-53.

Every input is a standard Gaussian: the inverse normal CDF of one uniform
draw each, with no rejection steps, so every variate consumes exactly one
counter increment and streams stay aligned across purposes.  Models that need
another law transform these inputs themselves.

One call draws its whole index range in one pass, and the stream stays as
defined above: the keys of all its blocks are derived at once (numpy's
``SeedSequence`` mixing, vectorized over the block indices), one Philox
generator owned by the call is re-keyed per block and fills its rows of the
output in place, and the uniform offset, the clamp and the normal quantile
each run once over the whole matrix.  Concurrent calls share no state.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import ConfigError

PURPOSE_PILOT = "pilot"
PURPOSE_MAIN_Y = "main_y"
PURPOSE_ZBAR = "zbar"
PURPOSE_ORACLE = "oracle"

_PURPOSE_CODES = {
    PURPOSE_PILOT: 0,
    PURPOSE_MAIN_Y: 1,
    PURPOSE_ZBAR: 2,
    PURPOSE_ORACLE: 3,
}

# Samples per keyed block.  Fixed by design: changing it would change every
# stream, so it is a module constant rather than a configuration knob.
_BLOCK = 1024

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the running
# hash constants of entropy mixing (A) and of state generation (B), the two
# multipliers of ``mix``, and the pool size in 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4


def _check_key_fields(master_seed: int, purpose: str, level: int, sample_index: int) -> None:
    if purpose not in _PURPOSE_CODES:
        raise ConfigError(f"unknown stream purpose {purpose!r}")
    if master_seed < 0 or master_seed >= 1 << 64:
        raise ConfigError(f"master_seed must fit in 64 unsigned bits, got {master_seed}")
    if level < 0:
        raise ConfigError(f"level must be non-negative, got {level}")
    if sample_index < 0:
        raise ConfigError(f"sample_index must be non-negative, got {sample_index}")


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence reads an integer: its little-endian 32-bit
    words, one word for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` with its running constant: each call xors
    the constant in, steps it by ``mult`` and multiplies by the new one.

    ``hashmix(value)`` hashes a Python int with the next constant;
    ``hashmix(value, count)`` hashes a uint32 array with each of the next
    ``count`` constants, the i-th on row i of the result, ``value``
    broadcasting against a (count, 1) column."""

    def hashmix(value, count=None):
        nonlocal const
        consts = [const]
        for _ in range(1 if count is None else count):
            consts.append((consts[-1] * mult) & _MASK32)
        const = consts[-1]
        if count is None:
            xor, times = consts
        else:
            xor = np.array(consts[:-1], dtype=np.uint32)[:, None]
            times = np.array(consts[1:], dtype=np.uint32)[:, None]
        value = ((value ^ xor) * times) & _MASK32
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words (Python ints or uint32
    arrays)."""
    value = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _block_keys(master_seed: int, code: int, level: int, blocks: np.ndarray) -> np.ndarray:
    """Philox keys of the given blocks, shape (len(blocks), 2) uint64: row i
    equals ``SeedSequence(entropy=master_seed, spawn_key=(code, level,
    blocks[i])).generate_state(2, np.uint64)``.

    The seed, code and level words are mixed once as Python ints; the block
    words, one or two per block, are mixed into the pool held as one
    (pool words, blocks) uint32 array, so each step is one array operation.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)
    # A spawn key makes SeedSequence pad the seed's words to the pool size.
    seed = _words(master_seed)
    pool = [hashmix(word) for word in seed + [0] * (_POOL_WORDS - len(seed))]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in [code, *_words(level)]:
        pool = [_mix(p, hashmix(word)) for p in pool]
    low = (blocks & _MASK32).astype(np.uint32)
    high = (blocks >> 32).astype(np.uint32)
    pool = _mix(np.array(pool, dtype=np.uint32)[:, None], hashmix(low, _POOL_WORDS))
    # Only a block of 2**32 or more has a second word to mix in.
    pool = np.where(high > 0, _mix(pool, hashmix(high, _POOL_WORDS)), pool)
    state = _hasher(_INIT_B, _MULT_B)(pool, _POOL_WORDS)
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _uniforms(
    master_seed: int, purpose: str, level: int, start: int, count: int, dim: int
) -> np.ndarray:
    """Uniforms of sample_index start..start+count-1, shape (count, dim), in
    (0, 1]."""
    out = np.empty((count, dim))
    first = start // _BLOCK
    stop = -(-(start + count) // _BLOCK)
    keys = _block_keys(
        master_seed, _PURPOSE_CODES[purpose], level, np.arange(first, stop, dtype=np.uint64)
    )
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # A fresh generator's state (counter 0, empty buffer), re-keyed per block.
    state = bitgen.state
    scratch = np.empty((_BLOCK, dim))
    for block, key in zip(range(first, stop), keys):
        state["state"]["key"] = key
        bitgen.state = state
        lo = block * _BLOCK - start  # output row of the block's first sample
        a, b = max(lo, 0), min(lo + _BLOCK, count)
        if b - a == _BLOCK:
            gen.random(out=out[a:b])
        else:  # a block cut by either end of the range
            gen.random(out=scratch)
            out[a:b] = scratch[a - lo : b - lo]
    # ``random`` gives r·2**-53 exactly, and (r + 0.5)·2**-53 equals the
    # rounded r·2**-53 + 2**-54.  The midpoint keeps draws above 0, but rounds
    # the largest integer, 2**53 - 1, up to exactly 1.0; ``draw_inputs``
    # clamps that one value.
    out += 2.0**-54
    return out


def draw_inputs(
    master_seed: int, purpose: str, level: int, start: int, count: int, dim: int
) -> np.ndarray:
    """Standard Gaussian input matrix of shape (count, dim) for sample_index
    start..start+count-1.

    Values depend only on the per-sample keys, so any partition of an index
    range into calls returns the same rows.
    """
    _check_key_fields(master_seed, purpose, level, start)
    if count < 0:
        raise ConfigError(f"count must be non-negative, got {count}")
    if start + count > 1 << 64:
        raise ConfigError(f"sample_index must fit in 64 unsigned bits, got {start + count - 1}")
    if dim < 1:
        raise ConfigError(f"input dimension must be positive, got {dim}")
    out = _uniforms(master_seed, purpose, level, start, count, dim)
    # ndtri(1.0) is inf, so the one uniform that rounds to 1.0 is lowered, in
    # place, to the largest double below it; no other value moves.
    np.minimum(out, np.nextafter(1.0, 0.0), out=out)
    return ndtri(out, out=out)
