"""Deterministic stream-keyed input sampling.

Every random input vector consumed anywhere in the package is addressed by a
key (master seed, purpose label, level, sample index), so replaying a key
reproduces the sample bit for bit, independent of how many other samples were
drawn, in which order, or from how many workers.

The (seed, purpose, level) stream has one Philox key, ``SeedSequence(entropy=
seed, spawn_key=(purpose code, level)).generate_state(2, np.uint64)``, and its
sample indices fall into blocks of ``_BLOCK``: block b is ``Generator(Philox(
key, counter=[0, 0, b, 0])).standard_normal((_BLOCK, dim))`` in row order.  A
block advances only the lowest counter word, by far fewer than 2**64 steps, so
no two blocks share a counter.  Every input is a standard Gaussian; models
that need another law transform these inputs themselves.  The Philox bit
stream and ``standard_normal`` are numpy's, and numpy keeps a
``Generator``'s stream only within one version (NEP 19), so artifacts are
reproducible for a given numpy.

One call owns one generator, re-set to each block's counter in turn, which
fills its rows of the output in place.  Concurrent calls share no state.
"""

from __future__ import annotations

import numpy as np

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

# Samples per block.  Fixed by design: changing it would change every
# stream, so it is a module constant rather than a configuration knob.
_BLOCK = 1024


def draw_inputs(
    master_seed: int, purpose: str, level: int, start: int, count: int, dim: int
) -> np.ndarray:
    """Standard Gaussian input matrix of shape (count, dim) for sample_index
    start..start+count-1.

    Values depend only on the per-sample keys, so any partition of an index
    range into calls returns the same rows.
    """
    if purpose not in _PURPOSE_CODES:
        raise ConfigError(f"unknown stream purpose {purpose!r}")
    if master_seed < 0 or master_seed >= 1 << 64:
        raise ConfigError(f"master_seed must fit in 64 unsigned bits, got {master_seed}")
    if level < 0:
        raise ConfigError(f"level must be non-negative, got {level}")
    if start < 0:
        raise ConfigError(f"sample_index must be non-negative, got {start}")
    if count < 0:
        raise ConfigError(f"count must be non-negative, got {count}")
    if start + count > 1 << 64:
        raise ConfigError(f"sample_index must fit in 64 unsigned bits, got {start + count - 1}")
    if dim < 1:
        raise ConfigError(f"input dimension must be positive, got {dim}")
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(_PURPOSE_CODES[purpose], level))
    bitgen = np.random.Philox(key=seq.generate_state(2, np.uint64))
    gen = np.random.Generator(bitgen)
    # A fresh generator's state (empty buffer), re-set to each block's counter.
    state = bitgen.state
    out = np.empty((count, dim))
    for block in range(start // _BLOCK, -(-(start + count) // _BLOCK)):
        state["state"]["counter"][2] = block
        bitgen.state = state
        lo = block * _BLOCK - start  # output row of the block's first sample
        a, b = max(lo, 0), min(lo + _BLOCK, count)
        if b - a == _BLOCK:
            gen.standard_normal(out=out[a:b])
        else:  # a block cut by either end of the range
            out[a:b] = gen.standard_normal((_BLOCK, dim))[a - lo : b - lo]
    return out
