"""Deterministic stream-keyed input sampling.

Every random input vector consumed anywhere in the package is addressed by a
key (master seed, purpose label, level, sample index).  The key is hashed
into the state of a counter-based generator, so replaying a key reproduces
the sample bit for bit, independent of how many other samples were drawn, in
which order, or from how many workers.

Every input is a standard Gaussian: the inverse normal CDF of one uniform
draw each, with no rejection steps, so every variate consumes exactly one
counter increment and streams stay aligned across purposes.  Models that need
another law transform these inputs themselves.
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

_INV_53 = 1.0 / (1 << 53)


def _check_key_fields(master_seed: int, purpose: str, level: int, sample_index: int) -> None:
    if purpose not in _PURPOSE_CODES:
        raise ConfigError(f"unknown stream purpose {purpose!r}")
    if master_seed < 0 or master_seed >= 1 << 64:
        raise ConfigError(f"master_seed must fit in 64 unsigned bits, got {master_seed}")
    if level < 0:
        raise ConfigError(f"level must be non-negative, got {level}")
    if sample_index < 0:
        raise ConfigError(f"sample_index must be non-negative, got {sample_index}")


def _block_uniforms(master_seed: int, purpose: str, level: int, block: int, dim: int) -> np.ndarray:
    """Uniforms for one keyed block, shape (_BLOCK, dim), in (0, 1]."""
    seq = np.random.SeedSequence(
        entropy=master_seed,
        spawn_key=(_PURPOSE_CODES[purpose], level, block),
    )
    gen = np.random.Generator(np.random.Philox(seq))
    raw = gen.integers(0, 1 << 53, size=(_BLOCK, dim), dtype=np.uint64)
    # Midpoint mapping keeps draws above 0, but rounds the largest integer,
    # 2**53 - 1, up to exactly 1.0; ``draw_inputs`` clamps that one value.
    return (raw.astype(np.float64) + 0.5) * _INV_53


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
    if dim < 1:
        raise ConfigError(f"input dimension must be positive, got {dim}")
    out = np.empty((count, dim))
    filled = 0
    index = start
    while filled < count:
        block, offset = divmod(index, _BLOCK)
        take = min(_BLOCK - offset, count - filled)
        u = _block_uniforms(master_seed, purpose, level, block, dim)
        out[filled : filled + take] = u[offset : offset + take]
        filled += take
        index += take
    # ndtri(1.0) is inf, so the one uniform that rounds to 1.0 is lowered, in
    # place, to the largest double below it; no other value moves.
    np.minimum(out, np.nextafter(1.0, 0.0), out=out)
    return ndtri(out, out=out)
