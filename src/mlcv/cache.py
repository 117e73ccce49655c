"""Deterministic on-disk persistence for pilot runs.

A pilot cache holds, per level, the output snapshots ``level{l}_q.npy`` and
the quantities of interest ``level{l}_qoi.npy`` at the shared pilot inputs,
plus ``meta.json``; corrections and statistics are rebuilt from these on
load.  Arrays are stored as individual ``.npy`` files (their bytes depend
only on shape, dtype, and contents, never on timestamps), metadata as
canonical JSON with sorted keys, so re-saving identical data rewrites
identical bytes.  Caches are keyed by a hash of the pilot-scoped
configuration; a mismatch means the cached artifacts belong to a different
study and must be rebuilt.  The metadata file is removed before and written
after the arrays, so a save interrupted part-way leaves no loadable cache
rather than a valid key over another study's arrays.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from .control_variates import CVSetup, prepare_control_variates
from .errors import DataError
from .mlmc import PilotRun, _build_pilot
from .models import LevelHierarchy

CACHE_SCHEMA = 2

_META = "meta.json"


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON; the hashing and file format basis."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_sha(obj) -> str:
    """Hex digest identifying a configuration object."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _write_text(path: Path, text: str) -> None:
    path.write_text(text + "\n", encoding="utf-8")


def _save_array(path: Path, a: np.ndarray) -> None:
    np.save(path, np.ascontiguousarray(a), allow_pickle=False)


def _load_array(path: Path, shape: tuple[int, ...]) -> np.ndarray:
    if not path.is_file():
        raise DataError(f"cache file missing: {path}")
    try:
        a = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DataError(
            f"cache file {path} is not a readable array ({exc}): "
            "re-run the pilot command"
        ) from None
    if a.shape != shape or a.dtype != np.float64:
        raise DataError(
            f"cache file {path} holds {a.dtype} of shape {a.shape}, expected "
            f"float64 of shape {shape}: re-run the pilot command"
        )
    return a


def save_pilot_cache(cache_dir: Path, pilot: PilotRun, pilot_key: str) -> None:
    """Persist the pilot's per-level outputs and identity key.

    Arrays of an earlier save are removed first.  The identity file goes
    last, through a rename, so it only ever names a complete set of arrays.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    (cache_dir / _META).unlink(missing_ok=True)
    for old in cache_dir.glob("*.npy"):
        old.unlink()
    for ell, data in enumerate(pilot.levels):
        _save_array(cache_dir / f"level{ell}_q.npy", data.q)
        _save_array(cache_dir / f"level{ell}_qoi.npy", data.qoi)
    meta = {
        "schema": CACHE_SCHEMA,
        "pilot_key": pilot_key,
        "master_seed": pilot.master_seed,
        "n_pilot": pilot.n_pilot,
        "n_levels": pilot.n_levels,
    }
    tmp = cache_dir / (_META + ".tmp")
    _write_text(tmp, canonical_json(meta))
    os.replace(tmp, cache_dir / _META)


def _read_meta(cache_dir: Path) -> dict:
    path = cache_dir / _META
    if not path.is_file():
        raise DataError(
            f"no pilot cache at {cache_dir}: run the pilot command first"
        )
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(
            f"{path} is not valid JSON ({exc}): re-run the pilot command"
        ) from None
    schema = meta.get("schema") if isinstance(meta, dict) else None
    if schema != CACHE_SCHEMA:
        raise DataError(
            f"unsupported cache schema {schema!r}: re-run the pilot command"
        )
    missing = [k for k in ("pilot_key", "n_levels", "n_pilot", "master_seed") if k not in meta]
    if missing:
        raise DataError(f"{path} lacks {', '.join(missing)}: re-run the pilot command")
    # exact types: JSON gives bool for true/false, which isinstance counts as int
    bad = [k for k in ("n_levels", "n_pilot", "master_seed") if type(meta[k]) is not int]
    if type(meta["pilot_key"]) is not str:
        bad.append("pilot_key")
    if bad:
        raise DataError(f"{path} has a malformed {', '.join(bad)}: re-run the pilot command")
    return meta


def load_pilot_cache(
    cache_dir: Path, hierarchy: LevelHierarchy, pilot_key: str
) -> PilotRun:
    """Rebuild a PilotRun from disk, checking the identity key and every
    array's float64 dtype and shape against the pilot size and the hierarchy.

    Corrections and statistics are recomputed from the arrays by the same
    builder the live pilot uses.
    """
    cache_dir = Path(cache_dir)
    meta = _read_meta(cache_dir)
    if meta["pilot_key"] != pilot_key:
        raise DataError(
            "pilot cache was built from a different configuration: "
            "re-run the pilot command"
        )
    n_levels = hierarchy.n_levels
    if meta["n_levels"] != n_levels:
        raise DataError(
            f"pilot cache has {meta['n_levels']} levels, hierarchy {n_levels}"
        )
    n = meta["n_pilot"]
    outputs = [
        (
            _load_array(cache_dir / f"level{ell}_q.npy", (hierarchy.output_dim(ell), n)),
            _load_array(cache_dir / f"level{ell}_qoi.npy", (n,)),
        )
        for ell in range(n_levels)
    ]
    return _build_pilot(hierarchy, meta["master_seed"], n, outputs)


def load_setup(
    hierarchy: LevelHierarchy,
    pilot: PilotRun,
    *,
    rank=None,
    tol: float | None = None,
    s2: float,
) -> CVSetup:
    """Derive the control-variate setup from a loaded pilot.

    Bases and per-level parameters are pure functions of the pilot arrays,
    so they are rebuilt rather than stored.
    """
    return prepare_control_variates(hierarchy, pilot, rank=rank, tol=tol, s2=s2)
