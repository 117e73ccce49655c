"""Deterministic on-disk persistence for pilot runs and their
control-variate setup.

A pilot cache (schema 6) holds the study's sufficient state, so only the
pilot command derives anything.  Per level it holds the quantities of
interest ``level{l}_qoi.npy`` at the shared pilot inputs; per correction
level with a reduced basis, the sorted selected pilot indices
``level{l}_selected.npy`` (int64), the fine and coarse bases
``level{l}_fine_basis.npy`` and ``level{l}_coarse_basis.npy``, and the pilot
surrogate corrections ``level{l}_z.npy``; each array that the model derives
from its parameters alone and names in ``kept_shapes``, as
``model_{name}.npy`` (for ``Diffusion1D`` the scaled KL modes at each
level's cell midpoints, ``model_mid_modes{l}.npy``, so only the pilot
command solves the KL eigenproblem); and ``meta.json`` with the schema, the
identity key and each level's ``rank``, ``rho2``, ``multiplier`` and
``theta`` (JSON numbers, which round-trip float64 exactly).  Output
snapshots are not stored: only the basis selection reads them, and it runs
in the pilot command.  A cache of schema 1 to 5 is refused: schema 3 lacks
the model's arrays, schema 4 holds pilot values drawn from an earlier
definition of the input streams, and schema 5 holds pilot values solved with
an earlier ``Diffusion1D`` coefficient product.  Arrays are stored as
individual ``.npy`` files (their bytes depend only on shape, dtype, and
contents, never on timestamps), metadata as canonical JSON with sorted
keys, so re-saving identical data rewrites identical bytes.  Caches are
keyed by a hash of the pilot-scoped configuration; a mismatch means the
cached artifacts belong to a different study and must be rebuilt.  The metadata file is removed before
and written after the arrays, so a save interrupted part-way leaves no
loadable cache rather than a valid key over another study's arrays.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .control_variates import CVLevelConfig, CVSetup, ReducedBasisPair
from .errors import DataError
from .linalg import LeastSquaresOperator
from .mlmc import PilotRun, _build_pilot
from .models import LevelHierarchy

CACHE_SCHEMA = 6

_META = "meta.json"

# the per-level control-variate scalars of ``meta.json``, each a JSON number
_LEVEL_FLOATS = ("rho2", "multiplier", "theta")


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


def _load_array(path: Path, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    if not path.is_file():
        raise DataError(f"cache file missing: {path}: re-run the pilot command")
    try:
        a = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise DataError(
            f"cache file {path} is not a readable array ({exc}): "
            "re-run the pilot command"
        ) from None
    if a.shape != shape or a.dtype != dtype:
        raise DataError(
            f"cache file {path} holds {a.dtype} of shape {a.shape}, expected "
            f"{np.dtype(dtype)} of shape {shape}: re-run the pilot command"
        )
    return a


def _model_file(cache_dir: Path, name: str) -> Path:
    return cache_dir / f"model_{name}.npy"


def save_pilot_cache(
    cache_dir: Path,
    hierarchy: LevelHierarchy,
    pilot: PilotRun,
    setup: CVSetup,
    pilot_key: str,
) -> None:
    """Persist the pilot's quantities of interest, its control-variate setup,
    the model's kept arrays and the identity key.

    Arrays of an earlier save are removed first.  The identity file goes
    last, through a rename, so it only ever names a complete set of arrays.
    """
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    (cache_dir / _META).unlink(missing_ok=True)
    for old in cache_dir.glob("*.npy"):
        old.unlink()
    for ell, data in enumerate(pilot.levels):
        _save_array(cache_dir / f"level{ell}_qoi.npy", data.qoi)
    for ell, (basis, z) in enumerate(zip(setup.bases, setup.pilot_z)):
        if basis is None:
            continue
        _save_array(cache_dir / f"level{ell}_selected.npy", basis.selected_pilot_indices)
        _save_array(cache_dir / f"level{ell}_fine_basis.npy", basis.fine_basis)
        _save_array(cache_dir / f"level{ell}_coarse_basis.npy", basis.solver.a)
        _save_array(cache_dir / f"level{ell}_z.npy", z)
    for name, a in hierarchy.kept_arrays().items():
        _save_array(_model_file(cache_dir, name), a)
    meta = {
        "schema": CACHE_SCHEMA,
        "pilot_key": pilot_key,
        "master_seed": pilot.master_seed,
        "n_pilot": pilot.n_pilot,
        "n_levels": pilot.n_levels,
        "levels": [
            {"rank": c.rank, "rho2": c.rho2, "multiplier": c.multiplier, "theta": c.theta}
            for c in setup.configs
        ],
    }
    tmp = cache_dir / (_META + ".tmp")
    _write_text(tmp, canonical_json(meta))
    os.replace(tmp, cache_dir / _META)


def _malformed_level(ell: int, c) -> list[str]:
    """Names of the malformed entries of one level record of ``meta.json``.

    A level without a basis (level 0 always) has rank 0 and can hold no
    control variate, so its multiplier must be 0.
    """
    if type(c) is not dict or sorted(c) != sorted(("rank",) + _LEVEL_FLOATS):
        return [f"levels[{ell}]"]
    bad = [
        f"levels[{ell}].{k}"
        for k in _LEVEL_FLOATS
        if type(c[k]) is not float or not math.isfinite(c[k])
    ]
    if type(c["rank"]) is not int or c["rank"] < 0 or (ell == 0 and c["rank"]):
        bad.append(f"levels[{ell}].rank")
    if bad:
        return bad
    if not 0.0 <= c["rho2"] <= 1.0:
        bad.append(f"levels[{ell}].rho2")
    if c["multiplier"] < 0.0 or (c["rank"] == 0 and c["multiplier"]):
        bad.append(f"levels[{ell}].multiplier")
    return bad


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
    keys = ("pilot_key", "n_levels", "n_pilot", "master_seed", "levels")
    missing = [k for k in keys if k not in meta]
    if missing:
        raise DataError(f"{path} lacks {', '.join(missing)}: re-run the pilot command")
    # exact types: JSON gives bool for true/false, which isinstance counts as int
    bad = [k for k in ("n_levels", "n_pilot", "master_seed") if type(meta[k]) is not int]
    if type(meta["pilot_key"]) is not str:
        bad.append("pilot_key")
    levels = meta["levels"]
    if type(levels) is not list or len(levels) != meta["n_levels"]:
        bad.append("levels")
    else:
        for ell, c in enumerate(levels):
            bad += _malformed_level(ell, c)
    if bad:
        raise DataError(f"{path} has a malformed {', '.join(bad)}: re-run the pilot command")
    return meta


def _study_meta(cache_dir: Path, hierarchy: LevelHierarchy, pilot_key: str) -> dict:
    """The checked ``meta.json`` of a cache that belongs to this study."""
    meta = _read_meta(cache_dir)
    if meta["pilot_key"] != pilot_key:
        raise DataError(
            "pilot cache was built from a different configuration: "
            "re-run the pilot command"
        )
    if meta["n_levels"] != hierarchy.n_levels:
        raise DataError(
            f"pilot cache has {meta['n_levels']} levels, hierarchy {hierarchy.n_levels}"
        )
    return meta


def load_pilot_cache(
    cache_dir: Path, hierarchy: LevelHierarchy, pilot_key: str
) -> PilotRun:
    """Rebuild a PilotRun from the cached quantities of interest, checking
    the identity key and every array's float64 dtype and shape against the
    pilot size, and hand the model the arrays it named in ``kept_shapes``,
    each checked for float64 dtype, its shape and finite entries, so that
    it derives none of them again.

    Corrections and statistics are recomputed from the arrays by the same
    builder the live pilot uses.  The loaded levels hold no output
    snapshots (``q`` is None): only the basis selection reads them.
    """
    cache_dir = Path(cache_dir)
    meta = _study_meta(cache_dir, hierarchy, pilot_key)
    n = meta["n_pilot"]
    outputs = [
        (None, _load_array(cache_dir / f"level{ell}_qoi.npy", (n,)))
        for ell in range(hierarchy.n_levels)
    ]
    kept = {}
    for name, shape in hierarchy.kept_shapes().items():
        path = _model_file(cache_dir, name)
        kept[name] = _load_array(path, shape)
        if not np.isfinite(kept[name]).all():
            raise DataError(
                f"cache file {path} holds non-finite values: re-run the pilot command"
            )
    hierarchy.adopt_kept(kept)
    return _build_pilot(hierarchy, meta["master_seed"], n, outputs)


def load_setup(cache_dir: Path, hierarchy: LevelHierarchy, pilot_key: str) -> CVSetup:
    """Rebuild the control-variate setup that the pilot command stored.

    Each level's parameters come from ``meta.json`` and each basis from its
    arrays, checked for dtype and for shape against the hierarchy's output
    sizes, the level's rank and the pilot size; the selected indices must
    be strictly increasing and lie in [0, n_pilot).  Nothing is derived:
    the only factorization is the least-squares operator on the stored
    coarse basis.  A loaded basis carries no interpolative decomposition, so
    the ID residual is reported by the pilot command alone.
    """
    cache_dir = Path(cache_dir)
    meta = _study_meta(cache_dir, hierarchy, pilot_key)
    n = meta["n_pilot"]
    configs, bases, pilot_z = [], [], []
    for ell, c in enumerate(meta["levels"]):
        configs.append(CVLevelConfig(level=ell, **c))
        r = c["rank"]
        if r == 0:
            bases.append(None)
            pilot_z.append(None)
            continue
        tag = f"level{ell}"
        path = cache_dir / f"{tag}_selected.npy"
        sel = _load_array(path, (r,), np.int64)
        if sel[0] < 0 or sel[-1] >= n or np.any(sel[1:] <= sel[:-1]):
            raise DataError(
                f"cache file {path} does not hold strictly increasing pilot "
                f"indices in [0, {n}): re-run the pilot command"
            )
        coarse = _load_array(
            cache_dir / f"{tag}_coarse_basis.npy", (hierarchy.output_dim(ell - 1), r)
        )
        bases.append(
            ReducedBasisPair(
                level=ell,
                fine_basis=_load_array(
                    cache_dir / f"{tag}_fine_basis.npy", (hierarchy.output_dim(ell), r)
                ),
                selected_pilot_indices=sel,
                idf=None,
                solver=LeastSquaresOperator(coarse),
            )
        )
        pilot_z.append(_load_array(cache_dir / f"{tag}_z.npy", (n,)))
    return CVSetup(configs=configs, bases=bases, pilot_z=pilot_z)
