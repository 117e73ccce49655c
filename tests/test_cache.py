"""Tests for deterministic on-disk persistence of pilots and their
control-variate setup."""

from __future__ import annotations

import hashlib
import json
import re
import shutil

import numpy as np
import pytest

from mlcv import (
    DataError,
    Diffusion1D,
    LevelSubset,
    canonical_json,
    config_sha,
    load_pilot_cache,
    load_setup,
    models,
    pilot_mlmc,
    prepare_control_variates,
    sample_z,
    save_pilot_cache,
)
from mlcv.cli import main


@pytest.fixture(scope="module")
def synthetic_setup(synthetic, synthetic_pilot):
    return prepare_control_variates(synthetic, synthetic_pilot, rank=3)


@pytest.fixture
def cache_dir(tmp_path, synthetic, synthetic_pilot, synthetic_setup):
    """A freshly saved cache of the synthetic pilot at rank 3, key ``key-1``."""
    save_pilot_cache(tmp_path, synthetic, synthetic_pilot, synthetic_setup, "key-1")
    return tmp_path


def _load_both(cache_dir, hierarchy, key="key-1"):
    return load_pilot_cache(cache_dir, hierarchy, key), load_setup(cache_dir, hierarchy, key)


def _edit_meta(cache_dir, edit):
    meta = json.loads((cache_dir / "meta.json").read_text())
    edit(meta)
    (cache_dir / "meta.json").write_text(json.dumps(meta))


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _tree_digest(root):
    """Single digest over every file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# a small diffusion model; its kept arrays are the midpoint modes of 3 levels
DIFFUSION = {"grids": (7, 15, 31), "n_modes": 4, "kl_grid_n": 65}
MODE_FILES = [f"model_mid_modes{ell}.npy" for ell in range(3)]


def diffusion_config(out_dir):
    return {
        "schema": 1,
        "model": {"name": "diffusion_1d", **DIFFUSION},
        "epsilon": [0.01],
        "methods": ["mlmc"],
        "rank": 2,
        "n_pilot": 20,
        "master_seed": 5,
        "out_dir": str(out_dir),
    }


@pytest.fixture(scope="module")
def diffusion_out(tmp_path_factory):
    """The output directory of one diffusion pilot, run by the CLI."""
    root = tmp_path_factory.mktemp("diffusion")
    path = root / "config.json"
    path.write_text(json.dumps(diffusion_config(root / "out")))
    assert main(["pilot", str(path)]) == 0
    return root / "out"


def cache_files(n_levels, basis_levels, kept=()):
    """The sorted file names of a cache whose model keeps the
    arrays ``kept`` (file names)."""
    names = [f"level{ell}_qoi.npy" for ell in range(n_levels)] + ["meta.json"] + list(kept)
    for ell in basis_levels:
        names += [
            f"level{ell}_{kind}.npy"
            for kind in ("coarse_basis", "fine_basis", "selected", "z")
        ]
    return sorted(names)


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_sha_is_order_insensitive(self):
        assert config_sha({"x": 1, "y": 2}) == config_sha({"y": 2, "x": 1})

    def test_sha_changes_with_values(self):
        assert config_sha({"x": 1}) != config_sha({"x": 2})


class TestPilotCache:
    def test_roundtrip_bitwise(self, cache_dir, synthetic, synthetic_pilot):
        loaded = load_pilot_cache(cache_dir, synthetic, "key-1")
        assert loaded.master_seed == synthetic_pilot.master_seed
        assert loaded.n_pilot == synthetic_pilot.n_pilot
        for orig, back in zip(synthetic_pilot.levels, loaded.levels):
            assert np.array_equal(orig.y, back.y)
            assert np.array_equal(orig.qoi, back.qoi)
            # the snapshots stay with the pilot command
            assert back.q is None
        for orig, back in zip(synthetic_pilot.stats, loaded.stats):
            assert back.mean_y == orig.mean_y
            assert back.var_y == orig.var_y
            assert back.mean_q == orig.mean_q
            assert back.var_q == orig.var_q
            assert back.cost_fine == orig.cost_fine
            assert back.cost_coarse == orig.cost_coarse

    def test_resave_is_byte_identical(
        self, cache_dir, synthetic, synthetic_pilot, synthetic_setup
    ):
        assert sorted(p.name for p in cache_dir.iterdir()) == cache_files(3, (1, 2))
        first = _tree_digest(cache_dir)
        save_pilot_cache(cache_dir, synthetic, synthetic_pilot, synthetic_setup, "key-1")
        assert _tree_digest(cache_dir) == first
        assert not list(cache_dir.glob("*.tmp"))

    def test_key_mismatch_rejected(self, cache_dir, synthetic):
        for load in (load_pilot_cache, load_setup):
            with pytest.raises(DataError, match="different configuration"):
                load(cache_dir, synthetic, "key-2")

    def test_missing_cache_rejected(self, tmp_path, synthetic):
        with pytest.raises(DataError, match="no pilot cache"):
            load_pilot_cache(tmp_path / "nope", synthetic, "key-1")

    def test_level_count_mismatch_rejected(self, cache_dir, synthetic):
        subset = LevelSubset(synthetic, [0, 1])
        for load in (load_pilot_cache, load_setup):
            with pytest.raises(DataError, match="levels"):
                load(cache_dir, subset, "key-1")

    def test_schema_mismatch_rejected(self, cache_dir, synthetic):
        _edit_meta(cache_dir, lambda meta: meta.update(schema=99))
        with pytest.raises(DataError, match="schema"):
            load_pilot_cache(cache_dir, synthetic, "key-1")

    @pytest.mark.parametrize("text", ['{"schema": 2', "", "[2]"])
    def test_malformed_meta_rejected(self, cache_dir, synthetic, text):
        (cache_dir / "meta.json").write_text(text)
        with pytest.raises(DataError, match="re-run the pilot"):
            load_pilot_cache(cache_dir, synthetic, "key-1")

    @pytest.mark.parametrize(
        "key", ["pilot_key", "n_levels", "n_pilot", "master_seed", "levels"]
    )
    def test_missing_meta_key_rejected(self, cache_dir, synthetic, key):
        _edit_meta(cache_dir, lambda meta: meta.pop(key))
        with pytest.raises(DataError, match=f"lacks {key}: re-run the pilot"):
            load_pilot_cache(cache_dir, synthetic, "key-1")

    @pytest.mark.parametrize(
        "key, value",
        [("n_pilot", "abc"), ("master_seed", None), ("master_seed", "123"), ("n_levels", 3.0)],
    )
    def test_malformed_meta_value_rejected(self, cache_dir, synthetic, key, value):
        _edit_meta(cache_dir, lambda meta: meta.update({key: value}))
        with pytest.raises(DataError, match=f"malformed {key}: re-run the pilot"):
            load_pilot_cache(cache_dir, synthetic, "key-1")

    @pytest.mark.parametrize(
        "mangle",
        [lambda b: b[: len(b) // 2], lambda b: b[:20], lambda b: b"", lambda b: b"garbage" * 20],
        ids=["truncated_data", "truncated_header", "empty", "garbage"],
    )
    def test_unreadable_array_rejected(self, cache_dir, synthetic, mangle):
        for name in ("level1_qoi.npy", "level1_fine_basis.npy", "level2_selected.npy"):
            path = cache_dir / name
            intact = path.read_bytes()
            path.write_bytes(mangle(intact))
            with pytest.raises(DataError, match="not a readable array.*re-run the pilot"):
                _load_both(cache_dir, synthetic)
            path.write_bytes(intact)

    @pytest.mark.parametrize(
        "name", ["level0_qoi.npy", "level1_qoi.npy", "level1_z.npy", "level2_z.npy"]
    )
    def test_short_sample_axis_rejected(self, cache_dir, synthetic, name):
        np.save(cache_dir / name, np.load(cache_dir / name)[:-1])
        with pytest.raises(DataError, match="shape"):
            _load_both(cache_dir, synthetic)

    @pytest.mark.parametrize(
        "name", ["level1_fine_basis.npy", "level1_coarse_basis.npy", "level2_selected.npy"]
    )
    def test_rank_axis_mismatch_rejected(self, cache_dir, synthetic, name):
        """A basis with a column fewer than the level's rank in meta.json."""
        a = np.load(cache_dir / name)
        np.save(cache_dir / name, a[..., :-1])
        with pytest.raises(DataError, match="shape"):
            load_setup(cache_dir, synthetic, "key-1")

    def test_output_dim_mismatch_rejected(self, cache_dir, synthetic, synthetic_setup):
        np.save(cache_dir / "level1_fine_basis.npy", synthetic_setup.bases[2].fine_basis)
        with pytest.raises(DataError, match="shape"):
            load_setup(cache_dir, synthetic, "key-1")

    @pytest.mark.parametrize(
        "name, dtype",
        [
            ("level1_fine_basis.npy", np.float32),
            ("level0_qoi.npy", np.int64),
            ("level1_selected.npy", np.int32),
            ("level2_selected.npy", np.float64),
        ],
    )
    def test_wrong_dtype_rejected(self, cache_dir, synthetic, name, dtype):
        """An array of the right shape but another dtype would load as data
        the pilot never produced."""
        expected = "int64" if name.endswith("_selected.npy") else "float64"
        np.save(cache_dir / name, np.load(cache_dir / name).astype(dtype))
        with pytest.raises(DataError, match=f"expected {expected} of shape"):
            _load_both(cache_dir, synthetic)

    @pytest.mark.parametrize(
        "indices",
        [lambda s: s[::-1], lambda s: np.full_like(s, s[0]), lambda s: s - s[0] - 1,
         lambda s: s - s[-1] + 40],
        ids=["decreasing", "repeated", "negative", "beyond_pilot"],
    )
    def test_bad_selected_indices_rejected(self, cache_dir, synthetic, indices):
        path = cache_dir / "level1_selected.npy"
        np.save(path, indices(np.load(path)))
        with pytest.raises(DataError, match=r"strictly increasing pilot indices in \[0, 40\)"):
            load_setup(cache_dir, synthetic, "key-1")

    @pytest.mark.parametrize(
        "ell, key, value, named",
        [
            (1, "rho2", float("nan"), "levels[1].rho2"),
            (2, "theta", float("inf"), "levels[2].theta"),
            (1, "multiplier", 1, "levels[1].multiplier"),
            (2, "rho2", "0.5", "levels[2].rho2"),
            (1, "rank", 3.0, "levels[1].rank"),
            (1, "rank", True, "levels[1].rank"),
            (0, "rank", 3, "levels[0].rank"),
            (1, "rank", -1, "levels[1].rank"),
            (1, "rho2", 1.5, "levels[1].rho2"),
            (2, "multiplier", -1.0, "levels[2].multiplier"),
            (0, "multiplier", 2.0, "levels[0].multiplier"),
            (1, "extra", 0.0, "levels[1]"),
        ],
    )
    def test_malformed_level_record_rejected(self, cache_dir, synthetic, ell, key, value, named):
        """Every per-level scalar must be a finite JSON number of its exact
        type and range; a level without a basis holds no control variate."""
        _edit_meta(cache_dir, lambda meta: meta["levels"][ell].update({key: value}))
        with pytest.raises(DataError, match=f"malformed {re.escape(named)}"):
            load_pilot_cache(cache_dir, synthetic, "key-1")

    @pytest.mark.parametrize("levels", [None, [], "x"], ids=["null", "short", "string"])
    def test_malformed_level_list_rejected(self, cache_dir, synthetic, levels):
        _edit_meta(cache_dir, lambda meta: meta.update(levels=levels))
        with pytest.raises(DataError, match="malformed levels: re-run the pilot"):
            load_setup(cache_dir, synthetic, "key-1")

    @pytest.mark.parametrize(
        "mangle, message",
        [
            (lambda p: p.unlink(), "cache file missing"),
            (lambda p: np.save(p, np.load(p).astype(np.float32)), "expected float64"),
            (
                lambda p: np.save(p, np.load(p.with_name("model_mid_modes2.npy"))),
                r"of shape \(32, 4\), expected float64 of shape \(16, 4\)",
            ),
            (
                lambda p: np.save(p, np.load(p)[:, :-1]),
                r"of shape \(16, 3\), expected float64 of shape \(16, 4\)",
            ),
            (lambda p: _set_entry(p, (3, 1), np.nan), "non-finite values"),
            (lambda p: _set_entry(p, (0, 0), np.inf), "non-finite values"),
            (lambda p: _set_entry(p, (15, 3), -np.inf), "non-finite values"),
        ],
        ids=["missing", "float32", "wrong_m", "wrong_n_modes", "nan", "inf", "minus_inf"],
    )
    def test_bad_model_array_exits_2(self, tmp_path, capsys, diffusion_out, mangle, message):
        """A model array that is missing or holds anything but the pilot's
        finite float64 modes of the level's shape stops estimate before any
        solve."""
        out = tmp_path / "out"
        shutil.copytree(diffusion_out, out)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(diffusion_config(out)))
        mangle(out / "cache" / "model_mid_modes1.npy")
        capsys.readouterr()
        assert main(["estimate", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert "re-run the pilot command" in err
        assert not list(out.glob("report_*"))


def _set_entry(path, index, value):
    a = np.load(path)
    a[index] = value
    np.save(path, a)


TERMINATIONS = [{"rank": 3}, {"tol": 1e-6}, {"tol": 20.0}]


class TestLoadSetup:
    def test_matching_cache_accepted(self, cache_dir, synthetic, synthetic_setup):
        again = load_setup(cache_dir, synthetic, "key-1")
        assert [c.rho2 for c in again.configs] == [c.rho2 for c in synthetic_setup.configs]

    def test_loaded_pilot_builds_no_basis(self, cache_dir, synthetic):
        """A loaded pilot has no snapshots, so only the stored setup serves it."""
        loaded = load_pilot_cache(cache_dir, synthetic, "key-1")
        with pytest.raises(DataError, match="no output snapshots"):
            prepare_control_variates(synthetic, loaded, rank=3)

    def test_loaded_solver_reproduces_z(
        self, cache_dir, synthetic, synthetic_pilot, synthetic_setup
    ):
        back = load_setup(cache_dir, synthetic, "key-1")
        coarse = synthetic_pilot.levels[0]
        z_orig = sample_z(synthetic, synthetic_setup.bases[1], coarse.q, coarse.qoi)
        z_back = sample_z(synthetic, back.bases[1], coarse.q, coarse.qoi)
        assert np.array_equal(z_orig, z_back)

    @pytest.mark.parametrize("termination", TERMINATIONS, ids=["rank", "tol", "tol_rank0"])
    def test_rebuilt_setup_is_bitwise_live(self, tmp_path, synthetic, synthetic_pilot, termination):
        """The setup rebuilt from the cache is the one the pilot derived, bit
        for bit, over every field the estimators read."""
        live = prepare_control_variates(synthetic, synthetic_pilot, **termination)
        ranks = [c.rank for c in live.configs]
        if termination.get("tol") == 20.0:
            # the premise: level 1 finds no basis, level 2 does
            assert ranks[1] == 0 and ranks[2] > 0
        save_pilot_cache(tmp_path, synthetic, synthetic_pilot, live, "key-1")
        pilot, back = _load_both(tmp_path, synthetic)
        assert sorted(p.name for p in tmp_path.iterdir()) == cache_files(
            3, [ell for ell, r in enumerate(ranks) if r]
        )

        for c_live, c_back in zip(live.configs, back.configs, strict=True):
            assert (c_back.level, c_back.rank) == (c_live.level, c_live.rank)
            assert type(c_back.rank) is int
            for name in ("rho2", "multiplier", "theta"):
                assert _same_bits(getattr(c_back, name), getattr(c_live, name)), name
        for b_live, b_back in zip(live.bases, back.bases, strict=True):
            assert (b_back is None) == (b_live is None)
            if b_live is None:
                continue
            assert b_back.level == b_live.level
            assert b_back.idf is None
            assert _same_bits(b_back.selected_pilot_indices, b_live.selected_pilot_indices)
            assert _same_bits(b_back.fine_basis, b_live.fine_basis)
            assert _same_bits(b_back.solver.a, b_live.solver.a)
            assert _same_bits(b_back.solver._pinv, b_live.solver._pinv)
        for z_live, z_back in zip(live.pilot_z, back.pilot_z, strict=True):
            assert (z_back is None) == (z_live is None)
            if z_live is not None:
                assert _same_bits(z_back, z_live)

        for l_live, l_back in zip(synthetic_pilot.levels, pilot.levels, strict=True):
            assert _same_bits(l_back.qoi, l_live.qoi)
            assert _same_bits(l_back.y, l_live.y)
        assert pilot.stats == synthetic_pilot.stats


class TestModelArrays:
    @pytest.mark.parametrize(
        "qoi, levels",
        [("integral_of_u", None), ("flux_at_left", None), ("integral_of_u", [0, 2])],
        ids=["integral_of_u", "flux_at_left", "subset"],
    )
    def test_rebuilt_modes_are_bitwise_live(self, tmp_path, monkeypatch, qoi, levels):
        """The midpoint modes a model adopts from the cache are the ones the
        pilot's model formed, bit for bit, and the model then solves as the
        live one does without solving the KL eigenproblem."""

        def model():
            h = Diffusion1D(qoi=qoi, **DIFFUSION)
            return h if levels is None else LevelSubset(h, levels)

        def modes(h):
            return (h if levels is None else h._parent)._mid_modes

        live = model()
        pilot = pilot_mlmc(live, 20, 5)
        setup = prepare_control_variates(live, pilot, rank=2)
        save_pilot_cache(tmp_path, live, pilot, setup, "key-1")
        assert sorted(p.name for p in tmp_path.iterdir()) == cache_files(
            live.n_levels, range(1, live.n_levels), MODE_FILES
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("the KL modes were formed")

        monkeypatch.setattr(models, "kl_decompose", forbidden)
        back = model()
        load_pilot_cache(tmp_path, back, "key-1")
        for m_live, m_back in zip(modes(live), modes(back), strict=True):
            assert _same_bits(m_back, m_live)
            assert m_back.flags.c_contiguous and m_live.flags.c_contiguous
        xi = np.random.default_rng(6).standard_normal((7, live.input_dim))
        for level in range(live.n_levels):
            a, b = live.evaluate(level, xi), back.evaluate(level, xi)
            assert _same_bits(b.q, a.q)
            assert _same_bits(b.qoi, a.qoi)

    def test_key_mismatch_rejected(self, tmp_path, diffusion_out):
        h = Diffusion1D(**DIFFUSION)
        with pytest.raises(DataError, match="different configuration"):
            load_pilot_cache(diffusion_out / "cache", h, "key-2")
