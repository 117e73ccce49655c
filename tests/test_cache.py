"""Tests for deterministic on-disk persistence of pilots."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from mlcv import (
    DataError,
    LevelSubset,
    canonical_json,
    config_sha,
    load_pilot_cache,
    load_setup,
    pilot_mlmc,
    prepare_control_variates,
    sample_z,
    save_pilot_cache,
)


def _tree_digest(root):
    """Single digest over every file's relative path and bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_sha_is_order_insensitive(self):
        assert config_sha({"x": 1, "y": 2}) == config_sha({"y": 2, "x": 1})

    def test_sha_changes_with_values(self):
        assert config_sha({"x": 1}) != config_sha({"x": 2})


class TestPilotCache:
    def test_roundtrip_bitwise(self, tmp_path, synthetic, synthetic_pilot):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        loaded = load_pilot_cache(tmp_path, synthetic, "key-1")
        assert loaded.master_seed == synthetic_pilot.master_seed
        assert loaded.n_pilot == synthetic_pilot.n_pilot
        for orig, back in zip(synthetic_pilot.levels, loaded.levels):
            assert np.array_equal(orig.y, back.y)
            assert np.array_equal(orig.q, back.q)
            assert np.array_equal(orig.qoi, back.qoi)
        for orig, back in zip(synthetic_pilot.stats, loaded.stats):
            assert back.mean_y == orig.mean_y
            assert back.var_y == orig.var_y
            assert back.mean_q == orig.mean_q
            assert back.var_q == orig.var_q
            assert back.cost_fine == orig.cost_fine
            assert back.cost_coarse == orig.cost_coarse

    def test_resave_is_byte_identical(self, tmp_path, synthetic_pilot):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"level{ell}_{kind}.npy" for ell in range(3) for kind in ("q", "qoi")
        ] + ["meta.json"]
        first = _tree_digest(tmp_path)
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        assert _tree_digest(tmp_path) == first
        assert not list(tmp_path.glob("*.tmp"))

    def test_key_mismatch_rejected(self, tmp_path, synthetic, synthetic_pilot):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        with pytest.raises(DataError, match="different configuration"):
            load_pilot_cache(tmp_path, synthetic, "key-2")

    def test_missing_cache_rejected(self, tmp_path, synthetic):
        with pytest.raises(DataError, match="no pilot cache"):
            load_pilot_cache(tmp_path / "nope", synthetic, "key-1")

    def test_level_count_mismatch_rejected(self, tmp_path, synthetic, synthetic_pilot):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        subset = LevelSubset(synthetic, [0, 1])
        with pytest.raises(DataError, match="levels"):
            load_pilot_cache(tmp_path, subset, "key-1")

    def test_schema_mismatch_rejected(self, tmp_path, synthetic, synthetic_pilot):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["schema"] = 99
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match="schema"):
            load_pilot_cache(tmp_path, synthetic, "key-1")

    @pytest.mark.parametrize("text", ['{"schema": 2', "", "[2]"])
    def test_malformed_meta_rejected(self, tmp_path, synthetic, synthetic_pilot, text):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        (tmp_path / "meta.json").write_text(text)
        with pytest.raises(DataError, match="re-run the pilot"):
            load_pilot_cache(tmp_path, synthetic, "key-1")

    @pytest.mark.parametrize("key", ["pilot_key", "n_levels", "n_pilot", "master_seed"])
    def test_missing_meta_key_rejected(self, tmp_path, synthetic, synthetic_pilot, key):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        meta = json.loads((tmp_path / "meta.json").read_text())
        del meta[key]
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match=f"lacks {key}: re-run the pilot"):
            load_pilot_cache(tmp_path, synthetic, "key-1")

    @pytest.mark.parametrize(
        "key, value",
        [("n_pilot", "abc"), ("master_seed", None), ("master_seed", "123"), ("n_levels", 3.0)],
    )
    def test_malformed_meta_value_rejected(
        self, tmp_path, synthetic, synthetic_pilot, key, value
    ):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta[key] = value
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match=f"malformed {key}: re-run the pilot"):
            load_pilot_cache(tmp_path, synthetic, "key-1")

    @pytest.mark.parametrize(
        "mangle",
        [lambda b: b[: len(b) // 2], lambda b: b[:20], lambda b: b"", lambda b: b"garbage" * 20],
        ids=["truncated_data", "truncated_header", "empty", "garbage"],
    )
    def test_unreadable_array_rejected(self, tmp_path, synthetic, synthetic_pilot, mangle):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        path = tmp_path / "level1_q.npy"
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(DataError, match="not a readable array.*re-run the pilot"):
            load_pilot_cache(tmp_path, synthetic, "key-1")

    @pytest.mark.parametrize(
        "name", ["level0_qoi.npy", "level1_qoi.npy", "level1_q.npy", "level2_q.npy"]
    )
    def test_short_sample_axis_rejected(self, tmp_path, synthetic, synthetic_pilot, name):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        a = np.load(tmp_path / name)
        np.save(tmp_path / name, a[:, :-1] if name.endswith("_q.npy") else a[:-1])
        with pytest.raises(DataError, match="shape"):
            load_pilot_cache(tmp_path, synthetic, "key-1")

    def test_output_dim_mismatch_rejected(self, tmp_path, synthetic, synthetic_pilot):
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        np.save(tmp_path / "level1_q.npy", synthetic_pilot.levels[2].q)
        with pytest.raises(DataError, match="shape"):
            load_pilot_cache(tmp_path, synthetic, "key-1")

    @pytest.mark.parametrize(
        "name, dtype", [("level0_q.npy", np.float32), ("level0_qoi.npy", np.int64)]
    )
    def test_wrong_dtype_rejected(self, tmp_path, synthetic, synthetic_pilot, name, dtype):
        """An array of the right shape but another dtype would load as data
        the pilot never produced."""
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        np.save(tmp_path / name, np.load(tmp_path / name).astype(dtype))
        with pytest.raises(DataError, match="expected float64 of shape"):
            load_pilot_cache(tmp_path, synthetic, "key-1")


class TestLoadSetup:
    def test_matching_cache_accepted(self, tmp_path, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        loaded = load_pilot_cache(tmp_path, synthetic, "key-1")
        again = load_setup(synthetic, loaded, rank=3, s2=10.0)
        assert [c.rho2 for c in again.configs] == [c.rho2 for c in setup.configs]

    def test_loaded_solver_reproduces_z(self, tmp_path, synthetic, synthetic_pilot):
        setup = prepare_control_variates(synthetic, synthetic_pilot, rank=3)
        save_pilot_cache(tmp_path, synthetic_pilot, "key-1")
        loaded = load_pilot_cache(tmp_path, synthetic, "key-1")
        back = load_setup(synthetic, loaded, rank=3, s2=10.0)
        coarse = synthetic_pilot.levels[0]
        z_orig = sample_z(synthetic, setup.bases[1], coarse.q, coarse.qoi)
        z_back = sample_z(synthetic, back.bases[1], coarse.q, coarse.qoi)
        assert np.allclose(z_orig, z_back, rtol=1e-13, atol=1e-15)
