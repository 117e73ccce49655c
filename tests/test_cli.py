"""Tests for the configuration-driven command line driver."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mlcv import (
    ConfigError,
    LevelStats,
    LevelSubset,
    SyntheticLowRank,
    allocate_mlcv,
    allocate_mlmc,
    fit_rates,
    pilot_mlmc,
    prepare_control_variates,
    run_mc,
    run_mlcv,
    run_mlmc,
)
from mlcv import cli
from mlcv.cache import CACHE_SCHEMA
from mlcv.cli import build_hierarchy, main, normalize_config


def base_config(out_dir, **overrides):
    cfg = {
        "schema": 1,
        "model": {
            "name": "synthetic_low_rank",
            "r_true": 3,
            "m0": 8,
            "refine": 2,
            "num_levels": 3,
            "input_dim": 4,
            "delta": 1e-3,
        },
        "epsilon": [0.1, 0.05],
        "methods": ["mc", "mlmc", "mlcv"],
        "rank": 3,
        "n_pilot": 30,
        "master_seed": 11,
        "out_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(out_dir, method, eps_tag):
    return json.loads((out_dir / f"report_{method}_{eps_tag}.json").read_text())


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# master_seed=")
    reader = csv.reader(lines[1:])
    header = next(reader)
    return header, list(reader)


def live_pilot(config_path):
    """The pilot of a config file, run in process, snapshots included."""
    cfg = normalize_config(json.loads(Path(config_path).read_text()))
    return pilot_mlmc(build_hierarchy(cfg), cfg["n_pilot"], cfg["master_seed"])


# the cache of ``base_config``: rank 3 gives levels 1 and 2 a basis
BASE_CACHE_FILES = sorted(
    [f"level{ell}_qoi.npy" for ell in range(3)]
    + [
        f"level{ell}_{kind}.npy"
        for ell in (1, 2)
        for kind in ("coarse_basis", "fine_basis", "selected", "z")
    ]
    + ["meta.json"]
)

# a small diffusion model; its cache adds the midpoint modes of 3 levels
DIFFUSION_MODEL = {"name": "diffusion_1d", "grids": [7, 15, 31], "n_modes": 4, "kl_grid_n": 65}
DIFFUSION_CACHE_FILES = sorted(
    BASE_CACHE_FILES + [f"model_mid_modes{ell}.npy" for ell in range(3)]
)


def diffusion_fields(**fields):
    """A config mutation that sets the small diffusion model with ``fields``."""
    return lambda cfg: cfg.update(model={**DIFFUSION_MODEL, **fields})


def blas_name():
    """The name of the BLAS library numpy was built with, or "unknown"."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def tree_hashes(root):
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestNormalizeConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = normalize_config(base_config(tmp_path))
        assert cfg["s2"] == 10.0
        assert cfg["cost_mode"] == "declared"
        assert cfg["threads"] == 1
        assert cfg["levels"] is None
        assert cfg["id_tol"] is None

    def test_methods_default_to_all(self, tmp_path):
        raw = base_config(tmp_path)
        del raw["methods"]
        assert normalize_config(raw)["methods"] == ["mc", "mlmc", "mlcv"]

    @pytest.mark.parametrize(
        "mutate, path_fragment",
        [
            (lambda c: c.update(bogus=1), "bogus"),
            (lambda c: c.update(schema=2), "schema"),
            (lambda c: c.pop("model"), "model"),
            (lambda c: c["model"].update(name="nope"), "model.name"),
            (lambda c: c["model"].update(wrong=1), "model.wrong"),
            (lambda c: c["model"].update(m0="eight"), "model.m0"),
            (diffusion_fields(sigma2="0.5"), "model.sigma2: expected number"),
            (diffusion_fields(grids=7), "model.grids: expected a non-empty list"),
            (diffusion_fields(n_modes=4.0), "model.n_modes: expected integer"),
            (diffusion_fields(kernel=1), "model.kernel: expected string"),
            (
                diffusion_fields(constant_coefficient=True),
                "model.constant_coefficient: unknown parameter",
            ),
            (lambda c: c.update(levels=[]), "levels"),
            (lambda c: c.update(levels=[1, 1]), "levels"),
            (lambda c: c.update(levels=[-1, 0]), "levels"),
            (lambda c: c.update(epsilon=[]), "epsilon"),
            (lambda c: c.update(epsilon=[0.1, -0.5]), "epsilon[1]"),
            (lambda c: c.update(epsilon=["small"]), "epsilon[0]"),
            (lambda c: c.update(epsilon=[0.1, 0.1]), "epsilon[1]: 0.1 shares"),
            (lambda c: c.update(epsilon=[0.05, 0.1, 0.1000001]), "epsilon[2]"),
            (lambda c: c.update(methods=["mcmc"]), "methods[0]"),
            (lambda c: c.update(methods=["mc", "mc"]), "methods"),
            (lambda c: c.update(rank=None), "rank"),
            (lambda c: c.update(id_tol=1e-6), "rank"),
            (lambda c: c.update(rank=0), "rank"),
            (lambda c: c.update(rank=[3, 0]), "rank"),
            (lambda c: c.update(s2=1.0), "s2"),
            (lambda c: c.update(n_pilot=1), "n_pilot"),
            (lambda c: c.pop("master_seed"), "master_seed"),
            (lambda c: c.update(master_seed=-1), "master_seed"),
            (lambda c: c.update(master_seed=True), "master_seed"),
            (lambda c: c.update(cost_mode="guessed"), "cost_mode"),
            (lambda c: c.update(cost_mode="measured"), "cost_mode: expected 'declared'"),
            (lambda c: c.update(out_dir=""), "out_dir"),
            (lambda c: c.update(threads=0), "threads"),
        ],
    )
    def test_rejects_bad_fields(self, tmp_path, mutate, path_fragment):
        raw = base_config(tmp_path)
        mutate(raw)
        with pytest.raises(ConfigError, match=path_fragment.replace("[", r"\[")):
            normalize_config(raw)

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="root"):
            normalize_config([1, 2])

    def test_id_tol_mode(self, tmp_path):
        raw = base_config(tmp_path)
        del raw["rank"]
        raw["id_tol"] = 1e-8
        cfg = normalize_config(raw)
        assert cfg["rank"] is None
        assert cfg["id_tol"] == 1e-8

    @pytest.mark.parametrize("name", sorted(cli._MODELS))
    def test_every_model_parameter_has_a_typed_default(self, name):
        """A model's config fields are its constructor's parameters, checked by
        the type of each default, so every parameter needs a default of a type
        that rule maps: an integer, a float, a string or a tuple of integers."""
        params = inspect.signature(cli._MODELS[name]).parameters
        assert params
        for key, param in params.items():
            default = param.default
            assert type(default) in (int, float, str, tuple), f"{name}.{key}: {default!r}"
            if type(default) is tuple:
                assert default and all(type(v) is int for v in default), f"{name}.{key}"


class TestBuildHierarchy:
    def test_synthetic(self, tmp_path):
        cfg = normalize_config(base_config(tmp_path))
        h = build_hierarchy(cfg)
        assert isinstance(h, SyntheticLowRank)
        assert h.n_levels == 3
        assert h.r_true == 3

    def test_level_subset(self, tmp_path):
        cfg = normalize_config(base_config(tmp_path, levels=[0, 2]))
        h = build_hierarchy(cfg)
        assert isinstance(h, LevelSubset)
        assert h.n_levels == 2

    def test_subset_out_of_range(self, tmp_path):
        cfg = normalize_config(base_config(tmp_path, levels=[0, 5]))
        with pytest.raises(ConfigError, match="levels"):
            build_hierarchy(cfg)

    def test_rank_list_follows_the_levels(self, tmp_path):
        """A rank list needs one entry per correction level of the hierarchy
        as built, level subset included."""
        cfg = normalize_config(base_config(tmp_path, levels=[0, 2], rank=[3]))
        assert build_hierarchy(cfg).n_levels == 2
        cfg = normalize_config(base_config(tmp_path, levels=[0, 2], rank=[3, 3]))
        with pytest.raises(ConfigError, match=r"rank: need one rank per correction level \(1\)"):
            build_hierarchy(cfg)

    def test_diffusion(self, tmp_path):
        cfg = normalize_config(
            base_config(
                tmp_path,
                model={
                    "name": "diffusion_1d",
                    "grids": [7, 15],
                    "n_modes": 2,
                    "kl_grid_n": 33,
                },
            )
        )
        h = build_hierarchy(cfg)
        assert h.n_levels == 2


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["pilot", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["pilot", str(path)]) == 2

    def test_config_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes('{"schema": 1}'.encode("utf-16"))
        assert path.read_bytes()[:2] == b"\xff\xfe"
        assert main(["pilot", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config file is not valid UTF-8 JSON")
        assert "Traceback" not in err

    def test_invalid_config(self, tmp_path):
        path = write_config(tmp_path, {"schema": 1})
        assert main(["pilot", path]) == 2

    def test_negative_coeff_seed(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["model"]["coeff_seed"] = -1
        assert main(["pilot", write_config(tmp_path, cfg)]) == 2
        assert "coeff_seed must be non-negative, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e-100, 1e160, 1e300])
    def test_extreme_epsilon(self, tmp_path, capsys, eps):
        cfg = base_config(tmp_path / "out", epsilon=[eps])
        assert main(["pilot", write_config(tmp_path, cfg)]) == 2
        assert f"epsilon {eps} is out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda c: c.update(epsilon=[math.nan]), "epsilon[0]: expected a finite number"),
            (lambda c: c.update(epsilon=[0.1, math.inf]), "epsilon[1]: expected a finite number"),
            (lambda c: c.update(epsilon=[1e200]), "epsilon[0]: epsilon 1e+200 is out of range"),
            (lambda c: c.update(epsilon=[1e-200]), "epsilon[0]: epsilon 1e-200 is out of range"),
            (lambda c: c["model"].update(delta=math.nan), "model.delta: expected a finite"),
            (lambda c: c.update(s2=10**400), "s2: expected a finite number"),
        ],
        ids=["nan", "inf", "square_overflows", "square_underflows", "model_nan", "huge_int"],
    )
    def test_bad_number_fails_before_any_file(self, tmp_path, capsys, mutate, message):
        out = tmp_path / "out"
        cfg = base_config(out)
        mutate(cfg)
        assert main(["pilot", write_config(tmp_path, cfg)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "model",
        [
            {"name": "synthetic_low_rank", "num_levels": 60},
            {**DIFFUSION_MODEL, "kl_grid_n": 10**6},
        ],
        ids=["num_levels", "kl_grid_n"],
    )
    def test_oversized_model_exits_2_before_allocating(self, tmp_path, capsys, model):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, model=model))
        tracemalloc.start()
        try:
            assert main(["pilot", path]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert "model too large" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_override_beyond_64_bits(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["pilot", path, "--seed", str(2**64)]) == 2
        assert "master_seed: must lie in [0, 2**64)" in capsys.readouterr().err
        assert not out.exists()

    def test_cache_of_wrong_dtype(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["pilot", path]) == 0
        basis = out / "cache" / "level1_fine_basis.npy"
        np.save(basis, np.load(basis).astype(np.float32))
        assert main(["estimate", path, "--method", "mlmc"]) == 2
        assert "expected float64 of shape" in capsys.readouterr().err
        assert not list(out.glob("report_*"))

    def test_cache_of_wrong_index_dtype(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["pilot", path]) == 0
        selected = out / "cache" / "level2_selected.npy"
        np.save(selected, np.load(selected).astype(np.int32))
        capsys.readouterr()
        assert main(["compare", path]) == 2
        assert "expected int64 of shape" in capsys.readouterr().err
        assert not (out / "compare.csv").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"rank": [3]}, "config field rank: need one rank per correction level (2), got 1"),
            ({"rank": 9}, "rank must lie in [1, 8], got 9"),
            ({"epsilon": [0.1, 1e-100]}, "config field epsilon[1]: epsilon 1e-100 is out of range"),
        ],
        ids=["rank_list_length", "rank_above_rows", "plan_above_2_53"],
    )
    def test_pilot_failure_writes_nothing(self, tmp_path, capsys, overrides, message):
        """Every check that can stop the pilot runs before out_dir is made."""
        out = tmp_path / "out"
        assert main(["pilot", write_config(tmp_path, base_config(out, **overrides))]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_estimate_before_pilot(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["estimate", path]) == 2

    def test_compare_before_pilot(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["compare", path]) == 2

    def test_seed_override_invalidates_cache(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["pilot", path]) == 0
        assert main(["estimate", path, "--seed", "12"]) == 2

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_out_dir_blocked_by_file(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        out = blocker / "out" if below else blocker
        assert main(["pilot", write_config(tmp_path, base_config(out))]) == 2
        err = capsys.readouterr().err
        assert "out_dir" in err and str(out) in err
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"

    def test_cache_dir_blocked_by_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "cache").write_text("not a directory\n")
        assert main(["pilot", write_config(tmp_path, base_config(out))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field out_dir:")
        assert str(out / "cache") in err
        assert "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == ["cache"]
        assert (out / "cache").read_text() == "not a directory\n"


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("study")
    out = tmp / "out"
    path = write_config(tmp, base_config(out))
    assert main(["pilot", path]) == 0
    assert main(["estimate", path]) == 0
    assert main(["compare", path]) == 0
    return path, out


class TestEndToEnd:
    def test_artifacts_exist(self, study):
        _, out = study
        for name in ("pilot.json", "compare.csv"):
            assert (out / name).is_file()
        for method in ("mc", "mlmc", "mlcv"):
            for tag in ("0.1", "0.05"):
                assert (out / f"report_{method}_{tag}.json").is_file()
                assert (out / f"levels_{method}_{tag}.csv").is_file()
        assert (out / "cache" / "meta.json").is_file()

    def test_pilot_report_contents(self, study):
        _, out = study
        pilot = json.loads((out / "pilot.json").read_text())
        assert pilot["rates"]["available"]
        assert pilot["bias_check"]["available"]
        levels = pilot["levels"]
        assert [row["level"] for row in levels] == [0, 1, 2]
        assert not levels[0]["cv_enabled"]
        assert levels[1]["cv_enabled"] and levels[1]["rho2"] >= 0.99
        assert len(pilot["plans"]) == 2
        for plan in pilot["plans"]:
            assert plan["cost_mlcv"] == pytest.approx(
                plan["cost_mlmc"] * plan["cost_ratio"], rel=1e-12
            )

    def test_report_reconciliation(self, study):
        _, out = study
        for method in ("mc", "mlmc", "mlcv"):
            for tag in ("0.1", "0.05"):
                report = read_report(out, method, tag)
                rows = report["levels"]
                assert sum(r["cost"] for r in rows) == pytest.approx(
                    report["total_cost"], rel=1e-12
                )
                assert sum(r["cost_share"] for r in rows) == pytest.approx(
                    1.0, rel=1e-12
                )
                if method in ("mlmc", "mlcv"):
                    assert sum(r["mean_y"] for r in rows) == pytest.approx(
                        report["estimate"], rel=1e-9, abs=1e-12
                    )

    def test_csv_matches_json(self, study):
        """Each level CSV holds its report's ``levels`` rows, column for
        column, every cell equal to its JSON value (the report sorts its
        keys, so columns are matched by name)."""
        _, out = study
        paths = sorted(out.glob("levels_*.csv"))
        assert len(paths) == 6
        for path in paths:
            report = read_report(out, *path.stem.split("_", 2)[1:])
            header, rows = read_csv_rows(path)
            assert header[:2] == ["level", "dofs"]
            assert sorted(header) == list(report["levels"][0])
            assert len(rows) == len(report["levels"])
            for row, entry in zip(rows, report["levels"]):
                for name, cell in zip(header, row, strict=True):
                    value = entry[name]
                    assert type(value) in (int, float)
                    assert type(value)(cell) == value

    def test_compare_table(self, study):
        _, out = study
        header, rows = read_csv_rows(out / "compare.csv")
        assert header == ["epsilon", "levels", "cost_mc", "cost_mlmc", "cost_mlcv", "ratio"]
        eps = [float(r[0]) for r in rows]
        assert eps == sorted(eps, reverse=True)
        plans = {
            plan["epsilon"]: plan
            for plan in json.loads((out / "pilot.json").read_text())["plans"]
        }
        assert len(rows) == len(plans)
        for row in rows:
            assert int(row[1]) == 3
            assert float(row[5]) == pytest.approx(
                float(row[4]) / float(row[3]), rel=1e-12
            )
            plan = plans[float(row[0])]
            keys = ("cost_mc_reference", "cost_mlmc", "cost_mlcv", "cost_ratio")
            assert [float(v) for v in row[2:]] == [plan[k] for k in keys]

    def test_pilot_rows_hold_the_pilot_records(self, study):
        """Every ``LevelStats`` field is in its ``levels`` row with the live
        pilot's value, and ``rates`` is ``available`` plus the ``RateFit``."""
        path, out = study
        report = json.loads((out / "pilot.json").read_text())
        stats = live_pilot(path).stats
        assert len(report["levels"]) == len(stats)
        for row, st in zip(report["levels"], stats):
            for field in dataclasses.fields(LevelStats):
                assert row[field.name] == getattr(st, field.name)
        rates = dataclasses.asdict(fit_rates(stats))
        assert report["rates"] == {"available": True, **rates}

    def test_mc_cost_scales_with_epsilon(self, study):
        _, out = study
        _, rows = read_csv_rows(out / "compare.csv")
        costs = {float(r[0]): float(r[2]) for r in rows}
        assert costs[0.05] / costs[0.1] == pytest.approx(4.0, rel=0.02)

    def test_estimate_matches_library_run(self, study):
        path, out = study
        report = read_report(out, "mlmc", "0.1")
        import mlcv

        h = SyntheticLowRank(
            r_true=3, m0=8, refine=2, num_levels=3, input_dim=4, delta=1e-3
        )
        pilot = mlcv.pilot_mlmc(h, 30, 11)
        plan = mlcv.allocate_mlmc(pilot.stats, 0.1)
        result = mlcv.run_mlmc(h, plan, pilot)
        assert report["estimate"] == result.estimate
        assert report["total_cost"] == result.total_cost


class TestReproducibility:
    def test_reruns_are_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, epsilon=[0.1]))
        for cmd in ("pilot", "estimate", "compare"):
            assert main([cmd, path]) == 0
        first = tree_hashes(out)
        for cmd in ("pilot", "estimate", "compare"):
            assert main([cmd, path]) == 0
        assert tree_hashes(out) == first
        assert len(first) >= 8

    @pytest.mark.skipif(
        "openblas" not in blas_name(),
        reason=f"numpy's BLAS is {blas_name()!r}, not OpenBLAS, so "
        "OPENBLAS_NUM_THREADS sets nothing",
    )
    def test_estimate_and_compare_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """Given one pilot cache, ``estimate`` and ``compare`` write the same
        bytes under one and two OpenBLAS threads, each set in the child
        process's environment only."""
        import mlcv

        out = tmp_path / "out"
        # full 65,536-row batches: plain MC at the finest level, MLMC and MLCV at level 0
        cfg = base_config(out, model=DIFFUSION_MODEL, epsilon=[1e-4, 5e-5], n_pilot=100)
        path = write_config(tmp_path, cfg)
        assert main(["pilot", path]) == 0
        src = str(Path(mlcv.__file__).resolve().parents[1])
        written = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            for command in ("estimate", "compare"):
                proc = subprocess.run(
                    [sys.executable, "-m", "mlcv.cli", command, path],
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
                assert proc.returncode == 0, proc.stderr
            written.append({p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        one, two = written
        assert sorted(one) == sorted(two)
        assert len([p for p in one if p.name.startswith("report_")]) == 6
        for p in one:
            assert one[p] == two[p], p

    def test_seed_changes_artifacts(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        path_a = write_config(tmp_path, base_config(out_a, epsilon=[0.1]), "a.json")
        path_b = write_config(
            tmp_path, base_config(out_b, epsilon=[0.1], master_seed=12), "b.json"
        )
        assert main(["pilot", path_a]) == 0
        assert main(["pilot", path_b]) == 0
        a = json.loads((out_a / "pilot.json").read_text())
        b = json.loads((out_b / "pilot.json").read_text())
        assert a["levels"][0]["mean_y"] != b["levels"][0]["mean_y"]

    def test_out_dir_override(self, tmp_path):
        out = tmp_path / "cfgdir"
        other = tmp_path / "override"
        path = write_config(tmp_path, base_config(out, epsilon=[0.1]))
        assert main(["pilot", path, "--out-dir", str(other)]) == 0
        assert (other / "pilot.json").is_file()
        assert not out.exists()

    def test_interrupted_pilot_leaves_no_usable_cache(self, tmp_path, monkeypatch):
        """A pilot that dies while writing its cache must not leave the new
        study's key over the previous study's arrays."""
        from mlcv import cache

        path = write_config(tmp_path, base_config(tmp_path / "out", methods=["mlmc"]))
        assert main(["pilot", path, "--seed", "7"]) == 0
        save, calls = cache._save_array, []

        def dies_on_second_array(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("interrupted")
            save(*args)

        monkeypatch.setattr(cache, "_save_array", dies_on_second_array)
        with pytest.raises(OSError):
            main(["pilot", path, "--seed", "8"])
        monkeypatch.undo()
        assert calls[0][0].name == "level0_qoi.npy"
        assert main(["estimate", path, "--seed", "8"]) == 2

    def test_pilot_interrupted_at_model_array_leaves_no_usable_cache(
        self, tmp_path, monkeypatch
    ):
        """A pilot that dies while writing the model's arrays, after every
        other array, leaves no loadable cache of either study."""
        from mlcv import cache

        path = write_config(
            tmp_path, base_config(tmp_path / "out", model=DIFFUSION_MODEL, methods=["mlmc"])
        )
        assert main(["pilot", path, "--seed", "7"]) == 0
        save, written = cache._save_array, []

        def dies_on_model_array(target, a):
            if target.name.startswith("model_"):
                raise OSError("interrupted")
            written.append(target.name)
            save(target, a)

        monkeypatch.setattr(cache, "_save_array", dies_on_model_array)
        with pytest.raises(OSError):
            main(["pilot", path, "--seed", "8"])
        monkeypatch.undo()
        assert sorted(written + ["meta.json"]) == BASE_CACHE_FILES
        # the identity file goes last, so no key names the incomplete arrays
        assert not (tmp_path / "out" / "cache" / "meta.json").exists()
        for seed in ("8", "7"):
            assert main(["estimate", path, "--seed", seed]) == 2

    def _old_layout_refused(self, tmp_path, capsys, schema, write_arrays):
        """Replace a fresh cache by an older schema's arrays and key: estimate
        and compare refuse it, and a new pilot leaves only its own files."""
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, methods=["mlmc"]))
        assert main(["pilot", path]) == 0
        cache_dir = out / "cache"
        meta = json.loads((cache_dir / "meta.json").read_text())
        for old in cache_dir.glob("*.npy"):
            old.unlink()
        write_arrays(cache_dir, live_pilot(path))
        del meta["levels"]
        meta["schema"] = schema
        (cache_dir / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        for command in ("estimate", "compare"):
            assert main([command, path]) == 2
            assert (
                f"unsupported cache schema {schema}: re-run the pilot command"
                in capsys.readouterr().err
            )
        assert main(["pilot", path]) == 0
        assert sorted(p.name for p in cache_dir.iterdir()) == BASE_CACHE_FILES
        assert main(["estimate", path]) == 0

    def test_schema_1_cache_needs_new_pilot(self, tmp_path, capsys):
        """A cache in the schema-1 layout (inputs, corrections and coarse
        snapshots stored beside each level's outputs) is refused."""

        def write_arrays(cache_dir, pilot):
            np.save(cache_dir / "xi.npy", np.zeros((pilot.n_pilot, 4)))
            for ell, lv in enumerate(pilot.levels):
                tag = cache_dir / f"level{ell}"
                np.save(f"{tag}_q_fine.npy", lv.q)
                np.save(f"{tag}_qoi_fine.npy", lv.qoi)
                np.save(f"{tag}_y.npy", lv.y)
                if ell:
                    np.save(f"{tag}_q_coarse.npy", pilot.levels[ell - 1].q)
                    np.save(f"{tag}_qoi_coarse.npy", pilot.levels[ell - 1].qoi)

        self._old_layout_refused(tmp_path, capsys, 1, write_arrays)

    def test_schema_2_cache_needs_new_pilot(self, tmp_path, capsys):
        """A cache in the schema-2 layout (each level's output snapshots and
        quantities of interest, no control-variate setup) is refused."""

        def write_arrays(cache_dir, pilot):
            for ell, lv in enumerate(pilot.levels):
                np.save(cache_dir / f"level{ell}_q.npy", lv.q)
                np.save(cache_dir / f"level{ell}_qoi.npy", lv.qoi)

        self._old_layout_refused(tmp_path, capsys, 2, write_arrays)

    def test_schema_3_cache_needs_new_pilot(self, tmp_path, capsys):
        """A cache in the schema-3 layout (the control-variate setup, but
        none of the model's kept arrays) is refused, and a new pilot leaves
        only current-schema files."""
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, model=DIFFUSION_MODEL, methods=["mlmc"]))
        assert main(["pilot", path]) == 0
        cache_dir = out / "cache"
        for kept in cache_dir.glob("model_*.npy"):
            kept.unlink()
        meta_path = cache_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = 3
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        for command in ("estimate", "compare"):
            assert main([command, path]) == 2
            assert (
                "unsupported cache schema 3: re-run the pilot command"
                in capsys.readouterr().err
            )
        assert main(["pilot", path]) == 0
        assert sorted(p.name for p in cache_dir.iterdir()) == DIFFUSION_CACHE_FILES
        assert json.loads(meta_path.read_text())["schema"] == CACHE_SCHEMA
        assert main(["estimate", path]) == 0

    def _current_files_refused(self, tmp_path, capsys, schema, **config):
        """Relabel a fresh cache with an older schema whose files are the
        current ones: estimate and compare refuse it, and a new pilot writes
        the current schema."""
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, methods=["mlmc"], **config))
        assert main(["pilot", path]) == 0
        files = sorted(p.name for p in (out / "cache").iterdir())
        meta_path = out / "cache" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["schema"] = schema
        meta_path.write_text(json.dumps(meta))
        capsys.readouterr()
        for command in ("estimate", "compare"):
            assert main([command, path]) == 2
            assert (
                f"unsupported cache schema {schema}: re-run the pilot command"
                in capsys.readouterr().err
            )
        assert main(["pilot", path]) == 0
        assert sorted(p.name for p in (out / "cache").iterdir()) == files
        assert json.loads(meta_path.read_text())["schema"] == CACHE_SCHEMA
        assert main(["estimate", path]) == 0

    def test_schema_4_cache_needs_new_pilot(self, tmp_path, capsys):
        """A cache in the schema-4 layout (the current files, but pilot
        values drawn from the earlier input streams) is refused."""
        self._current_files_refused(tmp_path, capsys, 4)

    def test_schema_5_cache_needs_new_pilot(self, tmp_path, capsys):
        """A cache in the schema-5 layout (the current files, but pilot
        values solved with the earlier ``Diffusion1D`` coefficient product)
        is refused."""
        self._current_files_refused(tmp_path, capsys, 5, model=DIFFUSION_MODEL)

    def test_schema_6_cache_needs_new_pilot(self, tmp_path, capsys):
        """A cache in the schema-6 layout (the current files, but KL modes
        from the dense eigensolver) is refused."""
        self._current_files_refused(tmp_path, capsys, 6, model=DIFFUSION_MODEL)

    def test_truncated_cache_meta_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, methods=["mlmc"]))
        assert main(["pilot", path]) == 0
        meta = out / "cache" / "meta.json"
        meta.write_text(meta.read_text()[:12])
        capsys.readouterr()
        assert main(["estimate", path]) == 2
        assert "re-run the pilot" in capsys.readouterr().err

    def test_malformed_cache_value_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, methods=["mlmc"]))
        assert main(["pilot", path]) == 0
        meta = out / "cache" / "meta.json"
        meta.write_text(meta.read_text().replace('"n_pilot":30', '"n_pilot":"abc"'))
        capsys.readouterr()
        assert main(["compare", path]) == 2
        assert "re-run the pilot" in capsys.readouterr().err

    def test_threads_override_keeps_cache_valid(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, epsilon=[0.1]))
        assert main(["pilot", path]) == 0
        assert main(["estimate", path, "--threads", "2", "--method", "mlmc"]) == 0


class TestSetupOnDemand:
    """Only the pilot derives anything: it reports the ID residual and
    stores the control-variate setup, which estimate and compare load
    without any basis selection or factorization beyond the least-squares
    operator."""

    @pytest.mark.parametrize(
        "termination", [{"rank": 3}, {"rank": None, "id_tol": 1e-6}], ids=["rank", "tol"]
    )
    def test_only_pilot_computes_id_residual(
        self, tmp_path, monkeypatch, eager_id, termination
    ):
        from mlcv import control_variates, linalg

        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, **termination))
        solve_t = linalg.solve_T
        solves = []

        def counted(*args):
            solves.append(args)
            return solve_t(*args)

        monkeypatch.setattr(linalg, "solve_T", counted)
        assert main(["pilot", path]) == 0
        monkeypatch.undo()
        # the coefficients behind each correction level's residual, formed once
        assert len(solves) == 2

        pilot = live_pilot(path)
        rows = json.loads((out / "pilot.json").read_text())["levels"]
        assert rows[0]["id_residual"] == 0.0
        for row in rows[1:]:
            snapshots = pilot.levels[row["level"] - 1].q
            _, residual = eager_id(
                snapshots, rank=termination["rank"], tol=termination.get("id_tol")
            )
            assert row["id_residual"] == residual

        def forbidden(*args, **kwargs):
            raise AssertionError("estimate/compare derived the control-variate setup")

        monkeypatch.setattr(linalg, "solve_T", forbidden)
        for name in ("coefficients", "residual_norm"):
            monkeypatch.setattr(
                linalg.IDFactorization, name, property(forbidden), raising=False
            )
        for module, name in [
            (linalg, "pivoted_qr"),
            (linalg, "interpolative_decomposition"),
            (control_variates, "interpolative_decomposition"),
            (control_variates, "build_reduced_basis"),
            (control_variates, "prepare_control_variates"),
        ]:
            monkeypatch.setattr(module, name, forbidden)
        assert main(["estimate", path]) == 0
        assert main(["compare", path]) == 0

    def test_compare_forms_no_kl_modes(self, tmp_path, monkeypatch):
        """Building a diffusion model defers its KL eigensolve to the first
        solve, and compare never solves."""
        from mlcv import models

        model = {"name": "diffusion_1d", "grids": [7, 15, 31], "n_modes": 4, "kl_grid_n": 65}
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, model=model, methods=["mlcv"]))
        assert main(["pilot", path]) == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("the KL modes were formed")

        monkeypatch.setattr(models, "kl_decompose", forbidden)
        build_hierarchy(normalize_config(json.loads(Path(path).read_text())))
        assert main(["compare", path]) == 0
        assert (out / "compare.csv").is_file()
        monkeypatch.undo()
        assert main(["estimate", path]) == 0

    def test_estimate_forms_no_kl_modes(self, tmp_path, monkeypatch):
        """Only the pilot solves the KL eigenproblem: every estimator adopts
        the modes from the cache and reproduces a library run on a live
        model."""
        from mlcv import models

        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, model=DIFFUSION_MODEL, epsilon=[0.01]))
        assert main(["pilot", path]) == 0
        assert sorted(p.name for p in (out / "cache").iterdir()) == DIFFUSION_CACHE_FILES

        def forbidden(*args, **kwargs):
            raise AssertionError("estimate solved the KL eigenproblem")

        monkeypatch.setattr(models, "kl_decompose", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        assert main(["estimate", path]) == 0
        monkeypatch.undo()

        cfg = normalize_config(json.loads(Path(path).read_text()))
        live = build_hierarchy(cfg)
        pilot = pilot_mlmc(live, cfg["n_pilot"], cfg["master_seed"])
        setup = prepare_control_variates(
            live, pilot, rank=cfg["rank"], tol=cfg["id_tol"], s2=cfg["s2"]
        )
        results = {
            "mc": run_mc(live, 0.01, pilot),
            "mlmc": run_mlmc(live, allocate_mlmc(pilot.stats, 0.01), pilot),
            "mlcv": run_mlcv(
                live, allocate_mlcv(pilot.stats, setup, 0.01), pilot, setup
            ),
        }
        for method, result in results.items():
            report = read_report(out, method, "0.01")
            assert report["estimate"] == result.estimate
            assert report["total_cost"] == result.total_cost

    def test_estimate_and_compare_import_no_scipy_linalg(self, tmp_path):
        """The package needs numpy alone, so importing the CLI, and running
        pilot, estimate and compare, load no scipy module at all."""
        import mlcv

        path = write_config(tmp_path, base_config(tmp_path / "out", epsilon=[0.1]))
        code = (
            "import sys\n"
            "from mlcv.cli import main\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "print(loaded())\n"
            f"assert main(['pilot', {path!r}]) == 0\n"
            f"assert main(['estimate', {path!r}]) == 0\n"
            f"assert main(['compare', {path!r}]) == 0\n"
            "print(loaded())\n"
        )
        src = str(Path(mlcv.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        printed = proc.stdout.splitlines()
        assert [line for line in printed if line.startswith("[")] == ["[]", "[]"]


class TestMethodSelection:
    def test_single_method_writes_only_its_files(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, epsilon=[0.1]))
        assert main(["pilot", path]) == 0
        assert main(["estimate", path, "--method", "mlmc"]) == 0
        assert (out / "report_mlmc_0.1.json").is_file()
        assert not (out / "report_mc_0.1.json").exists()
        assert not (out / "report_mlcv_0.1.json").exists()

    def test_each_plan_allocated_once(self, tmp_path, monkeypatch):
        from mlcv import control_variates, mlmc

        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["pilot", path]) == 0
        calls = []

        def counted(module, name):
            allocate = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return allocate(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(mlmc, "allocate_mlmc")
        counted(control_variates, "allocate_mlcv")
        assert main(["estimate", path]) == 0
        # one plan per (epsilon, method) for the two tolerances
        assert sorted(calls) == ["allocate_mlcv"] * 2 + ["allocate_mlmc"] * 2

    def test_repeated_method_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out))
        assert main(["pilot", path]) == 0
        assert main(["estimate", path, "--method", "mlmc", "--method", "mlmc"]) == 2
        assert "duplicate entries in ['mlmc', 'mlmc']" in capsys.readouterr().err
        assert not list(out.glob("report_*"))

    def test_two_tolerances_match_each_run_alone(self, tmp_path, capsys):
        """One estimate over both tolerances walks each stream once, so only
        the tighter tolerance (the largest count at every level) is promised
        its lone run's bits; the looser one reduces a slice of the same
        batches and is checked against the library's joint run instead."""
        epsilons = [0.05, 0.1]
        methods = ["mc", "mlmc", "mlcv"]
        cfg = base_config(tmp_path / "both", epsilon=epsilons)
        path = write_config(tmp_path, cfg)
        assert main(["pilot", path]) == 0
        capsys.readouterr()
        assert main(["estimate", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1:3] for line in lines] == [
            [f"method={m}", f"eps={e:.6g}"] for e in epsilons for m in methods
        ]

        norm = normalize_config(cfg)
        hierarchy = build_hierarchy(norm)
        pilot = pilot_mlmc(hierarchy, norm["n_pilot"], norm["master_seed"])
        setup = prepare_control_variates(hierarchy, pilot, rank=norm["rank"], s2=norm["s2"])
        library = {
            "mc": run_mc(hierarchy, epsilons, pilot),
            "mlmc": run_mlmc(
                hierarchy, [allocate_mlmc(pilot.stats, e) for e in epsilons], pilot
            ),
            "mlcv": run_mlcv(
                hierarchy,
                [allocate_mlcv(pilot.stats, setup, e) for e in epsilons],
                pilot,
                setup,
            ),
        }
        run_keys = ("mean_y", "var_y", "n_samples", "n_prime", "zbar")

        for i, eps in enumerate(epsilons):
            out = tmp_path / f"alone_{eps}"
            alone = write_config(
                tmp_path, base_config(out, epsilon=[eps]), name=f"alone_{eps}.json"
            )
            assert main(["pilot", alone]) == 0
            assert main(["estimate", alone]) == 0
            for method in methods:
                joint = read_report(tmp_path / "both", method, f"{eps:.6g}")
                single = read_report(out, method, f"{eps:.6g}")
                for key in ("sampling_error", "total_cost"):
                    assert joint[key] == single[key], (method, eps, key)
                if eps == min(epsilons):
                    for key in ("estimate", "levels"):
                        assert joint[key] == single[key], (method, eps, key)
                    continue
                result = library[method][i]
                assert joint["estimate"] == result.estimate, method
                assert [{k: row[k] for k in run_keys} for row in joint["levels"]] == [
                    dict(zip(run_keys, (m, v, n, c.aux_coarse_evals, z)))
                    for m, v, n, c, z in zip(
                        result.level_estimates,
                        result.sample_variances,
                        result.n_samples,
                        result.eval_counts,
                        result.zbar_values,
                    )
                ], method
                # the pilot- and plan-fixed fields of each level row
                assert [
                    {k: v for k, v in row.items() if k not in run_keys}
                    for row in joint["levels"]
                ] == [
                    {k: v for k, v in row.items() if k not in run_keys}
                    for row in single["levels"]
                ], method

    def test_unknown_method_rejected_by_parser(self, tmp_path):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        with pytest.raises(SystemExit):
            main(["estimate", path, "--method", "quasi"])


class TestSpecialModes:
    def test_non_decaying_corrections_give_null_bias_estimate(self, tmp_path):
        """With the perturbation at full strength the fitted bias rate is
        negative, so no finite extrapolated bias exists: the pilot and every
        report write a null estimate with the warning on."""
        out = tmp_path / "out"
        cfg = base_config(
            out,
            model={"name": "synthetic_low_rank", "delta": 1.0, "num_levels": 4, "coeff_seed": 0},
            n_pilot=10,
            master_seed=0,
            rank=1,
            epsilon=[0.01],
            methods=["mlmc", "mlcv"],
        )
        path = write_config(tmp_path, cfg)
        for command in ("pilot", "estimate", "compare"):
            assert main([command, path]) == 0, command
        pilot = json.loads((out / "pilot.json").read_text())
        assert pilot["rates"]["alpha"] < 0.0
        expected = {
            "available": True,
            "bias_estimate": None,
            "bias_budget": 0.01 / math.sqrt(2.0),
            "bias_warning": True,
        }
        assert pilot["bias_check"] == expected
        for method in ("mlmc", "mlcv"):
            assert read_report(out, method, "0.01")["bias_check"] == expected
        assert '"bias_estimate": null' in (out / "pilot.json").read_text()

    def test_deterministic_model_degenerates_gracefully(
        self, tmp_path, monkeypatch, unit_diffusion
    ):
        monkeypatch.setitem(cli._MODELS, "diffusion_1d", unit_diffusion)
        out = tmp_path / "out"
        cfg = base_config(
            out,
            model={
                "name": "diffusion_1d",
                "grids": [7, 15],
                "n_modes": 2,
                "kl_grid_n": 33,
            },
            epsilon=[0.1],
            methods=["mlmc", "mlcv"],
            rank=2,
            n_pilot=10,
        )
        path = write_config(tmp_path, cfg)
        assert main(["pilot", path]) == 0
        pilot = json.loads((out / "pilot.json").read_text())
        assert not pilot["rates"]["available"]
        assert not pilot["levels"][1]["cv_enabled"]
        assert main(["estimate", path]) == 0
        report = read_report(out, "mlmc", "0.1")
        assert report["sampling_error"] == 0.0

    def test_single_level_subset(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out, levels=[2], epsilon=[0.1], methods=["mc", "mlmc"], n_pilot=20
        )
        path = write_config(tmp_path, cfg)
        assert main(["pilot", path]) == 0
        pilot = json.loads((out / "pilot.json").read_text())
        assert len(pilot["levels"]) == 1
        assert not pilot["rates"]["available"]
        assert main(["estimate", path]) == 0
        mc = read_report(out, "mc", "0.1")
        ml = read_report(out, "mlmc", "0.1")
        assert len(ml["levels"]) == 1
        assert mc["levels"][0]["dofs"] == ml["levels"][0]["dofs"]

    def test_id_tol_study(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(out, epsilon=[0.1], methods=["mlcv"], n_pilot=30)
        del cfg["rank"]
        cfg["id_tol"] = 1e-6
        cfg["model"]["delta"] = 0.0
        path = write_config(tmp_path, cfg)
        assert main(["pilot", path]) == 0
        pilot = json.loads((out / "pilot.json").read_text())
        assert pilot["levels"][1]["rank"] == 3
        assert main(["estimate", path]) == 0
