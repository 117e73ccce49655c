"""Tests for the configuration-driven command line driver."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from mlcv import (
    ConfigError,
    LevelSubset,
    SyntheticLowRank,
    allocate_mlcv,
    allocate_mlmc,
    pilot_mlmc,
    prepare_control_variates,
    run_mc,
    run_mlcv,
    run_mlmc,
)
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

    def test_invalid_config(self, tmp_path):
        path = write_config(tmp_path, {"schema": 1})
        assert main(["pilot", path]) == 2

    def test_negative_coeff_seed(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out")
        cfg["model"]["coeff_seed"] = -1
        assert main(["pilot", write_config(tmp_path, cfg)]) == 2
        assert "coeff_seed must be non-negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", [1e-300, 1e-160, 1e-100, 1e160, 1e300])
    def test_extreme_epsilon(self, tmp_path, capsys, eps):
        cfg = base_config(tmp_path / "out", epsilon=[eps])
        assert main(["pilot", write_config(tmp_path, cfg)]) == 2
        assert f"epsilon {eps} is out of range" in capsys.readouterr().err

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
        _, out = study
        report = read_report(out, "mlcv", "0.05")
        header, rows = read_csv_rows(out / "levels_mlcv_0.05.csv")
        assert header[:2] == ["level", "dofs"]
        assert len(rows) == len(report["levels"])
        for row, entry in zip(rows, report["levels"]):
            assert int(row[0]) == entry["level"]
            assert float(row[header.index("mean_y")]) == entry["mean_y"]
            assert int(row[header.index("n_prime")]) == entry["n_prime"]

    def test_compare_table(self, study):
        _, out = study
        header, rows = read_csv_rows(out / "compare.csv")
        assert header == ["epsilon", "levels", "cost_mc", "cost_mlmc", "cost_mlcv", "ratio"]
        eps = [float(r[0]) for r in rows]
        assert eps == sorted(eps, reverse=True)
        for row in rows:
            assert int(row[1]) == 3
            assert float(row[5]) == pytest.approx(
                float(row[4]) / float(row[3]), rel=1e-12
            )

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
        assert calls[0][0].name == "level0_q.npy"
        assert main(["estimate", path, "--seed", "8"]) == 2

    def test_schema_1_cache_needs_new_pilot(self, tmp_path, capsys):
        """A cache in the schema-1 layout (inputs, corrections and coarse
        snapshots stored beside each level's outputs) is refused."""
        out = tmp_path / "out"
        path = write_config(tmp_path, base_config(out, methods=["mlmc"]))
        assert main(["pilot", path]) == 0
        cache_dir = out / "cache"
        meta = json.loads((cache_dir / "meta.json").read_text())
        np.save(cache_dir / "xi.npy", np.zeros((meta["n_pilot"], 4)))
        prev = None
        for ell in range(meta["n_levels"]):
            tag = cache_dir / f"level{ell}"
            q = np.load(f"{tag}_q.npy")
            qoi = np.load(f"{tag}_qoi.npy")
            Path(f"{tag}_q.npy").rename(f"{tag}_q_fine.npy")
            Path(f"{tag}_qoi.npy").rename(f"{tag}_qoi_fine.npy")
            np.save(f"{tag}_y.npy", qoi if prev is None else qoi - prev[1])
            if prev is not None:
                np.save(f"{tag}_q_coarse.npy", prev[0])
                np.save(f"{tag}_qoi_coarse.npy", prev[1])
            prev = (q, qoi)
        meta["schema"] = 1
        (cache_dir / "meta.json").write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["estimate", path]) == 2
        assert "re-run the pilot" in capsys.readouterr().err
        assert main(["pilot", path]) == 0
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            f"level{ell}_{kind}.npy" for ell in range(3) for kind in ("q", "qoi")
        ] + ["meta.json"]
        assert main(["estimate", path]) == 0

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
    """Only the pilot report reads the ID residual; estimate and compare
    rebuild the bases from the pilot cache by column selection alone."""

    @pytest.mark.parametrize(
        "termination", [{"rank": 3}, {"rank": None, "id_tol": 1e-6}], ids=["rank", "tol"]
    )
    def test_only_pilot_computes_id_residual(
        self, tmp_path, monkeypatch, eager_id, termination
    ):
        from mlcv import linalg

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

        rows = json.loads((out / "pilot.json").read_text())["levels"]
        assert rows[0]["id_residual"] == 0.0
        for row in rows[1:]:
            snapshots = np.load(out / "cache" / f"level{row['level'] - 1}_q.npy")
            _, residual = eager_id(
                snapshots, rank=termination["rank"], tol=termination.get("id_tol")
            )
            assert row["id_residual"] == residual

        def forbidden(*args, **kwargs):
            raise AssertionError("estimate/compare formed the ID coefficients or residual")

        monkeypatch.setattr(linalg, "solve_T", forbidden)
        for name in ("coefficients", "residual_norm"):
            monkeypatch.setattr(
                linalg.IDFactorization, name, property(forbidden), raising=False
            )
        assert main(["estimate", path]) == 0
        assert main(["compare", path]) == 0


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
                [allocate_mlcv(pilot.stats, setup.configs, e) for e in epsilons],
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

    def test_deterministic_model_degenerates_gracefully(self, tmp_path):
        out = tmp_path / "out"
        cfg = base_config(
            out,
            model={
                "name": "diffusion_1d",
                "grids": [7, 15],
                "constant_coefficient": True,
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
