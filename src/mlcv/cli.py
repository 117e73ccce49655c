"""Configuration-driven command line driver.

Three subcommands share one JSON config file:

* ``pilot``     runs the pilot study, derives the control-variate setup,
                persists both under the output directory, and writes
                ``pilot.json`` with per-level diagnostics, rate fits, and
                planned allocations.
* ``estimate``  loads the cached pilot and setup and runs the requested
                estimators at each configured accuracy, writing one JSON
                report and one per-level CSV per (method, epsilon).
* ``compare``   tabulates plan-implied costs of plain MC, the multilevel
                estimator, and its control-variate variant per epsilon.

Everything randomized is keyed by the master seed, so any command rerun with
the same config and seed, the same numpy, the same BLAS library and the same
BLAS thread count writes byte-identical files; costs are the declared
per-level unit costs, never wall-clock time.
Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import cache
from . import control_variates as cv
from . import mlmc
from .errors import ConfigError, DataError, DimensionError, NumericalError
from .models import Diffusion1D, LevelSubset, SyntheticLowRank

CONFIG_SCHEMA = 1

_MODELS = {
    "synthetic_low_rank": (
        SyntheticLowRank,
        {
            "r_true": int,
            "m0": int,
            "refine": int,
            "num_levels": int,
            "cost_gamma": float,
            "input_dim": int,
            "delta": float,
            "coeff_seed": int,
        },
    ),
    "diffusion_1d": (
        Diffusion1D,
        {
            "kernel": str,
            "sigma2": float,
            "corr_length": float,
            "mean_coefficient": float,
            "n_modes": int,
            "grids": list,
            "qoi": str,
            "cost_gamma": float,
            "kl_grid_n": int,
            "constant_coefficient": bool,
        },
    ),
}

_METHODS = ("mc", "mlmc", "mlcv")

_TOP_KEYS = {
    "schema",
    "model",
    "levels",
    "epsilon",
    "methods",
    "rank",
    "id_tol",
    "s2",
    "n_pilot",
    "master_seed",
    "cost_mode",
    "out_dir",
    "threads",
}


def _fail(path: str, message: str):
    raise ConfigError(f"config field {path}: {message}")


def _want_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected integer, got {value!r}")
    return value


def _want_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected number, got {value!r}")
    # JSON admits NaN and Infinity; an integer beyond the float range fails too
    if not abs(value) <= sys.float_info.max:
        _fail(path, f"expected a finite number, got {value!r}")
    return float(value)


def _validate_model(section) -> dict:
    if not isinstance(section, dict):
        _fail("model", "expected an object")
    if "name" not in section:
        _fail("model.name", "required")
    name = section["name"]
    if name not in _MODELS:
        _fail("model.name", f"unknown model {name!r}; choices: {sorted(_MODELS)}")
    _, params = _MODELS[name]
    out = {"name": name}
    for key, value in section.items():
        if key == "name":
            continue
        if key not in params:
            _fail(f"model.{key}", f"unknown parameter for model {name!r}")
        want = params[key]
        path = f"model.{key}"
        if want is int:
            out[key] = _want_int(value, path)
        elif want is float:
            out[key] = _want_number(value, path)
        elif want is bool:
            if not isinstance(value, bool):
                _fail(path, f"expected boolean, got {value!r}")
            out[key] = value
        elif want is str:
            if not isinstance(value, str):
                _fail(path, f"expected string, got {value!r}")
            out[key] = value
        elif want is list:
            if not isinstance(value, list) or not value:
                _fail(path, "expected a non-empty list")
            out[key] = [_want_int(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return out


def normalize_config(raw) -> dict:
    """Validate a parsed config against the schema and fill defaults.

    Unknown keys anywhere are rejected with their field path, so typos fail
    loudly instead of silently falling back to defaults.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a JSON object")
    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ConfigError(f"config field {unknown[0]}: unknown key")
    if raw.get("schema") != CONFIG_SCHEMA:
        _fail("schema", f"expected {CONFIG_SCHEMA}, got {raw.get('schema')!r}")
    if "model" not in raw:
        _fail("model", "required")
    if "master_seed" not in raw:
        _fail("master_seed", "required")

    cfg: dict = {"schema": CONFIG_SCHEMA, "model": _validate_model(raw["model"])}

    levels = raw.get("levels")
    if levels is not None:
        if not isinstance(levels, list) or not levels:
            _fail("levels", "expected null or a non-empty list")
        levels = [_want_int(v, f"levels[{i}]") for i, v in enumerate(levels)]
        if any(b <= a for a, b in zip(levels, levels[1:])):
            _fail("levels", f"must be strictly increasing, got {levels}")
        if levels[0] < 0:
            _fail("levels[0]", "level indices start at 0")
    cfg["levels"] = levels

    eps = raw.get("epsilon")
    if not isinstance(eps, list) or not eps:
        _fail("epsilon", "expected a non-empty list of tolerances")
    checked = []
    for i, e in enumerate(eps):
        value = _want_number(e, f"epsilon[{i}]")
        try:
            mlmc._check_epsilon(value)
        except ConfigError as exc:
            _fail(f"epsilon[{i}]", str(exc))
        tag = _eps_tag(value)
        earlier = [j for j, v in enumerate(checked) if _eps_tag(v) == tag]
        if earlier:
            _fail(f"epsilon[{i}]", f"{e!r} shares report names with epsilon[{earlier[0]}]")
        checked.append(value)
    cfg["epsilon"] = checked

    methods = raw.get("methods", list(_METHODS))
    if not isinstance(methods, list) or not methods:
        _fail("methods", "expected a non-empty list")
    for i, m in enumerate(methods):
        if m not in _METHODS:
            _fail(f"methods[{i}]", f"unknown method {m!r}; choices: {_METHODS}")
    if len(set(methods)) != len(methods):
        _fail("methods", f"duplicate entries in {methods}")
    cfg["methods"] = methods

    rank = raw.get("rank")
    id_tol = raw.get("id_tol")
    if (rank is None) == (id_tol is None):
        _fail("rank", "exactly one of rank and id_tol must be set")
    if rank is not None:
        if isinstance(rank, list):
            rank = [_want_int(v, f"rank[{i}]") for i, v in enumerate(rank)]
            bad = [v for v in rank if v < 1]
            if bad:
                _fail("rank", f"fixed ranks must be >= 1, got {rank}")
        else:
            rank = _want_int(rank, "rank")
            if rank < 1:
                _fail("rank", f"must be >= 1, got {rank}")
    else:
        id_tol = _want_number(id_tol, "id_tol")
        if id_tol <= 0:
            _fail("id_tol", f"must be positive, got {id_tol}")
    cfg["rank"] = rank
    cfg["id_tol"] = id_tol

    s2 = _want_number(raw.get("s2", cv.S2_DEFAULT), "s2")
    if s2 <= 1:
        _fail("s2", f"must exceed 1, got {s2}")
    cfg["s2"] = s2

    n_pilot = _want_int(raw.get("n_pilot", 100), "n_pilot")
    if n_pilot < mlmc.N_MIN:
        _fail("n_pilot", f"must be at least {mlmc.N_MIN}, got {n_pilot}")
    cfg["n_pilot"] = n_pilot

    seed = _want_int(raw["master_seed"], "master_seed")
    if not 0 <= seed < 2**64:
        _fail("master_seed", f"must lie in [0, 2**64), got {seed}")
    cfg["master_seed"] = seed

    # only the declared cost law is accepted; the key stays in the config so
    # that config hashes and pilot keys keep their bytes
    cost_mode = raw.get("cost_mode", "declared")
    if cost_mode != "declared":
        _fail("cost_mode", f"expected 'declared', got {cost_mode!r}")
    cfg["cost_mode"] = cost_mode

    out_dir = raw.get("out_dir", "runs")
    if not isinstance(out_dir, str) or not out_dir:
        _fail("out_dir", "expected a non-empty string")
    cfg["out_dir"] = out_dir

    threads = _want_int(raw.get("threads", 1), "threads")
    if threads < 1:
        _fail("threads", f"must be >= 1, got {threads}")
    cfg["threads"] = threads
    return cfg


def build_hierarchy(cfg: dict):
    """Instantiate the configured model, restricted to a level subset if one
    is given, and check the config fields that depend on its level count."""
    section = dict(cfg["model"])
    ctor, _ = _MODELS[section.pop("name")]
    hierarchy = ctor(**section)
    levels = cfg["levels"]
    if levels is not None:
        if levels[-1] > hierarchy.finest_level:
            _fail(
                "levels",
                f"level {levels[-1]} outside the model's range "
                f"0..{hierarchy.finest_level}",
            )
        hierarchy = LevelSubset(hierarchy, levels)
    rank = cfg["rank"]
    if isinstance(rank, list) and len(rank) != hierarchy.n_levels - 1:
        _fail(
            "rank",
            f"need one rank per correction level ({hierarchy.n_levels - 1}), "
            f"got {len(rank)}",
        )
    return hierarchy


def _hash_payload(cfg: dict) -> dict:
    """The part of the config that identifies a study (location and execution
    hints excluded)."""
    return {k: v for k, v in cfg.items() if k not in ("out_dir", "threads")}


def pilot_key_payload(cfg: dict) -> dict:
    """The part of the config the pilot artifacts depend on."""
    keys = ("schema", "model", "levels", "n_pilot", "master_seed", "rank",
            "id_tol", "s2", "cost_mode")
    return {k: cfg[k] for k in keys}


def _provenance(cfg: dict) -> dict:
    return {
        "master_seed": cfg["master_seed"],
        "config_sha256": cache.config_sha(_hash_payload(cfg)),
        "schema": CONFIG_SCHEMA,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n",
        encoding="utf-8",
    )


def _write_csv(path: Path, cfg: dict, header: list[str], rows) -> None:
    buf = io.StringIO()
    buf.write(
        f"# master_seed={cfg['master_seed']} "
        f"config=sha256:{cache.config_sha(_hash_payload(cfg))}\n"
    )
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    path.write_text(buf.getvalue(), encoding="utf-8")


def _eps_tag(eps: float) -> str:
    return f"{eps:.6g}"


def _try_rates(level_stats):
    """Rate fits, or (None, reason) when the hierarchy cannot support them
    (single level, or degenerate variances as on deterministic models)."""
    try:
        return mlmc.fit_rates(level_stats), None
    except DataError as exc:
        return None, str(exc)


def _rates_block(rates, note):
    if rates is None:
        return {"available": False, "note": note}
    return {
        "available": True,
        "alpha": rates.alpha,
        "beta": rates.beta,
        "gamma": rates.gamma,
        "alpha_residual": rates.alpha_residual,
        "beta_residual": rates.beta_residual,
        "gamma_residual": rates.gamma_residual,
    }


def _bias_block(level_stats, rates, eps: float):
    if rates is None or len(level_stats) < 2:
        return {"available": False}
    block = mlmc.bias_check(level_stats, rates, eps)
    block["available"] = True
    return block


def _plan_block(level_stats, setup, eps: float):
    """Planned allocations and plan-implied costs for one tolerance, and the
    plans themselves keyed by method."""
    plan_ml = mlmc.allocate_mlmc(level_stats, eps)
    plan_cv = cv.allocate_mlcv(level_stats, setup.configs, eps)
    finest = level_stats[-1]
    cost_ml = cv.nominal_mlmc_cost(level_stats, plan_ml)
    cost_cv = cv.nominal_mlcv_cost(level_stats, plan_cv, setup)
    under_rank = [
        c.level
        for c, n in zip(setup.configs, plan_cv.n_samples)
        if c.enabled and n < c.rank
    ]
    block = {
        "epsilon": eps,
        "n_mlmc": list(plan_ml.n_samples),
        "n_mlcv": list(plan_cv.n_samples),
        "n_prime": list(plan_cv.n_prime),
        "cost_mlmc": cost_ml,
        "cost_mlcv": cost_cv,
        "cost_mc_reference": mlmc.mc_cost_reference(finest, eps),
        "cost_ratio": cost_cv / cost_ml,
        "allocation_below_rank_levels": under_rank,
    }
    return block, {"mlmc": plan_ml, "mlcv": plan_cv}


def _plan_blocks(cfg: dict, level_stats, setup) -> list:
    """``_plan_block`` for each configured tolerance, in config order; a
    tolerance that plans too many samples is named by its config field."""
    blocks = []
    for i, eps in enumerate(cfg["epsilon"]):
        try:
            blocks.append(_plan_block(level_stats, setup, eps))
        except ConfigError as exc:
            _fail(f"epsilon[{i}]", str(exc))
    return blocks


def cmd_pilot(cfg: dict) -> int:
    hierarchy = build_hierarchy(cfg)
    pilot = mlmc.pilot_mlmc(hierarchy, cfg["n_pilot"], cfg["master_seed"])
    setup = cv.prepare_control_variates(
        hierarchy, pilot, rank=cfg["rank"], tol=cfg["id_tol"], s2=cfg["s2"]
    )
    level_stats = pilot.stats
    # every check that can fail runs before the first file is written
    plans = [block for block, _ in _plan_blocks(cfg, level_stats, setup)]

    out_dir = Path(cfg["out_dir"])
    for path in (out_dir, out_dir / "cache"):
        try:
            path.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            _fail("out_dir", f"cannot make directory {str(path)!r}: a file is in the way")
    key = cache.config_sha(pilot_key_payload(cfg))
    cache.save_pilot_cache(out_dir / "cache", hierarchy, pilot, setup, key)

    rates, rates_note = _try_rates(level_stats)

    rows = []
    for st, c, basis in zip(level_stats, setup.configs, setup.bases):
        row = {
            "level": st.level,
            "dofs": st.dofs,
            "output_dim": st.output_dim,
            "mean_y": st.mean_y,
            "var_y": st.var_y,
            "mean_q": st.mean_q,
            "var_q": st.var_q,
            "cost_fine": st.cost_fine,
            "cost_coarse": st.cost_coarse,
            "cv_enabled": c.enabled,
            "rank": c.rank,
            "rho2": c.rho2,
            "mse_factor": c.mse_factor,
            "zbar_multiplier": c.multiplier,
            "theta": c.theta,
            "id_residual": basis.idf.residual_norm if basis is not None else 0.0,
        }
        rows.append(row)

    report = {
        "provenance": _provenance(cfg),
        "config": cfg,
        "pilot": {
            "n_pilot": pilot.n_pilot,
            "total_cost": mlmc.counted_cost(
                [mlmc.pair_counts(ell, pilot.n_pilot) for ell in range(pilot.n_levels)],
                level_stats,
            ),
        },
        "levels": rows,
        "rates": _rates_block(rates, rates_note),
        "bias_check": _bias_block(level_stats, rates, min(cfg["epsilon"])),
        "plans": plans,
    }
    _write_json(out_dir / "pilot.json", report)
    print(f"pilot: wrote {out_dir / 'pilot.json'}")
    return 0


def _load_study(cfg: dict):
    out_dir = Path(cfg["out_dir"])
    hierarchy = build_hierarchy(cfg)
    key = cache.config_sha(pilot_key_payload(cfg))
    pilot = cache.load_pilot_cache(out_dir / "cache", hierarchy, key)
    setup = cache.load_setup(out_dir / "cache", hierarchy, key)
    return out_dir, hierarchy, pilot, setup


def _run_method(method, hierarchy, pilot, setup, epsilons, plans):
    """One result per tolerance, from one run of ``method`` over them all."""
    if method == "mlmc":
        return mlmc.run_mlmc(hierarchy, [p["mlmc"] for p in plans], pilot)
    if method == "mlcv":
        return cv.run_mlcv(hierarchy, [p["mlcv"] for p in plans], pilot, setup)
    return mlmc.run_mc(hierarchy, epsilons, pilot)


def cmd_estimate(cfg: dict, methods) -> int:
    out_dir, hierarchy, pilot, setup = _load_study(cfg)
    level_stats = pilot.stats
    rates, _ = _try_rates(level_stats)

    epsilons = cfg["epsilon"]
    blocks = _plan_blocks(cfg, level_stats, setup)
    plans = [p for _, p in blocks]
    # every method runs over all tolerances before any report is written
    by_tolerance = zip(
        *(_run_method(m, hierarchy, pilot, setup, epsilons, plans) for m in methods)
    )
    for eps, (plan_costs, _), tolerance_results in zip(epsilons, blocks, by_tolerance):
        for method, result in zip(methods, tolerance_results):
            total_cost = result.total_cost
            rows = []
            for i, counts in enumerate(result.eval_counts):
                st = level_stats[counts.level]
                c = setup.configs[counts.level]
                level_cost = mlmc.counted_cost([counts], level_stats)
                use_cv = method == "mlcv" and c.enabled
                rows.append(
                    {
                        "level": counts.level,
                        "dofs": st.dofs,
                        "output_dim": st.output_dim,
                        "mean_y": result.level_estimates[i],
                        "var_y": result.sample_variances[i],
                        "rho2": c.rho2 if use_cv else 0.0,
                        "mse_factor": c.mse_factor if use_cv else 1.0,
                        "n_samples": result.n_samples[i],
                        "n_prime": counts.aux_coarse_evals,
                        "zbar": result.zbar_values[i],
                        "theta": c.theta if use_cv else 0.0,
                        "cost": level_cost,
                        "cost_share": level_cost / total_cost,
                    }
                )
            report = {
                "provenance": _provenance(cfg),
                "config": cfg,
                "method": method,
                "epsilon": eps,
                "estimate": result.estimate,
                "sampling_error": result.sampling_error,
                "total_cost": total_cost,
                "plan": plan_costs,
                "bias_check": _bias_block(level_stats, rates, eps),
                "cv_beneficial": plan_costs["cost_ratio"] <= 1.0,
                "levels": rows,
            }
            tag = f"{method}_{_eps_tag(eps)}"
            _write_json(out_dir / f"report_{tag}.json", report)
            header = [
                "level", "dofs", "output_dim", "mean_y", "var_y", "rho2",
                "mse_factor", "n_samples", "n_prime", "zbar", "theta",
                "cost", "cost_share",
            ]
            _write_csv(
                out_dir / f"levels_{tag}.csv",
                cfg,
                header,
                ([row[k] for k in header] for row in rows),
            )
            print(
                f"estimate: method={method} eps={_eps_tag(eps)} "
                f"estimate={result.estimate!r} cost={total_cost!r}"
            )
    return 0


def cmd_compare(cfg: dict) -> int:
    out_dir, hierarchy, pilot, setup = _load_study(cfg)
    blocks = [block for block, _ in _plan_blocks(cfg, pilot.stats, setup)]
    rows = [
        [
            block["epsilon"],
            hierarchy.n_levels,
            block["cost_mc_reference"],
            block["cost_mlmc"],
            block["cost_mlcv"],
            block["cost_ratio"],
        ]
        for block in sorted(blocks, key=lambda b: b["epsilon"], reverse=True)
    ]
    header = ["epsilon", "levels", "cost_mc", "cost_mlmc", "cost_mlcv", "ratio"]
    _write_csv(out_dir / "compare.csv", cfg, header, rows)
    print(f"compare: wrote {out_dir / 'compare.csv'}")
    return 0


def load_config(path: str, overrides: argparse.Namespace) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file is not valid UTF-8 JSON: {exc}") from exc
    if getattr(overrides, "seed", None) is not None:
        if not isinstance(raw, dict):
            raise ConfigError("config root: expected a JSON object")
        raw["master_seed"] = overrides.seed
    if getattr(overrides, "out_dir", None) is not None:
        raw["out_dir"] = overrides.out_dir
    if getattr(overrides, "threads", None) is not None:
        raw["threads"] = overrides.threads
    return normalize_config(raw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlcv",
        description=(
            "Multilevel Monte Carlo estimation with low-rank control "
            "variates: pilot studies, estimator runs, and cost comparisons."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("pilot", "run the pilot study and persist its artifacts"),
        ("estimate", "run estimators against the cached pilot"),
        ("compare", "tabulate plan-implied costs per tolerance"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("config", help="path to the JSON config file")
        sp.add_argument("--seed", type=int, help="override master_seed")
        sp.add_argument("--out-dir", help="override out_dir")
        sp.add_argument("--threads", type=int, help="override threads")
        if name == "estimate":
            sp.add_argument(
                "--method",
                action="append",
                choices=_METHODS,
                help="run only this method (repeatable); default: config list",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args)
        if args.command == "pilot":
            return cmd_pilot(cfg)
        if args.command == "estimate":
            methods = args.method if args.method else cfg["methods"]
            if len(set(methods)) != len(methods):
                raise ConfigError(f"option --method: duplicate entries in {methods}")
            return cmd_estimate(cfg, methods)
        return cmd_compare(cfg)
    except (ConfigError, DimensionError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
