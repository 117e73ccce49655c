"""Benchmark of the ``mlcv`` pilot -> estimate -> compare pipeline.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``NAME`` is one of ``WORKLOADS`` or ``all``.  One repetition runs the real
CLI as a closed loop with one client: ``mlcv pilot``, then
``mlcv estimate --method M`` for each of the workload's methods, then
``mlcv compare``, each command waiting for the previous one to end; the
short pilot and compare commands run ``RERUNS`` times each.  Every
command is a fresh process (``worker.py``), because that is what a user of
the CLI pays: interpreter start, import and cache loading are in every wall.
Each repetition writes to a fresh output directory; repetitions go on until
``--seconds`` have passed, and there are at least two, so the artifacts of
one seed can be compared byte for byte.

Checks, each counted as one operation in ``attempted``/``failed``:

* every CLI command exits with code 0;
* every estimate report of the first repetition lies within ``BAND_Z``
  standard deviations of the stored reference for E[Q_L]
  (``references.json``, made by ``make_references.py``), the deviation
  combining the report's own ``sampling_error`` with the reference's
  variance;
* every artifact (``pilot.json``, ``report_*.json``, ``levels_*.csv``,
  ``compare.csv``) of a later repetition is byte-identical to the first
  repetition's.

With ``--trace 0`` every repetition is untraced and the end-to-end metrics
are reported (medians over repetitions).  With ``--trace 1`` untraced and
traced repetitions alternate, the traced ones wrapping every layer boundary
(see ``worker.LAYERS``); the per-layer metrics are reported from those, and
``trace_overhead_s`` is the traced minus the untraced median wall.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it,
starting with ``record``, holds the machine, the seed, the commit, the
artifact hashes and every repetition's timings.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCES = HERE / "references.json"
OUT_BASE = HERE / "out"

# A run must end within 180 s; no repetition starts that the last one's
# duration says would cross this.
RUN_LIMIT_S = 170.0

# Every CLI process runs with single-threaded BLAS, as the configs' threads: 1
# asks.  With the default two OpenBLAS threads on two cores, the same
# repetition of cv_crossover's mlmc estimate varied by 18% within one run;
# with one thread by 7%, and it ran faster.
CLI_ENV = {"OPENBLAS_NUM_THREADS": "1"}

# pilot and compare take 0.5-2 s, and one invocation's wall varies by about
# 20% on a shared 2-core host (one pilot or compare per repetition gave
# quartile spreads of 0.11-0.21 over ten runs), so each repetition runs each
# of them this many times; the reruns rewrite byte-identical files.
RERUNS = 3

# Half-width of the correctness band in standard deviations.
BAND_Z = 4.0

# n_pilot is 4000 on every workload.  With 100 pilot samples the plan's
# sample counts, and so every estimate wall, spread by 21-28% (quartile
# distance over median, ten seeds) on cv_crossover and fine_mc; with 4000 the
# spread is about 4%.
WORKLOADS = {
    "cv_crossover": {
        "why": "MLCV wins (declared cost ratio ~0.84): ~7M level-0 samples with "
        "3-dim inputs, so stream draws, reductions, per-call overhead and the "
        "surrogate dominate",
        "seed": 777,
        "config": {
            "model": {
                "name": "diffusion_1d",
                "grids": [5, 23, 95],
                "cost_gamma": 2.0,
                "sigma2": 0.5,
                "corr_length": 0.3,
                "n_modes": 3,
                "kl_grid_n": 513,
            },
            "rank": 5,
            "n_pilot": 4000,
            "epsilon": [3e-5, 1.5e-5],
            "methods": ["mlmc", "mlcv"],
        },
        # draw_inputs self time against the traced estimate wall
        "prediction": ("share_of_estimate", "streams.draw_inputs", 0.15),
    },
    "fine_mc": {
        "why": "plain MC runs ~2e5 solves at m=255, so the batched Thomas sweep "
        "in models.evaluate is most of the run and peak RSS is ~1.1 GB",
        "seed": 7,
        "config": {
            "model": {
                "name": "diffusion_1d",
                "grids": [15, 31, 63, 127, 255],
                "qoi": "integral_of_u",
                "kl_grid_n": 1025,
            },
            "rank": 8,
            "n_pilot": 4000,
            "epsilon": [5e-5],
            "methods": ["mc", "mlmc", "mlcv"],
        },
        "prediction": ("largest", "models.evaluate", None),
    },
    "wide_pilot": {
        "why": "set-up heavy: the ID runs on 512x4000 snapshots in every command, "
        "pilot writes a 91 MB cache, compare plans 10 tolerances, and MLCV loses",
        "seed": 11,
        "config": {
            "model": {
                "name": "synthetic_low_rank",
                "r_true": 12,
                "m0": 64,
                "refine": 2,
                "num_levels": 5,
                "input_dim": 16,
                "delta": 1e-3,
            },
            "id_tol": 1e-6,
            "n_pilot": 4000,
            "epsilon": [0.05, 0.04, 0.03, 0.025, 0.02, 0.015, 0.01, 0.008,
                        0.006, 0.005],
            "methods": ["mlmc", "mlcv"],
        },
        "prediction": ("largest", "linalg.interpolative_decomposition", None),
    },
}

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pilot_s": ("s", "lower"),
    "mlmc_s": ("s", "lower"),
    "mlcv_s": ("s", "lower"),
    "estimate_s": ("s", "lower"),
    "compare_s": ("s", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "declared_cost_per_s": ("1/s", "higher"),
    "mlcv_wall_ratio": ("ratio", "lower"),
    "mlcv_cost_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "success_rate": ("ratio", "higher"),
}

_EVAL = ("solves", "dofs", "self_s", "ns_per_dof")
LAYER_FIELDS = {
    "streams.draw_inputs": ("calls", "rows", "self_s", "rows_per_s"),
    "models.construct": ("self_s",),
    "models.evaluate": _EVAL,
    "models.evaluate.L0": _EVAL,
    "models.evaluate.L1": _EVAL,
    "models.evaluate.L2": _EVAL,
    "models.evaluate.finest": _EVAL,
    "stats.RunningMoments.update": ("calls", "values", "self_s"),
    "control_variates.sample_z": ("calls", "rows", "self_s"),
    "control_variates.estimate_zbar": ("self_s",),
    "control_variates.run_mlcv": ("self_s",),
    "control_variates.prepare_control_variates": ("self_s",),
    "linalg.interpolative_decomposition": ("calls", "cells", "self_s"),
    "linalg.LeastSquaresOperator.solve": ("rows", "self_s"),
    "cache.save_pilot_cache": ("self_s", "bytes"),
    "cache.save_bases": ("self_s", "bytes"),
    "cache.load_pilot_cache": ("self_s", "bytes"),
    "cache.load_setup": ("self_s",),
    "mlmc.allocate_samples": ("calls", "self_s"),
    "mlmc.pilot_mlmc": ("self_s",),
    "mlmc.run_mlmc": ("self_s",),
    "cli.build_hierarchy": ("self_s",),
    "cli.pilot": ("self_s",),
    "cli.estimate": ("self_s",),
    "cli.compare": ("self_s",),
}
_FIELD_UNITS = {"self_s": "s", "bytes": "B", "rows_per_s": "1/s", "ns_per_dof": "ns"}
MODULES = ("cli", "cache", "control_variates", "linalg", "mlmc", "models",
           "stats", "streams")

# name -> (unit, better); less work, time and memory is better, so only the
# rate and the traced share of the wall are "higher"
PER_LAYER = {
    f"{layer}.{field}": (_FIELD_UNITS.get(field, "count"),
                         "higher" if field == "rows_per_s" else "lower")
    for layer, fields in LAYER_FIELDS.items()
    for field in fields
}
PER_LAYER.update({f"share.{m}": ("ratio", "lower") for m in MODULES})
PER_LAYER.update({
    "share.streams.draw_inputs.of_estimate_wall": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.import_s": ("s", "lower"),
    "trace.accounted_share": ("ratio", "higher"),
    "trace_overhead_s": ("s", "lower"),
})

ARTIFACT_PATTERNS = ("pilot.json", "report_*.json", "levels_*.csv", "compare.csv")
SETUP_SPANS = ("cli.build_hierarchy", "cache.load_pilot_cache", "cache.load_setup")


class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)


def full_config(workload: dict, seed: int) -> dict:
    cfg = copy.deepcopy(workload["config"])
    cfg.update(schema=1, master_seed=seed, cost_mode="declared", threads=1)
    return cfg


def write_config(run_dir: Path, workload: dict, seed: int) -> None:
    (run_dir / "config.json").write_text(json.dumps(full_config(workload, seed)),
                                         encoding="utf-8")


def run_command(argv: list[str], cwd: Path, result_path: Path, trace: bool,
                deadline: float) -> dict:
    """Run one CLI command in a fresh worker process and wait for it."""
    cmd = [sys.executable, str(WORKER), str(ROOT), str(result_path),
           "1" if trace else "0", "--", *argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                            env={**os.environ, **CLI_ENV})
    timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"rc": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
           "import_s": 0.0, "spans": [], "missing": []}
    if result_path.is_file():
        out.update(json.loads(result_path.read_text(encoding="utf-8")))
        out["rc"] = proc.returncode
        result_path.unlink()
    return out


def hash_artifacts(out_dir: Path) -> dict[str, str]:
    names = sorted({p.name for pat in ARTIFACT_PATTERNS for p in out_dir.glob(pat)})
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


def check_reports(out_dir: Path, workload: dict, reference: dict, tally: Tally) -> dict:
    """Correctness band for every estimate report; returns per-method sums."""
    cfg = workload["config"]
    totals = defaultdict(lambda: {"samples": 0, "cost": 0.0})
    z_scores = {}
    reports = sorted(out_dir.glob("report_*.json"))
    tally.check(len(reports) == len(cfg["methods"]) * len(cfg["epsilon"]),
                f"{len(reports)} estimate reports in {out_dir.name}")
    for path in reports:
        rep = json.loads(path.read_text(encoding="utf-8"))
        sd = math.sqrt(rep["sampling_error"] + reference["variance"])
        z = (rep["estimate"] - reference["value"]) / sd
        z_scores[path.stem] = z
        tally.check(abs(z) <= BAND_Z,
                    f"{path.name}: estimate {rep['estimate']!r} is {z:.2f} sd "
                    f"from reference {reference['value']!r}")
        row = totals[rep["method"]]
        row["samples"] += sum(lv["n_samples"] + lv["n_prime"] for lv in rep["levels"])
        row["cost"] += rep["total_cost"]
    return {"totals": dict(totals), "z": z_scores}


def run_repetition(workload: dict, run_dir: Path, seed: int, trace: bool,
                   deadline: float, reference: dict, tally: Tally) -> dict:
    """One pilot -> estimate -> compare sequence into a fresh ``run_dir/out``.

    pilot and compare run ``RERUNS`` times each, labelled ``pilot#1`` and so
    on.  The CLI runs in ``run_dir`` with the relative out_dir ``out``,
    because the reports embed the config, out_dir included: a fixed relative
    path keeps artifact bytes comparable across repetitions, runs and
    checkouts.
    """
    methods = workload["config"]["methods"]
    out_dir = run_dir / "out"
    commands = [(f"pilot#{i}", "pilot", []) for i in range(1, RERUNS + 1)]
    commands += [(f"estimate:{m}", "estimate", ["--method", m]) for m in methods]
    commands += [(f"compare#{i}", "compare", []) for i in range(1, RERUNS + 1)]
    results = {}
    for label, command, extra in commands:
        argv = [command, "config.json", "--seed", str(seed), "--out-dir", "out", *extra]
        res = run_command(argv, run_dir, run_dir / f"worker-{label}.json", trace, deadline)
        tally.check(res["rc"] == 0, f"mlcv {command} {' '.join(extra)} exit code {res['rc']}")
        results[label] = res
    checked = check_reports(out_dir, workload, reference, tally) if reference else {}
    artifacts = hash_artifacts(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return {"trace": trace, "commands": results, "artifacts": artifacts, **checked}


def compare_artifacts(reps: list[dict], tally: Tally) -> None:
    """Every repetition's artifacts must equal the first one's, byte for byte."""
    for i, rep in enumerate(reps[1:], start=1):
        for art in sorted(set(reps[0]["artifacts"]) | set(rep["artifacts"])):
            tally.check(rep["artifacts"].get(art) == reps[0]["artifacts"].get(art),
                        f"{art} of repetition {i} differs from repetition 0")


def tiny(workload: dict) -> dict:
    """The workload at a 4x looser tolerance and a 200-sample pilot: same
    model, so the same reference applies, at a few seconds per repetition."""
    small = copy.deepcopy(workload)
    small["config"].update(epsilon=[4 * max(workload["config"]["epsilon"])], n_pilot=200)
    return small


def setup_seconds(res: dict) -> float:
    """Import plus the set-up calls of one estimate process."""
    spans = [s for s in res["spans"] if s[0] in SETUP_SPANS]
    return res["import_s"] + sum(end - start for _, _, start, end, _ in spans)


def walls(reps: list[dict], command: str) -> list[float]:
    """Walls of every invocation of ``command`` (a label without ``#n``)."""
    return [c["wall_s"] for r in reps for label, c in r["commands"].items()
            if label.split("#")[0] == command]


def end_to_end(reps: list[dict], workload: dict, tally: Tally) -> dict:
    methods = workload["config"]["methods"]
    est = [f"estimate:{m}" for m in methods]

    def wall(command):
        return median(walls(reps, command))

    estimate_s = median([sum(r["commands"][k]["wall_s"] for k in est) for r in reps])
    totals = reps[0]["totals"]
    samples = sum(t["samples"] for t in totals.values())
    cost = sum(t["cost"] for t in totals.values())
    metrics = {
        "setup_s": median([setup_seconds(r["commands"][k]) for r in reps for k in est]),
        "pilot_s": wall("pilot"),
        "mlmc_s": wall("estimate:mlmc"),
        "mlcv_s": wall("estimate:mlcv"),
        "estimate_s": estimate_s,
        "compare_s": wall("compare"),
        "samples_per_s": samples / estimate_s,
        "declared_cost_per_s": cost / estimate_s,
        "peak_rss_mb": median([max(c["rss_mb"] for c in r["commands"].values())
                                for r in reps]),
    }
    metrics["mlcv_wall_ratio"] = metrics["mlcv_s"] / metrics["mlmc_s"]
    metrics["mlcv_cost_ratio"] = totals["mlcv"]["cost"] / totals["mlmc"]["cost"]
    metrics["success_rate"] = 1.0 - len(tally.failures) / tally.attempted
    return metrics


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, _, start, end, _) in enumerate(spans)]


def trace_tables(rep: dict) -> dict:
    """Per-layer rows (counts and self time, model solves also per level),
    per-module and per-function self time of one traced repetition."""
    finest = max(c["level"] for res in rep["commands"].values()
                 for *_, c in res["spans"] if c and "level" in c)
    rows = defaultdict(lambda: defaultdict(float))
    modules = defaultdict(float)
    functions = defaultdict(float)
    draw_in_estimate = estimate_wall = 0.0
    for label, res in rep["commands"].items():
        estimate = label.startswith("estimate:")
        estimate_wall += res["wall_s"] if estimate else 0.0
        for (name, _, _, _, counts), self_s in zip(res["spans"], self_times(res["spans"])):
            modules[name.split(".")[0]] += self_s
            functions[name] += self_s
            if estimate and name == "streams.draw_inputs":
                draw_in_estimate += self_s
            counts = counts or {}
            keys = [name]
            if "level" in counts:
                keys.append(f"{name}.L{counts['level']}")
                if counts["level"] == finest:
                    keys.append(f"{name}.finest")
            for key in keys:
                row = rows[key]
                row["calls"] += 1
                row["self_s"] += self_s
                for k, v in counts.items():
                    if k != "level":
                        row[k] += v
    return {
        "rows": rows,
        "modules": modules,
        "functions": dict(functions),
        "wall_s": sum(c["wall_s"] for c in rep["commands"].values()),
        "import_s": sum(c["import_s"] for c in rep["commands"].values()),
        "span_s": sum(modules.values()),
        "draw_of_estimate": draw_in_estimate / estimate_wall,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    tables = [trace_tables(r) for r in traced]
    first = tables[0]
    metrics = {}
    for layer, fields in LAYER_FIELDS.items():
        self_s = median([t["rows"][layer]["self_s"] for t in tables])
        row = first["rows"][layer]
        for field in fields:
            if field == "self_s":
                value = self_s
            elif field == "rows_per_s":
                value = row["rows"] / self_s if self_s > 0 else 0.0
            elif field == "ns_per_dof":
                value = self_s * 1e9 / row["dofs"] if row["dofs"] else 0.0
            else:
                value = row[field]
            metrics[f"{layer}.{field}"] = value
    for m in MODULES:
        metrics[f"share.{m}"] = median([t["modules"][m] / t["span_s"] for t in tables])
    metrics["share.streams.draw_inputs.of_estimate_wall"] = median(
        [t["draw_of_estimate"] for t in tables])
    wall = median([t["wall_s"] for t in tables])
    imports = median([t["import_s"] for t in tables])
    metrics["trace.wall_s"] = wall
    metrics["trace.import_s"] = imports
    metrics["trace.accounted_share"] = median(
        [(t["span_s"] + t["import_s"]) / t["wall_s"] for t in tables])
    metrics["trace_overhead_s"] = wall - median(
        [sum(c["wall_s"] for c in r["commands"].values()) for r in untraced])
    # every traced function, run_mc included, for the record
    return metrics, first["functions"]


def judge_prediction(workload: dict, layers: dict, metrics: dict) -> str:
    kind, layer, threshold = workload["prediction"]
    if kind == "largest":
        top = max(layers, key=layers.get)
        share = layers[layer] / sum(layers.values())
        verdict = "holds" if top == layer else f"does not hold (largest is {top})"
        return f"{layer} is the largest layer ({share:.1%} of span self time): {verdict}"
    share = metrics["share.streams.draw_inputs.of_estimate_wall"]
    verdict = "holds" if share >= threshold else "does not hold"
    return f"{layer} is {share:.1%} of the traced estimate wall (>= {threshold:.0%}): {verdict}"


def _git_commit() -> str:
    # --git-dir keeps git from searching the directories above the checkout
    proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/meminfo", encoding="utf-8") as fh:
        ram_kb = int(fh.readline().split()[1])
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        fields = [(index / f).read_text().strip() for f in ("level", "type", "size")]
        caches.append("L{} {} {}".format(*fields))
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "ram_mb": ram_kb // 1024,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(CLI_ENV["OPENBLAS_NUM_THREADS"]),
        "OPENBLAS_NUM_THREADS": CLI_ENV["OPENBLAS_NUM_THREADS"],
        "seed": seed,
        "commit": _git_commit(),
    }


def load_reference(name: str, workload: dict) -> dict:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))["workloads"]
    ref = refs[name]
    if ref["model"] != workload["config"]["model"]:
        raise SystemExit(f"references.json is stale for {name}: run make_references.py")
    return ref


def run_workload(name: str, workload: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run repetitions of one workload and return metrics, counts and record."""
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    reference = load_reference(name, workload)
    if seed == reference["seed"]:
        raise SystemExit(f"seed {seed} is the reference seed of {name}; choose another")
    tally = Tally()
    OUT_BASE.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT_BASE))
    reps = []
    try:
        write_config(run_dir, workload, seed)
        while True:
            t0 = time.perf_counter()
            traced = trace and len(reps) % 2 == 1
            # later repetitions' reports are covered by the identity check
            reps.append(run_repetition(workload, run_dir, seed, traced, deadline,
                                       None if reps else reference, tally))
            now = time.perf_counter()
            if now + (now - t0) > deadline or (len(reps) >= 2 and now - start >= seconds):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    compare_artifacts(reps, tally)
    record = {
        "workload": name,
        "machine": machine_record(seed),
        "repetitions": len(reps),
        "artifacts_sha256": reps[0]["artifacts"],
        "walls_s": [{k: round(c["wall_s"], 4) for k, c in r["commands"].items()}
                    for r in reps],
        "traced": [r["trace"] for r in reps],
        "max_abs_z": max((abs(z) for z in reps[0]["z"].values()), default=None),
        "failures": tally.failures,
    }
    if trace:
        metrics, layers = per_layer([r for r in reps if not r["trace"]],
                                    [r for r in reps if r["trace"]])
        missing = sorted({m for r in reps for c in r["commands"].values()
                          for m in c["missing"]})
        record.update(layer_self_s=layers, missing_wrappers=missing,
                      prediction=judge_prediction(workload, layers, metrics))
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        untraced = [r for r in reps if not r["trace"]]
        metrics = end_to_end(untraced, workload, tally)
        if "mc" in workload["config"]["methods"]:
            record["mc_s"] = median(walls(untraced, "estimate:mc"))
        units = {k: v[0] for k, v in END_TO_END.items()}
    return {
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "record": record,
    }


def print_result(name: str, result: dict) -> None:
    rec = result["record"]
    print(f"workload {name}: seed {rec['machine']['seed']}, {rec['repetitions']} "
          f"repetitions, fresh process per command, "
          f"{result['failed']}/{result['attempted']} operations failed")
    for key, m in result["metrics"].items():
        print(f"  {key:<48} {m['value']:>16.6g} {m['unit']}")
    if "mc_s" in rec:
        print(f"  {'mc_s (record only)':<48} {rec['mc_s']:>16.6g} s")
    print(f"  {'error_rate':<48} {result['failed'] / result['attempted']:>16.6g} ratio")
    if "prediction" in rec:
        print(f"  prediction: {rec['prediction']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, help="default: the workload's own seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="loose tolerance and small pilot, for self_check.py")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mlcv" / "__init__.py").is_file():
        print(f"error: no mlcv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"error: {REFERENCES} missing: run make_references.py", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        seed = WORKLOADS[name]["seed"] if args.seed is None else args.seed
        workload = tiny(WORKLOADS[name]) if args.tiny else WORKLOADS[name]
        result = run_workload(name, workload, seed, args.seconds, bool(args.trace))
        print_result(name, result)
        print("record " + json.dumps(result["record"], sort_keys=True))
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        summary["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
