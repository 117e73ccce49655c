"""Generate ``references.json``: E[Q_L] of every benchmark workload.

Usage::

    python3 perfbench/make_references.py [NAME ...]

Each reference is computed once, on ``REFERENCE_SEED`` (no workload's own
seed), at a tolerance ``TIGHTEN`` times tighter than the workload's tightest,
so its variance is about 1/16 of a report's.  The diffusion workloads use
``run_mlmc`` on a pilot of the workload's size; ``wide_pilot`` uses
``mc_oracle_mean`` on the finest level, whose dedicated stream shares no
randomness with the estimators under test.  Stored with each value is its
sampling variance: the realized sum of V_l / N_l for ``run_mlmc``, and the
pilot's finest-level variance over the oracle's sample count for
``mc_oracle_mean``.  The generator takes a few minutes on two cores; rerun it
only when a workload's model changes.
"""

from __future__ import annotations

import json
import math
import sys
import time

from run import REFERENCES, ROOT, WORKLOADS, full_config

REFERENCE_SEED = 20161107
TIGHTEN = 4.0


def reference(name: str, workload: dict) -> dict:
    from mlcv import cli, mlmc

    cfg = cli.normalize_config(full_config(workload, REFERENCE_SEED))
    hierarchy = cli.build_hierarchy(cfg)
    eps = min(cfg["epsilon"]) / TIGHTEN
    pilot = mlmc.pilot_mlmc(hierarchy, cfg["n_pilot"], REFERENCE_SEED)
    if cfg["model"]["name"] == "synthetic_low_rank":
        var_q = pilot.stats[-1].var_q
        n = math.ceil(2.0 * var_q / eps**2)
        value = mlmc.mc_oracle_mean(hierarchy, n, REFERENCE_SEED)
        variance, method, samples = var_q / n, "mc_oracle_mean", n
    else:
        plan = mlmc.allocate_mlmc(pilot.stats, eps)
        result = mlmc.run_mlmc(hierarchy, plan, pilot)
        value = result.estimate
        variance = sum(v / n for v, n in zip(result.sample_variances, result.n_samples))
        method, samples = "run_mlmc", sum(result.n_samples)
    return {
        "model": workload["config"]["model"],
        "value": value,
        "variance": variance,
        "seed": REFERENCE_SEED,
        "epsilon": eps,
        "method": method,
        "samples": samples,
    }


def main(names) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    data = {"workloads": {}}
    if REFERENCES.is_file():
        data = json.loads(REFERENCES.read_text(encoding="utf-8"))
    for name in names or list(WORKLOADS):
        t0 = time.perf_counter()
        data["workloads"][name] = reference(name, WORKLOADS[name])
        ref = data["workloads"][name]
        print(f"{name}: {ref['value']!r} +- {math.sqrt(ref['variance']):.3g} "
              f"({ref['method']}, {ref['samples']} samples, "
              f"{time.perf_counter() - t0:.1f} s)")
    REFERENCES.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
