"""Tiny-size check that the benchmark harness still works.

Usage::

    python3 perfbench/self_check.py

Runs every workload through ``run.py --tiny`` (4x looser tolerance, 200-sample
pilot, a few seconds per repetition), untraced and traced, and checks:

* ``BENCHMARK.json`` lists exactly the workloads and metrics ``run.py``
  defines, with the same units and directions;
* each run exits 0, reports no failed operation, and prints as its last
  line the promised JSON object with every metric, each a finite number;
* every traced boundary was found in ``mlcv`` (no missing wrapper);
* the correctness band rejects every report against a doubled reference;
* the identity check rejects artifacts that differ between repetitions;
* ``run.py`` exits non-zero without a result where there are no sources.

Exits 0 when all hold and 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import run

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        PROBLEMS.append(what)


def check_manifest() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect({w["name"]: w["why"] for w in bench["workloads"]}
           == {name: w["why"] for name, w in run.WORKLOADS.items()},
           "BENCHMARK.json workloads match run.WORKLOADS")
    expect({m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]}
           == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    expect({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
           == run.PER_LAYER,
           "BENCHMARK.json per_layer matches run.PER_LAYER")


def run_tiny(name: str, trace: int, cwd: Path = run.ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", name,
         "--tiny", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def check_output(name: str, trace: int) -> None:
    rc, lines = run_tiny(name, trace)
    expect(rc == 0 and bool(lines), f"{name} trace={trace}: exit code {rc}")
    if not lines:
        return
    result = json.loads(lines[-1])
    record = json.loads(lines[-2].removeprefix("record "))
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{name} trace={trace}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{name} trace={trace}: {result['failed']}/{result['attempted']} failed "
           f"{record['failures']}")
    want = {k: u for k, (u, _) in (run.PER_LAYER if trace else run.END_TO_END).items()}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    expect(got == want, f"{name} trace={trace}: metric names and units")
    bad = [k for k, m in result["metrics"].items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    expect(not bad, f"{name} trace={trace}: finite metric values {bad}")
    if trace:
        expect(not record["missing_wrappers"],
               f"{name}: every traced boundary found {record['missing_wrappers']}")


def check_detectors(name: str) -> None:
    """Feed the band and identity checks inputs that must fail."""
    workload = run.tiny(run.WORKLOADS[name])
    reference = run.load_reference(name, workload)
    moved = dict(reference, value=2 * reference["value"])
    n_reports = len(workload["config"]["methods"]) * len(workload["config"]["epsilon"])
    run.OUT_BASE.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT_BASE))
    try:
        reps = []
        for seed in (1, 2):
            tally = run.Tally()
            run.write_config(work, workload, seed)
            deadline = time.perf_counter() + run.RUN_LIMIT_S
            with contextlib.redirect_stderr(io.StringIO()):  # failures are expected
                reps.append(run.run_repetition(workload, work, seed, False, deadline,
                                               moved, tally))
            band = [f for f in tally.failures if "sd from reference" in f]
            expect(len(band) == n_reports,
                   f"{name}: band rejects all {n_reports} reports against a doubled reference")
        tally = run.Tally()
        with contextlib.redirect_stderr(io.StringIO()):
            run.compare_artifacts(reps, tally)
        expect(len(tally.failures) == len(reps[0]["artifacts"]),
               f"{name}: identity check flags all {len(reps[0]['artifacts'])} artifacts "
               "of another seed")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_without_sources() -> None:
    run.OUT_BASE.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT_BASE))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        rc, lines = run_tiny("fine_mc", 0, cwd=bare)
        expect(rc != 0 and not lines, f"without sources: exit code {rc}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_manifest()
    check_without_sources()
    for name in run.WORKLOADS:
        check_output(name, 0)
        check_output(name, 1)
    check_detectors("cv_crossover")
    print(f"self-check: {len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
