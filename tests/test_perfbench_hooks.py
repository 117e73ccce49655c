"""The benchmark's hooks into the package still resolve.

``perfbench/worker.py`` wraps the functions named in its ``LAYERS`` table to
trace a run, and ``perfbench/make_references.py`` calls ``mlcv.mlmc``
directly.  A refactor that renames or inlines one of them would silently
drop a traced boundary, so these checks load the worker by path, unchanged,
and resolve every name it lists.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"

# Still listed by the benchmark, though the bases cache it traced is gone;
# the benchmark drops it at its next change.
KNOWN_MISSING = {"cache.save_bases"}


def _load_worker():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_every_traced_layer_resolves():
    worker = _load_worker()
    missing = set()
    for _, module_name, paths, _ in worker.LAYERS:
        module = importlib.import_module(f"mlcv.{module_name}")
        for path in paths:
            target = module
            for part in path.split("."):
                target = getattr(target, part, None)
            if not callable(target):
                missing.add(f"{module_name}.{path}")
    assert missing <= KNOWN_MISSING


def test_reference_generator_names_exist():
    mlmc = importlib.import_module("mlcv.mlmc")
    for name in ("pilot_mlmc", "allocate_mlmc", "run_mlmc", "mc_oracle_mean"):
        assert callable(getattr(mlmc, name, None)), name
