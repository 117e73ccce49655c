"""Run one ``mlcv`` command in a fresh process and record where its time went.

Usage::

    python3 perfbench/worker.py ROOT RESULT_JSON TRACE -- CLI_ARGS...

The command runs through ``mlcv.cli.main``, the function behind the ``mlcv``
console script, with the package imported from ``ROOT/src``.  Before it
starts, functions of the ``mlcv`` modules are wrapped from here; nothing
inside ``src/mlcv`` changes.  With ``TRACE`` 0 only the three set-up calls
that ``setup_s`` is made of are wrapped; with ``TRACE`` 1 every layer
boundary in ``LAYERS`` is.  Each wrapped call records one span (name, parent
span, start, end, counts).  Spans stay in memory and are written to
``RESULT_JSON`` when the command returns, together with the import time and
the exit code.  The worker exits with the command's exit code.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _count_evaluate(args, kwargs, result):
    hierarchy, level = args[0], args[1]
    solves = int(result.qoi.size)
    return {"level": level, "solves": solves, "dofs": solves * hierarchy.dofs(level)}


def _count_rhs(args, kwargs, result):
    import numpy as np

    shape = np.shape(args[1])
    return {"rows": 1 if len(shape) < 2 else int(shape[1])}


def _count_values(args, kwargs, result):
    import numpy as np

    return {"values": int(np.size(args[1]))}


def _count_cells(args, kwargs, result):
    import numpy as np

    return {"cells": int(np.size(_first_arg(args, kwargs, "u")))}


# (layer, module, attribute paths, counter).  A module-level function is
# replaced in every loaded ``mlcv`` module that holds it, because callers such
# as ``mlmc`` import ``draw_inputs`` by name; a method is replaced on its class.
SETUP = (
    ("cli.build_hierarchy", "cli", ("build_hierarchy",), None),
    ("cache.load_pilot_cache", "cache", ("load_pilot_cache",),
     lambda a, k, r: {"bytes": _dir_bytes(_first_arg(a, k, "cache_dir"))}),
    ("cache.load_setup", "cache", ("load_setup",), None),
)

LAYERS = SETUP + (
    ("cli.pilot", "cli", ("cmd_pilot",), None),
    ("cli.estimate", "cli", ("cmd_estimate",), None),
    ("cli.compare", "cli", ("cmd_compare",), None),
    ("models.construct", "models",
     ("Diffusion1D.__init__", "SyntheticLowRank.__init__"), None),
    ("models.evaluate", "models",
     ("Diffusion1D.evaluate", "SyntheticLowRank.evaluate"), _count_evaluate),
    ("streams.draw_inputs", "streams", ("draw_inputs",),
     lambda a, k, r: {"rows": int(r.shape[0])}),
    ("stats.RunningMoments.update", "stats", ("RunningMoments.update",),
     _count_values),
    ("control_variates.sample_z", "control_variates", ("sample_z",),
     lambda a, k, r: {"rows": int(r.size)}),
    ("control_variates.estimate_zbar", "control_variates", ("estimate_zbar",), None),
    ("control_variates.run_mlcv", "control_variates", ("run_mlcv",), None),
    ("control_variates.prepare_control_variates", "control_variates",
     ("prepare_control_variates",), None),
    ("linalg.interpolative_decomposition", "linalg",
     ("interpolative_decomposition",), _count_cells),
    ("linalg.LeastSquaresOperator.solve", "linalg",
     ("LeastSquaresOperator.solve",), _count_rhs),
    ("cache.save_pilot_cache", "cache", ("save_pilot_cache",),
     lambda a, k, r: {"bytes": _dir_bytes(_first_arg(a, k, "cache_dir"))}),
    ("cache.save_bases", "cache", ("save_bases",),
     lambda a, k, r: {"bytes": _dir_bytes(_first_arg(a, k, "bases_dir"))}),
    ("mlmc.allocate_samples", "mlmc", ("allocate_samples",), None),
    ("mlmc.pilot_mlmc", "mlmc", ("pilot_mlmc",), None),
    ("mlmc.run_mlmc", "mlmc", ("run_mlmc",), None),
    ("mlmc.run_mc", "mlmc", ("run_mc",), None),
)


class Recorder:
    """In-memory span log: one ``[name, parent, start, end, counts]`` entry
    per wrapped call, with ``parent`` the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name, fn, count):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, open_spans[-1] if open_spans else -1,
                    time.perf_counter(), None, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                open_spans.pop()
            if count is not None:
                # counted after the span closes, so counting costs no span time
                span[4] = count(args, kwargs, result)
            return result

        return wrapper


def install(recorder, targets) -> list[str]:
    """Wrap every target; return the attribute paths that were not found."""
    modules = [m for n, m in sys.modules.items() if n == "mlcv" or n.startswith("mlcv.")]
    missing = []
    for layer, module_name, paths, count in targets:
        module = sys.modules[f"mlcv.{module_name}"]
        for path in paths:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            wrapped = recorder.wrap(layer, original, count)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
    return missing


def main() -> int:
    root, result_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: worker.py ROOT RESULT_JSON TRACE -- CLI_ARGS...")
    sys.path.insert(0, str(Path(root) / "src"))
    import mlcv.cli

    import_s = time.perf_counter() - _T0
    recorder = Recorder()
    missing = install(recorder, LAYERS if trace == "1" else SETUP)
    rc = mlcv.cli.main(argv)
    Path(result_path).write_text(
        json.dumps({"rc": rc, "import_s": import_s, "missing": missing,
                    "mlcv_file": mlcv.__file__, "spans": recorder.spans}),
        encoding="utf-8",
    )
    return rc


if __name__ == "__main__":
    sys.exit(main())
