"""The package's one runtime dependency is numpy."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import mlcv


def test_package_imports_only_stdlib_and_numpy():
    """Every absolute import under the package names the standard library,
    numpy or the package itself."""
    outside = []
    for path in sorted(Path(mlcv.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in ("mlcv", "numpy"):
                    outside.append(f"{path.name}:{node.lineno} {name}")
    assert outside == []
