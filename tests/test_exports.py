"""The package's public names are exactly those it exports."""

from __future__ import annotations

import types

import mlcv


def test_all_matches_public_names():
    """Every name in ``__all__`` resolves, and ``__all__`` lists every public
    name the package binds other than its submodules."""
    assert [name for name in mlcv.__all__ if not hasattr(mlcv, name)] == []
    public = {
        name
        for name, value in vars(mlcv).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(mlcv.__all__) == sorted(public)
