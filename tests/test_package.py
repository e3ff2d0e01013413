"""The package's public names: every name a module exports resolves."""
from __future__ import annotations

import importlib

import pytest

MODULES = ("backtest", "cli", "commands", "gbm", "harness", "lattice",
           "paths", "scenarios", "seeding", "strategies", "trinomial")


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"statarb.{module}")
    assert mod.__all__
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
