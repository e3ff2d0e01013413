"""Statistical arbitrage on finite lattice models and price paths.

Subpackage map:

* ``lattice`` -- the two-period binomial model, its no-arbitrage
  certificate and strategy solve: what ``check-model`` runs on a binomial.
* ``trinomial`` -- the trinomial-top counterexample and its certificates,
  loaded by ``check-model`` only for a trinomial model.
* ``scenarios`` -- scenario partitions and gains on them, the three-period
  trend lattice and its three-leg strategy solvers.
* ``gbm`` -- geometric-Brownian-motion closed forms (exit probabilities,
  embedded-model quantities) and parameter estimation.
* ``paths`` -- path simulation, barrier-hit detection, trade ledgers.
* ``strategies`` -- the cycles as a table of legs, and the interpreters
  that trade lattice strategies by it along paths.
* ``harness`` -- batched Monte Carlo experiments, metrics, parameter sweeps.
* ``seeding`` -- per-run random streams derived in batches (imported by
  ``harness`` on first use, as it loads ``numpy.random``).
* ``backtest`` -- rolling-window walk-forward backtests on market CSVs.
* ``cli`` -- the ``statarb`` command-line front end and ``check-model``.
* ``commands`` -- the ``simulate``, ``sweep`` and ``backtest`` commands,
  which ``cli`` imports when one of them starts.

Each submodule loads on first access (``statarb.harness``, ``from statarb
import harness``), so importing the package, or ``lattice``,
``trinomial``, ``scenarios``, ``cli`` and ``commands``, does not import
numpy; the modules that compute on arrays do.  The error classes and
``__version__`` load with the package.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

from .errors import (
    AllRunsSkipped,
    DegenerateModel,
    DegenerateSeries,
    EmptySample,
    InsufficientData,
    InvalidBase,
    InvalidInterval,
    NoSaExists,
    NoSolution,
    NonMonotoneDates,
    ParseError,
    StatarbError,
)

_SUBMODULES = frozenset({"backtest", "cli", "commands", "gbm", "harness",
                         "lattice", "paths", "scenarios", "seeding",
                         "strategies", "trinomial"})


def __getattr__(name: str):
    """Import a submodule on first attribute access (PEP 562); the import
    binds it on the package, so later lookups do not come here."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
