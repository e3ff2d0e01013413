"""Statistical arbitrage on finite lattice models and price paths.

Subpackage map:

* ``lattice`` -- finite lattice models, arbitrage certificates, strategy
  solvers.
* ``gbm`` -- geometric-Brownian-motion closed forms (exit probabilities,
  embedded-model quantities) and parameter estimation.
* ``paths`` -- path simulation, barrier-hit detection, trade ledgers.
* ``strategies`` -- the cycles as a table of legs, and the interpreters
  that trade lattice strategies by it along paths.
* ``harness`` -- batched Monte Carlo experiments, metrics, parameter sweeps.
* ``seeding`` -- per-run random streams derived in batches (imported by
  ``harness`` on first use, as it loads ``numpy.random``).
* ``backtest`` -- rolling-window walk-forward backtests on market CSVs.
* ``cli`` -- the ``statarb`` command-line front end.
"""
from __future__ import annotations

__version__ = "0.1.0"

from . import backtest, cli, gbm, harness, lattice, paths, strategies
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
