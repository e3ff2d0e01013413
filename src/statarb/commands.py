"""The commands that run experiments: ``simulate``, ``sweep`` and
``backtest``.

``cli.main`` imports this module when one of them starts, so ``check-model``,
``--help``, ``--version`` and usage errors run without compiling it.  Each
command imports the modules it runs (and numpy with them) when it starts.
When `--seed` is absent the STATARB_SEED environment variable is consulted,
then 0.  Metadata headers carry the version, seed, quantile method and
execution mode — never timestamps.
"""
from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable

from . import __version__
from .cli import EXIT_OK, EXIT_USAGE

if TYPE_CHECKING:
    from .harness import ExperimentConfig, SweepRow

__all__ = ["cmd_simulate", "cmd_sweep", "cmd_backtest"]

QUANTILE_METHOD = "order-statistic"


# ---------------------------------------------------- simulate and sweep


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("STATARB_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        seed = -1  # reported below, as a negative value is
    if seed < 0:
        raise ValueError(
            f"STATARB_SEED must be a nonnegative integer, got {env!r}")
    return seed


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The flags' experiment; a bad STATARB_SEED fails before the rest."""
    seed = _resolve_seed(args)
    from .gbm import GbmParams
    from .harness import ExperimentConfig
    from .strategies import StrategyConfig

    params = GbmParams(mu=args.mu, sigma=args.sigma, s0=args.s0,
                       horizon=args.horizon, n_steps=args.steps)
    c, c_mult = args.c, args.c_mult
    if c is None and c_mult is None:
        c_mult = 0.01
    kind = "trend" if args.strategy == "gfin" else args.strategy
    strategy = StrategyConfig(kind=kind, c=c, c_mult=c_mult,
                              alpha=args.alpha,
                              execution_mode=args.mode)
    return ExperimentConfig(params=params, strategy=strategy,
                            n_runs=args.runs, master_seed=seed)


def _metadata(config: ExperimentConfig) -> dict[str, str]:
    return {
        "version": __version__,
        "seed": str(config.master_seed),
        "quantile_method": QUANTILE_METHOD,
        "execution_mode": config.strategy.execution_mode,
    }


def _report_runs(row: SweepRow, cell: str = "") -> None:
    """How the runs of one experiment ended and how many cycles they
    completed, on stderr."""
    ended = row.ended_by
    print(f"statarb: ended_by: {cell}PositivePnl={ended['PositivePnl']} "
          f"Horizon={ended['Horizon']}", file=sys.stderr)
    counts = " ".join(f"{n}={k}" for n, k in sorted(row.repetitions.items()))
    print(f"statarb: repetitions: {cell}{counts}", file=sys.stderr)


def _publish(write: Callable[[IO[str]], object], out: Path | None,
             dump: Callable[[IO[str]], object]) -> None:
    """Buffer ``write``'s stdout table, write --out with ``dump``, so that a
    failed write prints nothing, then the table; diagnostics go to stderr."""
    buf = io.StringIO()
    write(buf)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            dump(fh)
    sys.stdout.write(buf.getvalue())


def cmd_simulate(args: argparse.Namespace) -> int:
    from .harness import SweepRow, dump_runs_csv, dump_sweep_csv, \
        run_experiment

    config = _experiment_config(args)
    result = run_experiment(config)
    meta = _metadata(config)
    c = config.strategy.resolved_c(args.mu, args.sigma)
    row = SweepRow(c, result.summary, result.ended_by, result.repetitions)
    _publish(lambda fh: dump_sweep_csv([row], fh, metadata=meta), args.out,
             lambda fh: dump_runs_csv(result, fh, metadata=meta))
    _report_runs(row)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import dump_sweep_csv, sweep

    try:
        values = tuple(float(v) for v in args.values.split(","))
    except ValueError:
        print(f"statarb: bad --values list {args.values!r}",
              file=sys.stderr)
        return EXIT_USAGE
    config = _experiment_config(args)
    rows = sweep(config, args.axis, values)
    table = functools.partial(dump_sweep_csv, rows, metadata=_metadata(config))
    _publish(table, args.out, table)
    for row in rows:
        _report_runs(row, f"{args.axis}={row.param!r} ")
    return EXIT_OK


# ---------------------------------------------------------------- backtest


def cmd_backtest(args: argparse.Namespace) -> int:
    from .backtest import BacktestConfig, dump_cycles_csv, \
        dump_summary_json, load_csv, run_backtest

    series = load_csv(args.data)
    config = BacktestConfig(boundary_fraction=args.boundary,
                            window_days=args.window, alpha=args.alpha)
    result = run_backtest(series, config)
    meta = {
        "version": __version__,
        "window": str(args.window),
        "boundary": repr(float(args.boundary)),
        "execution_mode": "observed",
    }
    _publish(lambda fh: dump_summary_json(result, fh, metadata=meta),
             args.out, lambda fh: dump_cycles_csv(result, fh, metadata=meta))
    skipped = " ".join(f"{k}={v}" for k, v in result.skipped.items())
    print(f"statarb: skipped windows: {skipped}", file=sys.stderr)
    print(f"statarb: cut-off cycle pnl: {result.cutoff_pnl!r}",
          file=sys.stderr)
    return EXIT_OK
