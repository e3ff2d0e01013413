"""Monte Carlo experiment harness: batched runs, summary metrics, sweeps,
and the CSV writers of the per-run and sweep tables.

A single experiment simulates ``n_runs`` independent GBM paths and applies
one strategy to each.  The runs go through ``strategies.run_seeded``, which
holds ``paths.chunk_rows`` paths at a time in one ``paths.PathBlock``, a
price matrix and its scan pad of at most ``paths.CHUNK_BYTES``.  Per-run
streams are ``np.random.SeedSequence([master_seed, axis_index, run_index])``
turned into a 64-bit seed, then ``np.random.default_rng(seed)``, so results
are reproducible, independent of chunking, and independent across both runs
and sweep-axis cells.  ``seeding`` derives them in batches of runs, by the same
hash that numpy's SeedSequence computes run by run; tests pin the two
against each other.  Sweeps re-run the experiment once
per axis value with the axis position as the salt, so a single-value sweep
reproduces a plain experiment bit for bit.  Run k of an experiment equals
``strategies.run_path`` on ``paths.simulate_gbm(params, seed)`` with
``seed = seeding.run_seeds(master_seed, axis_index, range(k, k + 1))[0]``
for every seed whose path ``simulate_gbm`` accepts.  The ``PathBlock``
generates the points of a path as its scans reach them, and checks for
underflow only the points it generates, so a run that ends before its
path would underflow to 0 completes and is counted, while
``simulate_gbm`` rejects that path.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import AllRunsSkipped, EmptySample, NoSaExists
from .gbm import GbmParams
from .lattice import SWEEP_AXES, total
from .scenarios import check_alpha
from .strategies import RunResult, StrategyConfig, cycle_plan, run_seeded

__all__ = [
    "SWEEP_AXES",
    "MIN_STEP_RATIO",
    "SweepAxis",
    "ExperimentConfig",
    "MetricsSummary",
    "ExperimentResult",
    "SweepRow",
    "metrics",
    "run_experiment",
    "sweep",
    "dump_runs_csv",
    "dump_sweep_csv",
]

# The smallest barrier step an experiment accepts, as a multiple of
# sigma * sqrt(dt), the volatility of one grid step.  Below it one grid step
# crosses hundreds of grid levels, which a snap run trades one cycle at a
# time at one grid index: at c / (sigma * sqrt(dt)) = 8.4e-5 (c = 1e-6, 50
# steps) one run made 12482 cycles, and at 8.4e-12 (c = 1e-13) five runs grew
# past 1.2 GB.  The smallest ratio of any golden or acceptance experiment is
# 0.32, and the eta sweep golden runs at 0.43.
MIN_STEP_RATIO = 0.01


class SweepAxis(NamedTuple):
    """A sweep axis: parameter name and the values to visit, in order."""

    name: str
    values: tuple[float, ...]


@dataclass(frozen=True)
class ExperimentConfig:
    """A batch of independent runs of one strategy under one GBM law."""

    params: GbmParams
    strategy: StrategyConfig
    n_runs: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregate statistics of one experiment's per-run P&L sample.

    var95 negates the empirical 5%-quantile (lower order statistic), so
    positive values denote losses.  gain_per_trade divides the mean gain by
    the average number of completed cycles.
    """

    mean_gain: float
    median_gain: float
    var95: float
    gain_per_trade: float
    loss_fraction: float
    loss_mean: float
    avg_n: float
    max_n: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_fraction <= 1.0:
            raise ValueError("loss_fraction outside [0, 1]")
        if not self.max_n >= self.avg_n >= 0.0:
            raise ValueError("expected max_n >= avg_n >= 0")


class ExperimentResult(NamedTuple):
    """Metrics plus the per-run table they were computed from, and its runs
    counted by ended_by ("PositivePnl", "Horizon") and by n_repetitions."""

    summary: MetricsSummary
    runs: tuple[RunResult, ...]
    ended_by: Counter[str]
    repetitions: Counter[int]


class SweepRow(NamedTuple):
    """One sweep cell: the axis value, its experiment summary, and the
    counts of how its runs ended and how many cycles they completed, which
    ExperimentResult stores as ended_by and repetitions."""

    param: float
    summary: MetricsSummary
    ended_by: Counter[str]
    repetitions: Counter[int]


# ---------------------------------------------------------------- metrics


def metrics(pnl: Sequence[float], trades: Sequence[int],
            n: Sequence[int]) -> MetricsSummary:
    """Summarize equal-length per-run samples of P&L, trades and cycles.

    median is the lower-median order statistic; var95 is minus the order
    statistic at 1-based index ceil(0.05 * len) of the sorted P&L.
    """
    pnl = np.asarray(pnl, dtype=float)
    trades = np.asarray(trades, dtype=float)
    n = np.asarray(n, dtype=float)
    if pnl.size == 0:
        raise EmptySample("metrics need at least one run")
    if not pnl.size == trades.size == n.size:
        raise ValueError("pnl, trades and n must have equal lengths")

    ordered = np.sort(pnl)
    size = pnl.size
    mean_gain = float(np.mean(pnl))
    median_gain = float(ordered[(size - 1) // 2])
    var95 = -float(ordered[int(np.ceil(0.05 * size)) - 1])
    losses = pnl[pnl < 0.0]
    loss_mean = float(np.mean(losses)) if losses.size else 0.0
    avg_n = float(np.mean(n))
    gain_per_trade = mean_gain / avg_n if avg_n > 0.0 else 0.0
    return MetricsSummary(
        mean_gain=mean_gain,
        median_gain=median_gain,
        var95=var95,
        gain_per_trade=gain_per_trade,
        loss_fraction=float(losses.size) / size,
        loss_mean=loss_mean,
        avg_n=avg_n,
        max_n=int(np.max(n)),
    )


# ------------------------------------------------------------- experiments


def run_experiment(config: ExperimentConfig, *,
                   axis_index: int = 0) -> ExperimentResult:
    """Execute ``config.n_runs`` seeded runs and aggregate their metrics.

    Before any run, the embedded cycle_plan is solved at s0 for every kind.
    Raises AllRunsSkipped when q = 1 voids the whole batch, DegenerateModel
    when that solve finds the grid levels collapsed at s0 or (c*s0)^3 out
    of float range, and ValueError when c / (sigma * sqrt(dt)) lies below
    MIN_STEP_RATIO, or when the runs' P&L overflows (check_alpha).
    """
    params = config.params
    c = config.strategy.resolved_c(params.mu, params.sigma)
    try:  # the embedded solve at s0 for every kind: q = 1, collapsed levels
        cycle_plan(c, params.mu, params.sigma, "embedded",
                   config.strategy.alpha)[0](params.s0)
    except NoSaExists as exc:
        raise AllRunsSkipped(
            f"q = 1 at c={c!r}: every run is voided") from exc
    ratio = c / (params.sigma * math.sqrt(params.dt))
    if ratio < MIN_STEP_RATIO:
        raise ValueError(
            f"c={c!r} is too small for sigma={params.sigma!r} and "
            f"steps={params.n_steps}: c / (sigma * sqrt(dt)) = {ratio:.3g} "
            f"lies below {MIN_STEP_RATIO}")

    from .seeding import run_streams
    streams = run_streams(config.master_seed, axis_index, config.n_runs)
    results = run_seeded(params, config.strategy, streams)
    pnl, n_rep, trades, ended_by = zip(*results)
    check_alpha(config.strategy.alpha, "the runs' P&L overflows",
                total(map(abs, pnl)))  # so metrics' sums are finite
    return ExperimentResult(summary=metrics(pnl, trades, n_rep),
                            runs=tuple(results), ended_by=Counter(ended_by),
                            repetitions=Counter(n_rep))


def _apply_axis(config: ExperimentConfig, name: str,
                value: float) -> ExperimentConfig:
    """A copy of ``config`` with the swept parameter ``name``, one of
    SWEEP_AXES, replaced."""
    params, strategy = config.params, config.strategy
    if name == "c":
        strategy = replace(strategy, c=float(value), c_mult=None)
    elif name == "c_mult":
        strategy = replace(strategy, c=None, c_mult=float(value))
    elif name == "mu":
        params = replace(params, mu=float(value))
    elif name == "sigma":
        params = replace(params, sigma=float(value))
    else:
        # eta = mu / sigma swept at fixed drift by varying the volatility
        if value == 0:
            raise ValueError("eta must be nonzero")
        if not math.isfinite(value):
            raise ValueError(f"eta must be finite, got {value!r}")
        if params.mu == 0 or (value > 0) != (params.mu > 0):
            raise ValueError(f"eta={value!r} must have the sign of "
                             f"mu={params.mu!r}")
        params = replace(params, sigma=params.mu / float(value))
    return replace(config, params=params, strategy=strategy)


def sweep(config: ExperimentConfig, axis: SweepAxis) -> list[SweepRow]:
    """Run one experiment per axis value, salting seeds by axis position."""
    if axis.name not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis.name!r}; "
                         f"expected one of {SWEEP_AXES}")
    if not axis.values:
        raise ValueError("sweep axis needs at least one value")
    rows = []
    for j, value in enumerate(axis.values):
        cell = _apply_axis(config, axis.name, value)
        result = run_experiment(cell, axis_index=j)
        rows.append(SweepRow(param=float(value), summary=result.summary,
                             ended_by=result.ended_by,
                             repetitions=result.repetitions))
    return rows


# ------------------------------------------------------------------ output

RUNS_HEADER = "run,pnl,n,trades,ended_by"
SWEEP_HEADER = "param,gain_pa,median,var95,gain_pt,losses,loss_mean,avg_n,max_n"


def write_head(stream: IO[str], header: str,
               metadata: dict[str, str] | None) -> None:
    """Write a table's `# key=value` metadata lines, then its header."""
    for key, value in (metadata or {}).items():
        stream.write(f"# {key}={value}\n")
    stream.write(header + "\n")


def dump_runs_csv(result: ExperimentResult, stream: IO[str],
                  metadata: dict[str, str] | None = None) -> None:
    """Write the per-run table as CSV: run,pnl,n,trades,ended_by."""
    write_head(stream, RUNS_HEADER, metadata)
    for i, r in enumerate(result.runs):
        stream.write(f"{i},{float(r.pnl)!r},{r.n_repetitions},"
                     f"{r.trade_count},{r.ended_by}\n")


def dump_sweep_csv(rows: Iterable[SweepRow], stream: IO[str],
                   metadata: dict[str, str] | None = None) -> None:
    """Write sweep rows as CSV with the module's fixed header."""
    write_head(stream, SWEEP_HEADER, metadata)
    for row in rows:
        s = row.summary
        values = (row.param, s.mean_gain, s.median_gain, s.var95,
                  s.gain_per_trade, s.loss_fraction, s.loss_mean, s.avg_n)
        cells = [repr(float(v)) for v in values] + [repr(int(s.max_n))]
        stream.write(",".join(cells) + "\n")
