"""Monte Carlo experiment harness: batched runs, summary metrics, sweeps,
and the CSV writers of the per-run and sweep tables.

A single experiment simulates ``n_runs`` independent GBM paths and applies
one strategy to each.  The runs go through ``strategies.run_seeded``, which
holds ``paths.chunk_rows`` paths at a time in one price matrix of at most
``paths.CHUNK_BYTES``.  Per-run streams are
``np.random.SeedSequence([master_seed, axis_index, run_index])`` turned into
a 64-bit seed, then ``np.random.default_rng(seed)``, so results are
reproducible, independent of chunking, and independent across both runs and
sweep-axis cells.  ``seeding`` derives them in batches of runs, by the same
hash that numpy's SeedSequence computes run by run; tests pin the two
against each other.  Sweeps re-run the experiment once
per axis value with the axis position as the salt, so a single-value sweep
reproduces a plain experiment bit for bit.  Run k of an experiment equals
``strategies.run_path`` on ``paths.simulate_gbm(params, seed)`` with
``seed = seeding.run_seeds(master_seed, axis_index, range(k, k + 1))[0]``
for every seed whose path ``simulate_gbm`` accepts.  ``run_seeded``
generates the points of a path as its scans reach them, and checks for
underflow only the points it generates, so a run that ends before its
path would underflow to 0 no longer fails the experiment, while
``simulate_gbm`` rejects that path.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import AllRunsSkipped, EmptySample, NoSaExists
from .gbm import GbmParams, embedded_phi, embedded_q
from .strategies import RunResult, StrategyConfig, run_seeded

__all__ = [
    "SWEEP_AXES",
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

SWEEP_AXES = ("c", "c_mult", "mu", "sigma", "eta")


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
    sweep: SweepAxis | None = None

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ValueError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        if self.sweep is not None:
            if self.sweep.name not in SWEEP_AXES:
                raise ValueError(f"unknown sweep axis {self.sweep.name!r}; "
                                 f"expected one of {SWEEP_AXES}")
            if not self.sweep.values:
                raise ValueError("sweep axis needs at least one value")


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


@dataclass(frozen=True)
class ExperimentResult:
    """Metrics plus the per-run table they were computed from."""

    summary: MetricsSummary
    runs: tuple[RunResult, ...]

    @property
    def ended_by(self) -> Counter[str]:
        """How many runs ended by each cause ("PositivePnl", "Horizon")."""
        return Counter(r.ended_by for r in self.runs)


class SweepRow(NamedTuple):
    """One sweep cell: the axis value, its experiment summary and how its
    runs ended (ExperimentResult.ended_by)."""

    param: float
    summary: MetricsSummary
    ended_by: Counter[str]


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

    Raises AllRunsSkipped when the strategy precondition (q = 1) voids the
    whole batch.
    """
    c = config.strategy.resolved_c(config.params.mu, config.params.sigma)
    try:
        q = embedded_q(c, config.params.mu, config.params.sigma)
        embedded_phi(c, config.params.s0, q)
    except NoSaExists as exc:
        raise AllRunsSkipped(
            f"q = 1 at c={c!r}: every run is voided") from exc

    from .seeding import run_streams
    streams = run_streams(config.master_seed, axis_index, config.n_runs)
    results = run_seeded(config.params, config.strategy, q, streams)
    summary = metrics(
        [r.pnl for r in results],
        [r.trade_count for r in results],
        [r.n_repetitions for r in results],
    )
    return ExperimentResult(summary=summary, runs=tuple(results))


def _apply_axis(config: ExperimentConfig, name: str,
                value: float) -> ExperimentConfig:
    """A copy of ``config`` with one swept parameter replaced."""
    params, strategy = config.params, config.strategy
    if name == "c":
        strategy = replace(strategy, c=float(value), c_mult=None)
    elif name == "c_mult":
        strategy = replace(strategy, c=None, c_mult=float(value))
    elif name == "mu":
        params = replace(params, mu=float(value))
    elif name == "sigma":
        params = replace(params, sigma=float(value))
    elif name == "eta":
        # eta = mu / sigma swept at fixed drift by varying the volatility
        if value == 0:
            raise ValueError("eta must be nonzero")
        if not math.isfinite(value):
            raise ValueError(f"eta must be finite, got {value!r}")
        if (value > 0) != (params.mu > 0):
            raise ValueError(f"eta={value!r} must have the sign of "
                             f"mu={params.mu!r}")
        params = replace(params, sigma=params.mu / float(value))
    else:
        raise ValueError(f"unknown sweep axis {name!r}")
    return replace(config, params=params, strategy=strategy, sweep=None)


def sweep(config: ExperimentConfig) -> list[SweepRow]:
    """Run one experiment per axis value, salting seeds by axis position."""
    if config.sweep is None:
        raise ValueError("config carries no sweep axis")
    rows = []
    for j, value in enumerate(config.sweep.values):
        cell = _apply_axis(config, config.sweep.name, value)
        result = run_experiment(cell, axis_index=j)
        rows.append(SweepRow(param=float(value), summary=result.summary,
                             ended_by=result.ended_by))
    return rows


# ------------------------------------------------------------------ output

RUNS_HEADER = "run,pnl,n,trades,ended_by"
SWEEP_HEADER = "param,gain_pa,median,var95,gain_pt,losses,loss_mean,avg_n,max_n"


def write_metadata(stream: IO[str], metadata: dict[str, str] | None) -> None:
    """Write each metadata item as the `# key=value` line of a header."""
    for key, value in (metadata or {}).items():
        stream.write(f"# {key}={value}\n")


def dump_runs_csv(result: ExperimentResult, stream: IO[str],
                  metadata: dict[str, str] | None = None) -> None:
    """Write the per-run table as CSV: run,pnl,n,trades,ended_by."""
    write_metadata(stream, metadata)
    stream.write(RUNS_HEADER + "\n")
    for i, r in enumerate(result.runs):
        stream.write(f"{i},{float(r.pnl)!r},{r.n_repetitions},"
                     f"{r.trade_count},{r.ended_by}\n")


def dump_sweep_csv(rows: Iterable[SweepRow], stream: IO[str],
                   metadata: dict[str, str] | None = None) -> None:
    """Write sweep rows as CSV with the module's fixed header."""
    write_metadata(stream, metadata)
    stream.write(SWEEP_HEADER + "\n")
    for row in rows:
        s = row.summary
        values = (row.param, s.mean_gain, s.median_gain, s.var95,
                  s.gain_per_trade, s.loss_fraction, s.loss_mean, s.avg_n)
        cells = [repr(float(v)) for v in values] + [repr(int(s.max_n))]
        stream.write(",".join(cells) + "\n")
