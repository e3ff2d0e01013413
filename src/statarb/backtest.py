"""Walk-forward backtesting of the drift-sign barrier strategy on CSVs.

The backtester walks a daily close series: at each cycle start it estimates
(mu, sigma) by maximum likelihood on the trailing window (strictly earlier
observations only), anchors the barrier grid at the current close, and
trades the trend cycle that strategies.cycle_plan plans for the estimate
(the embedded cycle at alpha = 1) with strategies.run_cycle on observed
prices.  Cycles chain across the whole series — no stop-at-first-gain —
and run_cycle closes each one out at its stop, or liquidates it at the
last close when the data ends first, so every backtest ends flat.
"""
from __future__ import annotations

import datetime
import json
import math
import operator
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, NamedTuple

import numpy as np

from .errors import (
    DegenerateModel,
    DegenerateSeries,
    InsufficientData,
    NonMonotoneDates,
    NoSaExists,
    ParseError,
)
from .gbm import mle_from_returns
from .harness import write_head
from .lattice import total
from .paths import PricePath, TradeLedger
from .scenarios import check_alpha, check_alpha_input
from .strategies import cycle_plan, run_cycle

__all__ = [
    "DT",
    "MarketSeries",
    "BacktestConfig",
    "CycleLog",
    "BacktestResult",
    "load_csv",
    "dump_csv",
    "run_backtest",
    "summary_json",
    "dump_summary_json",
    "dump_cycles_csv",
]

MARKET_HEADER = "date,close"
CYCLES_HEADER = "cycle_start,cycle_end,mu_hat,sigma_hat,orientation,pnl,traded_qty"

# characters of CSV text, in whole lines, that load_csv parses at a time
CSV_BLOCK = 65536
# one CSV row as numpy's reader parses it: the date text and the close
_CSV_ROW = [("date", object), ("close", np.float64)]

# years per observation: the closes are trading days, 252 to the year
DT = 1.0 / 252.0

# the errors that skip a window, and the `skipped` key each counts under
SKIP_REASONS = {DegenerateSeries: "zero_variance", NoSaExists: "NoSaExists",
                DegenerateModel: "DegenerateModel"}


@dataclass(frozen=True)
class MarketSeries:
    """Daily closes keyed by strictly increasing calendar dates."""

    dates: tuple[datetime.date, ...]
    closes: np.ndarray

    def __post_init__(self) -> None:
        closes = np.asarray(self.closes, dtype=float)
        object.__setattr__(self, "dates", tuple(self.dates))
        if closes.ndim != 1:
            raise ValueError("closes must be 1-d")
        if len(self.dates) != closes.size:
            raise ValueError("dates and closes must have equal lengths")
        if closes.size == 0:
            raise ValueError("series must not be empty")
        bad = ~np.isfinite(closes)
        if bad.any():
            k = int(bad.argmax())
            raise ValueError(f"closes must be finite, got "
                             f"{float(closes[k])!r} on {self.dates[k]}")
        if not (closes > 0.0).all():
            raise ValueError("closes must be positive")
        if any(map(operator.le, self.dates[1:], self.dates)):
            raise NonMonotoneDates("dates must be strictly increasing")
        object.__setattr__(self, "closes", PricePath(closes).prices)

    @property
    def n_points(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class BacktestConfig:
    """Estimation window, barrier width and execution parameters."""

    boundary_fraction: float
    window_days: int = 756
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.boundary_fraction < 0.5:
            raise ValueError("boundary_fraction must lie in (0, 1/2)")
        if self.window_days < 60:
            raise ValueError("window_days must be >= 60")
        check_alpha_input(self.alpha)


class CycleLog(NamedTuple):
    """One completed cycle of the walk-forward backtest."""

    cycle_start: datetime.date
    cycle_end: datetime.date
    mu_hat: float
    sigma_hat: float
    orientation: str
    pnl: float
    traded_qty: float


class BacktestResult(NamedTuple):
    """Backtest outcome: total P&L, its normalizations, and the cycle log.

    gpta divides total P&L by the total traded notional sum(|delta|*price),
    which is invariant under a uniform currency rescaling of the series;
    the per-cycle traded quantities allow recomputing per-unit variants.
    `skipped` counts the cycle starts skipped by one observation, by
    reason: zero return variance in the window, or the strategy solve
    raising NoSaExists or DegenerateModel.  `cutoff_pnl` is
    the P&L of the final cycle cut off by the end of data (0.0 when no
    cycle was open); it is part of total_pnl but of no CycleLog.
    """

    gpta: float
    total_pnl: float
    n_cycles: int
    traded_qty: float
    traded_notional: float
    window_days: int
    boundary_fraction: float
    cycles: tuple[CycleLog, ...]
    skipped: dict[str, int]
    cutoff_pnl: float


# --------------------------------------------------------------------- io


def load_csv(source: str | Path | IO[str]) -> MarketSeries:
    """Parse a `date,close` CSV (ISO dates, positive decimal closes).

    Lines starting with `#` are metadata and skipped; errors carry the
    1-based physical line number.  After the header, the text is read
    CSV_BLOCK characters of whole lines at a time: numpy's C reader
    (_read_rows) parses a block of well-formed rows, and _parse_lines,
    the line loop that raises every error naming a data line, any other.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_csv(fh)
    for lineno, raw in enumerate(iter(source.readline, ""), start=1):
        if (line := raw.strip()) and line[0] != "#":
            break
    else:
        raise ParseError(f"missing header {MARKET_HEADER!r}", 1)
    if line != MARKET_HEADER:
        raise ParseError(f"expected header {MARKET_HEADER!r}, got {line!r}",
                         lineno)
    dates: list[datetime.date] = []
    closes: list[np.ndarray | list[float]] = []
    while lines := source.readlines(CSV_BLOCK):
        days, block = _read_rows(lines) or _parse_lines(lines, lineno + 1)
        dates += days
        closes.append(block)
        lineno += len(lines)
    if not dates:
        raise ParseError("no data rows", 2)
    array = np.concatenate(closes)
    array.setflags(write=False)  # so that MarketSeries keeps it uncopied
    return MarketSeries(tuple(dates), array)


def _read_rows(lines: list[str]) -> tuple[list[datetime.date],
                                          np.ndarray] | None:
    """The dates and closes of a block of data rows, or None unless
    numpy's reader yields one row per line with no error or warning, every
    close finite and > 0 and every date an ISO date.

    numpy converts a close with PyOS_string_to_double, as float() does,
    and keeps the date text before the first comma unstripped, which
    fromisoformat rejects wherever the loop's stripped text differs; so an
    accepted block holds _parse_lines' values bit for bit.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            rows = np.loadtxt(lines, delimiter=",", dtype=_CSV_ROW,
                              comments=None, ndmin=1)
        closes = rows["close"]
        if len(rows) != len(lines) or \
                not ((closes > 0.0) & (closes < math.inf)).all():
            return None
        return list(map(datetime.date.fromisoformat, rows["date"])), closes
    except (ValueError, Warning):
        return None


def _parse_lines(lines: list[str], lineno: int
                 ) -> tuple[list[datetime.date], list[float]]:
    """Parse a block of lines after the header, whose first is line
    `lineno`: the dates and closes of its data rows."""
    dates: list[datetime.date] = []
    closes: list[float] = []
    # names bound once, outside the per-line loop
    add_day, add_close = dates.append, closes.append
    fromisoformat, isfinite = datetime.date.fromisoformat, math.isfinite
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"expected 2 fields, got {len(fields)}", lineno)
        try:
            day = fromisoformat(fields[0])
        except ValueError:
            raise ParseError(f"bad ISO date {fields[0]!r}", lineno) from None
        try:
            close = float(fields[1])
        except ValueError:
            raise ParseError(f"bad price {fields[1]!r}", lineno) from None
        if not isfinite(close) or close <= 0.0:
            raise ParseError(f"non-positive price {fields[1]!r}", lineno)
        add_day(day)
        add_close(close)
    return dates, closes


def dump_csv(series: MarketSeries, stream: IO[str],
             metadata: dict[str, str] | None = None) -> None:
    """Write a series as `date,close` rows that load_csv round-trips."""
    write_head(stream, MARKET_HEADER, metadata)
    for day, close in zip(series.dates, series.closes):
        stream.write(f"{day.isoformat()},{float(close)!r}\n")


# --------------------------------------------------------------- backtest


def run_backtest(series: MarketSeries, config: BacktestConfig, *,
                 ledger: TradeLedger | None = None) -> BacktestResult:
    """Walk the series forward, trading one barrier cycle at a time.

    Each cycle uses only observations strictly before its start for the
    (mu, sigma) estimate, from which cycle_plan plans the cycle.
    The log-returns are computed once for the whole series, and each
    window's estimate is mle_from_returns on its slice of them, which
    equals mle_estimate on the window's closes bit for bit.
    A window whose estimate or solve raises one of SKIP_REASONS (zero
    return variance, q = 1, collapsed levels) is skipped by one observation
    and counted in `skipped` under that reason; DegenerateSeries is raised
    at once when the returns of all windows together have zero variance,
    as then no window is estimable.  run_cycle liquidates a final cycle
    interrupted by the end of data at the last close; it is included in
    total_pnl and cutoff_pnl, but not in the per-cycle log (n_cycles counts
    completed cycles).  The positions scale with 1 - alpha, so a P&L or
    traded total that overflows raises ValueError naming alpha.
    """
    n = series.n_points
    window = config.window_days
    if n < window + 2:
        raise InsufficientData(
            f"need more than {window + 1} observations, have {n}")
    closes = series.closes
    path = PricePath(closes)
    led = ledger if ledger is not None else TradeLedger()
    cycles: list[CycleLog] = []
    c = config.boundary_fraction
    returns = np.diff(np.log(closes))
    mle_from_returns(returns[:n - 3], DT)  # the returns of every window
    skipped = dict.fromkeys(SKIP_REASONS.values(), 0)
    cut_from = None  # the cash before a cycle the end of data cut off
    i = window
    while i < n - 1:
        anchor = float(closes[i])
        try:
            mu_hat, sigma_hat = mle_from_returns(returns[i - window:i - 1], DT)
            solve, legs, orientation, _ = cycle_plan(c, mu_hat, sigma_hat,
                                                     "trend", config.alpha)
            psi = solve(anchor)
        except tuple(SKIP_REASONS) as exc:
            skipped[SKIP_REASONS[type(exc)]] += 1
            i += 1
            continue
        cash_before = led.cash
        events_before = len(led.events)
        step = run_cycle(path, i, anchor, False, led, legs, psi)
        if step is None:
            cut_from = cash_before
            break
        i_end, _ = step
        qty = total(abs(delta) for _, _, delta in led.events[events_before:])
        cycles.append(CycleLog(series.dates[i], series.dates[i_end],
                               mu_hat, sigma_hat, orientation,
                               led.cash - cash_before, qty))
        i = i_end
    total_pnl = led.cash
    traded_qty = total(abs(delta) for _, _, delta in led.events)
    traded_notional = total(abs(delta) * price
                            for _, price, delta in led.events)
    cutoff_pnl = 0.0 if cut_from is None else total_pnl - cut_from
    check_alpha(config.alpha, "the backtest's totals overflow", total_pnl,
                traded_qty, traded_notional, cutoff_pnl)
    gpta = total_pnl / traded_notional if traded_notional > 0.0 else 0.0
    return BacktestResult(
        gpta=gpta,
        total_pnl=total_pnl,
        n_cycles=len(cycles),
        traded_qty=traded_qty,
        traded_notional=traded_notional,
        window_days=window,
        boundary_fraction=c,
        cycles=tuple(cycles),
        skipped=skipped,
        cutoff_pnl=cutoff_pnl,
    )


# ------------------------------------------------------------------ output


def summary_json(result: BacktestResult,
                 metadata: dict[str, str] | None = None) -> dict:
    """The summary as a JSON-ready dict; metadata rides in a _meta object
    (a `#` comment line would break JSON parsers)."""
    payload: dict = {
        "gpta": float(result.gpta),
        "n_cycles": int(result.n_cycles),
        "total_pnl": float(result.total_pnl),
        "traded_qty": float(result.traded_qty),
        "traded_notional": float(result.traded_notional),
        "window_days": int(result.window_days),
        "boundary_fraction": float(result.boundary_fraction),
    }
    if metadata:
        payload["_meta"] = dict(metadata)
    return payload


def dump_summary_json(result: BacktestResult, stream: IO[str],
                      metadata: dict[str, str] | None = None) -> None:
    json.dump(summary_json(result, metadata), stream, sort_keys=True,
              indent=2)
    stream.write("\n")


def dump_cycles_csv(result: BacktestResult, stream: IO[str],
                    metadata: dict[str, str] | None = None) -> None:
    """Write the per-cycle log as CSV with the module's fixed header."""
    write_head(stream, CYCLES_HEADER, metadata)
    for row in result.cycles:
        stream.write(f"{row.cycle_start.isoformat()},"
                     f"{row.cycle_end.isoformat()},"
                     f"{float(row.mu_hat)!r},{float(row.sigma_hat)!r},"
                     f"{row.orientation},{float(row.pnl)!r},"
                     f"{float(row.traded_qty)!r}\n")
