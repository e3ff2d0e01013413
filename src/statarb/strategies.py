"""Drive lattice strategies over price paths via barrier-hit schedules.

Each run iterates trading cycles anchored at the price reached by the
previous cycle: positions are adjusted whenever the path reaches the next
barrier of the cycle, the whole run stops at the first cycle end with
positive cumulative P&L, and an open position is liquidated at the horizon.

The cycles are written once, as generators of barrier queries on the grid
a(1 + k*c): embedded_cycle (two legs, solved by embedded_phi) and
trend_cycle (three legs with a continue/reverse branch, solved from the
grid's increments by lattice.solve_three_leg).  Each query is a corridor
between two barriers, and a leg ends where the path first leaves it.  The
paper's follow-the-trend and dichotomy strategies coincide on this grid,
where the reversal level is the anchor, so both are the one "trend" kind.
The run loop _schedule repeats one cycle along a row of prices.  Two
drivers answer the queries: drive with next_hit on one PricePath, for
run_path (which accepts a ledger and a cycle trace for inspection) and for
the backtest (which drives single trend cycles), and run_seeded with
next_hits on many simulated paths at once, the Monte Carlo engine of the
harness.  Both give the same results bit for bit.

Execution modes:
  snap      executions at the exact barrier levels (idealized embedding);
            the next anchor is the final level; horizon liquidation at the
            last execution level, so the leg in flight adds nothing.  The
            legs the cut-off cycle completed stay in the P&L: after its
            first leg that is +-phi1*c*a, the first-leg payoff at anchor a.
  observed  executions at the simulated grid prices; the next anchor is the
            observed price at the final stop; horizon liquidation at the
            final grid price.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Callable, Generator, Iterable, NamedTuple

import numpy as np

from .errors import DegenerateModel
from .gbm import GbmParams, embedded_phi, embedded_q
from .lattice import StrategyVector, solve_three_leg
from .paths import (
    SCAN_SEGMENTS,
    PricePath,
    TradeLedger,
    chunk_rows,
    next_hit,
    next_hits,
    simulate_gbm_rows,
)

__all__ = [
    "RunResult",
    "StrategyConfig",
    "CycleRecord",
    "embedded_cycle",
    "trend_cycle",
    "drive",
    "run_path",
    "run_seeded",
]

KINDS = ("embedded", "trend")
MODES = ("snap", "observed")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one run: realized P&L, the count N of completed cycles,
    the number of ledger events, and what ended the run."""

    pnl: float
    n_repetitions: int
    trade_count: int
    ended_by: str  # "PositivePnl" | "Horizon"


@dataclass(frozen=True)
class StrategyConfig:
    """Which strategy to run and how.

    Exactly one of `c` (fixed relative barrier step) or `c_mult`
    (c = c_mult * |mu| / sigma) must be given; the resulting c must lie in
    (0, 1/2).  alpha is the target gain on the trend-reversal scenario.
    """

    kind: str
    c: float | None = None
    c_mult: float | None = None
    alpha: float = 0.0
    execution_mode: str = "snap"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.execution_mode not in MODES:
            raise ValueError(f"execution_mode must be one of {MODES}")
        if (self.c is None) == (self.c_mult is None):
            raise ValueError("exactly one of c and c_mult must be set")
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    def resolved_c(self, mu: float, sigma: float) -> float:
        """The relative barrier step for the given drift and volatility."""
        c = self.c if self.c is not None else self.c_mult * abs(mu) / sigma
        if not (0 < c < 0.5):
            cause = "" if self.c is not None else (
                f": c = c_mult * |mu| / sigma with c_mult={self.c_mult!r}, "
                f"mu={mu!r}, sigma={sigma!r}")
            raise ValueError(f"resolved c={c} outside (0, 1/2){cause}")
        return c


class CycleRecord(NamedTuple):
    """Diagnostics captured when a cycle's strategy is solved."""

    anchor: float
    c: float
    q: float
    alpha: float
    orientation: str
    psi: StrategyVector


# ---------------------------------------------------------------------------
# cycles and the run loop
# ---------------------------------------------------------------------------

# A cycle is one trading cycle written as a generator: it yields each barrier
# query (from_index, lo, hi), the corridor of one leg, and is sent the hit as
# (index, level), or None when the path ends first; it returns the final stop
# (index, level), or None when the path ends before the cycle completes.  A
# schedule is a whole run in the same form, returning the RunResult.  Any
# driver that answers the queries as next_hit would gets the same run bit for
# bit: drive uses next_hit itself, run_seeded a next_hits scan of many rows
# at once.  Each leg starts from the level where the previous one ended,
# strictly inside its corridor, so its first exit is also the first touch or
# crossing of a barrier by the segments from that level.
Query = tuple[int, float, float]
Hit = tuple[int, float]
Cycle = Generator[Query, Hit | None, Hit | None]
Schedule = Generator[Query, Hit | None, RunResult]


def _two_legs(prices: np.ndarray, i: int, anchor: float, snap: bool,
              led: TradeLedger, phi: StrategyVector, c: float) -> Cycle:
    """The two legs every cycle starts with, from index ``i``: phi1 until
    the path leaves (a(1-c), a(1+c)), then phi2+ until it leaves
    (a, a(1+2c)), or phi2- until it leaves (a(1-2c), a).  The embedded
    model's second step from a(1+c) also stops at a(1-2c), but a path from
    inside (a, a(1+2c)) reaches that level only across a; mirrored alike."""
    led.execute(i, anchor if snap else float(prices[i]),
                phi.phi1 - led.open_position)
    hit = yield i, anchor * (1 - c), anchor * (1 + c)
    if hit is None:
        return None
    i1, l1 = hit
    up = l1 > anchor
    led.execute(i1, l1 if snap else float(prices[i1]),
                (phi.phi2_up if up else phi.phi2_down) - led.open_position)
    if up:
        return (yield i1, anchor, anchor * (1 + 2 * c))
    return (yield i1, anchor * (1 - 2 * c), anchor)


def embedded_cycle(prices: np.ndarray, i: int, anchor: float, snap: bool,
                   led: TradeLedger,
                   cycle_trace: list[CycleRecord] | None = None, *,
                   c: float, q: float, alpha: float = 0.0) -> Cycle:
    """One embedded binomial cycle from index ``i``: the two legs of
    _two_legs with the positions of embedded_phi.  alpha is only recorded
    in the trace."""
    phi = embedded_phi(c, anchor, q)
    if cycle_trace is not None:
        cycle_trace.append(CycleRecord(anchor, c, q, alpha, "positive", phi))
    return (yield from _two_legs(prices, i, anchor, snap, led, phi, c))


def trend_cycle(prices: np.ndarray, i: int, anchor: float, snap: bool,
                led: TradeLedger,
                cycle_trace: list[CycleRecord] | None = None, *,
                c: float, q: float, alpha: float,
                orientation: str) -> Cycle:
    """One trend-schedule cycle from index ``i``: the two legs of
    _two_legs; if the second ended at the trend barrier (a(1+2c) for a
    positive orientation, a(1-2c) for a negative one), psi3 until the path
    leaves (a, a(1+4c)), mirrored (a(1-4c), a).

    The positions are solve_three_leg's on the grid's increments (the
    reversal level is the anchor, so the trend and dichotomy strategies
    coincide).  Grid levels that are not strictly increasing floats raise
    DegenerateModel.
    """
    positive = orientation == "positive"
    s_up, s_down = anchor * (1 + c), anchor * (1 - c)
    s_uu, s_dd = anchor * (1 + 2 * c), anchor * (1 - 2 * c)
    trend = s_uu if positive else s_dd
    far = anchor * (1 + 4 * c) if positive else anchor * (1 - 4 * c)
    levels = (s_dd, s_down, anchor, s_up, s_uu)
    levels = levels + (far,) if positive else (far,) + levels
    if not all(lo < hi for lo, hi in zip(levels, levels[1:])):
        raise DegenerateModel(f"grid levels collapse at c={c!r}, "
                              f"anchor={anchor!r}")
    up, down = s_up - anchor, s_down - anchor
    psi = solve_three_leg((up, up, down, down),
                          (s_uu - s_up, anchor - s_up, anchor - s_down,
                           s_dd - s_down),
                          far - trend, anchor - trend, alpha, q, positive)
    if cycle_trace is not None:
        cycle_trace.append(CycleRecord(anchor, c, q, alpha, orientation,
                                       psi))
    hit = yield from _two_legs(prices, i, anchor, snap, led, psi, c)
    if hit is None or hit[1] != trend:
        return hit
    i2, l2 = hit
    led.execute(i2, l2 if snap else float(prices[i2]),
                psi.phi3 - led.open_position)
    if positive:
        return (yield i2, anchor, far)
    return (yield i2, far, anchor)


def _cycle(params: GbmParams, config: StrategyConfig,
           q: float) -> Callable[..., Cycle]:
    """The cycle of a strategy config, with its fixed arguments bound."""
    c = config.resolved_c(params.mu, params.sigma)
    if config.kind == "embedded" or config.alpha == 1.0:
        # the trend leg carries no position at alpha = 1: the embedded run
        return partial(embedded_cycle, c=c, q=q, alpha=config.alpha)
    return partial(trend_cycle, c=c, q=q, alpha=config.alpha,
                   orientation="positive" if params.mu >= 0 else "negative")


def _last_mark(ledger: TradeLedger, anchor: float) -> float:
    return ledger.events[-1][1] if ledger.events else anchor


def _schedule(prices: np.ndarray, cycle: Callable[..., Cycle], snap: bool,
              led: TradeLedger,
              cycle_trace: list[CycleRecord] | None = None) -> Schedule:
    """A run on one row of prices: cycles anchored where the previous one
    stopped, each liquidated at its stop, until the first positive P&L or
    the horizon, where an open position is liquidated."""
    n = prices.size
    n_rep = 0
    anchor = float(prices[0])
    i = 0
    while i < n - 1:
        stop = yield from cycle(prices, i, anchor, snap, led, cycle_trace)
        if stop is None:
            break
        i, level = stop
        led.close_out(i, level if snap else float(prices[i]))
        n_rep += 1
        if led.cash > 0.0:
            return RunResult(led.cash, n_rep, len(led.events), "PositivePnl")
        anchor = level if snap else float(prices[i])
    pnl = led.close_out(n - 1,
                        _last_mark(led, anchor) if snap
                        else float(prices[-1]))
    return RunResult(pnl, n_rep, len(led.events), "Horizon")


def drive(schedule: Generator[Query, Hit | None, object],
          path: PricePath):
    """Answer the queries of a schedule or a cycle on ``path`` with
    next_hit; returns what the generator returns."""
    try:
        query = next(schedule)
        while True:
            query = schedule.send(next_hit(path, *query))
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------
# one-path runner
# ---------------------------------------------------------------------------


def run_path(path: PricePath, params: GbmParams, config: StrategyConfig, *,
             ledger: TradeLedger | None = None,
             cycle_trace: list[CycleRecord] | None = None) -> RunResult:
    """Run the configured strategy along one path.  The ledger and the
    cycle trace, when given, record the executions and the per-cycle
    solves.  Raises NoSaExists when q = 1 (skipped-run marker)."""
    c = config.resolved_c(params.mu, params.sigma)
    q = embedded_q(c, params.mu, params.sigma)
    led = ledger if ledger is not None else TradeLedger()
    return drive(_schedule(path.prices, _cycle(params, config, q),
                           config.execution_mode == "snap", led,
                           cycle_trace), path)


# ---------------------------------------------------------------------------
# chunk engine
# ---------------------------------------------------------------------------


def _advance(schedule: Schedule, hit: Hit | None,
             ) -> tuple[Query | None, RunResult | None]:
    """Send a hit to a schedule: its next query, or its result."""
    try:
        return schedule.send(hit), None
    except StopIteration as stop:
        return None, stop.value


def run_seeded(params: GbmParams, config: StrategyConfig, q: float,
               seeds: Iterable[int | np.random.bit_generator.ISeedSequence],
               ) -> list[RunResult]:
    """Run the strategy on the GBM path of each seed; result k equals
    run_path on simulate_gbm(params, s), with s = seeds[k] for an int seed
    and, for a seeding.RunStream, the int seed its words derive from.  The
    seeds are those of simulate_gbm_rows.

    q is embedded_q(c, mu, sigma), computed once by the caller.  The paths
    are the rows of one price matrix of chunk_rows(n_steps) rows, at most
    CHUNK_BYTES of prices.  In each step one next_hits scan of at most
    SCAN_SEGMENTS segments answers the pending corridor queries of all
    rows, and the runs that got a hit (or reached the path end) advance to
    their next query.  The rows of finished runs are then refilled with the
    next seeds' paths, so that the scans stay wide until the seeds run out.
    The per-cycle strategy solves stay scalar Python calls, because
    vectorised power and division kernels may round differently.
    """
    cycle = _cycle(params, config, q)
    snap = config.execution_mode == "snap"
    rows = chunk_rows(params.n_steps)
    seeds = iter(seeds)
    prices = simulate_gbm_rows(params, list(islice(seeds, rows)))
    results: list[RunResult | None] = []
    owner = [0] * len(prices)  # the position in results of each row's run
    schedules: list[Schedule | None] = [None] * len(prices)
    pending: dict[int, Query] = {}

    def start(r: int) -> None:
        owner[r] = len(results)
        results.append(None)
        schedules[r] = _schedule(prices[r], cycle, snap, TradeLedger())
        pending[r] = next(schedules[r])

    for r in range(len(prices)):
        start(r)
    free: list[int] = []
    more = len(prices) == rows
    while pending:
        scanned = list(pending)
        starts, lo, hi = zip(*pending.values())
        index, level = next_hits(prices, scanned, starts, lo, hi)
        for r, k, i, lvl in zip(scanned, starts, index.tolist(),
                                level.tolist()):
            if i < 0 and k + SCAN_SEGMENTS < prices.shape[1] - 1:
                # no hit yet: the scan resumes after this window
                pending[r] = (k + SCAN_SEGMENTS + 1, *pending[r][1:])
                continue
            query, result = _advance(schedules[r],
                                     None if i < 0 else (i, lvl))
            if query is None:
                del pending[r]
                results[owner[r]] = result
                free.append(r)
            else:
                pending[r] = query
        if more and free:
            batch = list(islice(seeds, len(free)))
            more = len(batch) == len(free)
            filled, free = free[:len(batch)], free[len(batch):]
            prices[filled] = simulate_gbm_rows(params, batch)
            for r in filled:
                start(r)
    return results
