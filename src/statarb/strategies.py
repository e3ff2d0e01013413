"""Drive lattice strategies over price paths via barrier-hit schedules.

Each run iterates trading cycles anchored at the price reached by the
previous cycle: positions are adjusted whenever the path reaches the next
barrier of the cycle, the whole run stops at the first cycle end with
positive cumulative P&L, and an open position is liquidated at the horizon.

The cycles are written once, as generators of barrier queries on the grid
a(1 + k*c): embedded_cycle (two legs, solved by embedded_phi) and
trend_cycle (three legs with a continue/reverse branch, solved from the
grid's increments by lattice.solve_three_leg).  A snap anchor is a grid
level, so the drivers' cycles solve each snap anchor once per experiment
and reuse the solve (_cycle).  Each query is a corridor
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
    extend_gbm_rows,
    next_hit,
    next_hits,
    prefix_points,
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


def _collapsed(c: float, anchor: float) -> DegenerateModel:
    return DegenerateModel(f"grid levels collapse at c={c!r}, "
                           f"anchor={anchor!r}")


def _embedded_solve(anchor: float, c: float, q: float) -> StrategyVector:
    if not (anchor * (1 - 2 * c) < anchor * (1 - c) < anchor
            < anchor * (1 + c) < anchor * (1 + 2 * c)):
        raise _collapsed(c, anchor)
    return embedded_phi(c, anchor, q)


def _trend_solve(anchor: float, c: float, q: float, alpha: float,
                 positive: bool) -> StrategyVector:
    s_up, s_down = anchor * (1 + c), anchor * (1 - c)
    s_uu, s_dd = anchor * (1 + 2 * c), anchor * (1 - 2 * c)
    trend = s_uu if positive else s_dd
    far = anchor * (1 + 4 * c) if positive else anchor * (1 - 4 * c)
    if not (s_dd < s_down < anchor < s_up < s_uu
            and (trend < far if positive else far < trend)):
        raise _collapsed(c, anchor)
    up, down = s_up - anchor, s_down - anchor
    return solve_three_leg((up, up, down, down),
                           (s_uu - s_up, anchor - s_up, anchor - s_down,
                            s_dd - s_down),
                           far - trend, anchor - trend, alpha, q, positive)


def _solved(solve: Callable[..., StrategyVector],
            memo: dict[float, StrategyVector] | None, anchor: float,
            *args) -> StrategyVector:
    """solve(anchor, *args), looked up in ``memo`` first when one is given.
    Only successful solves are stored, so an anchor whose solve raises
    raises at every cycle."""
    if memo is None:
        return solve(anchor, *args)
    psi = memo.get(anchor)
    if psi is None:
        psi = memo[anchor] = solve(anchor, *args)
    return psi


def embedded_cycle(prices: np.ndarray, i: int, anchor: float, snap: bool,
                   led: TradeLedger,
                   cycle_trace: list[CycleRecord] | None = None, *,
                   c: float, q: float, alpha: float = 0.0,
                   memo: dict[float, StrategyVector] | None = None,
                   ) -> Cycle:
    """One embedded binomial cycle from index ``i``: the two legs of
    _two_legs with the positions of embedded_phi.  alpha is only recorded
    in the trace.  Grid levels a(1-2c) < a(1-c) < a < a(1+c) < a(1+2c)
    that are not strictly increasing floats raise DegenerateModel.

    ``memo``, when given, keeps the positions solved at each anchor for
    reuse by later cycles with the same c, q and alpha (see _cycle).
    """
    phi = _solved(_embedded_solve, memo, anchor, c, q)
    if cycle_trace is not None:
        cycle_trace.append(CycleRecord(anchor, c, q, alpha, "positive", phi))
    return (yield from _two_legs(prices, i, anchor, snap, led, phi, c))


def trend_cycle(prices: np.ndarray, i: int, anchor: float, snap: bool,
                led: TradeLedger,
                cycle_trace: list[CycleRecord] | None = None, *,
                c: float, q: float, alpha: float,
                orientation: str,
                memo: dict[float, StrategyVector] | None = None) -> Cycle:
    """One trend-schedule cycle from index ``i``: the two legs of
    _two_legs; if the second ended at the trend barrier (a(1+2c) for a
    positive orientation, a(1-2c) for a negative one), psi3 until the path
    leaves (a, a(1+4c)), mirrored (a(1-4c), a).

    The positions are solve_three_leg's on the grid's increments (the
    reversal level is the anchor, so the trend and dichotomy strategies
    coincide).  Grid levels that are not strictly increasing floats raise
    DegenerateModel.  ``memo`` is embedded_cycle's, for a fixed
    orientation too.
    """
    positive = orientation == "positive"
    psi = _solved(_trend_solve, memo, anchor, c, q, alpha, positive)
    if cycle_trace is not None:
        cycle_trace.append(CycleRecord(anchor, c, q, alpha, orientation,
                                       psi))
    hit = yield from _two_legs(prices, i, anchor, snap, led, psi, c)
    if hit is None or hit[1] != (anchor * (1 + 2 * c) if positive
                                 else anchor * (1 - 2 * c)):
        return hit
    i2, l2 = hit
    led.execute(i2, l2 if snap else float(prices[i2]),
                psi.phi3 - led.open_position)
    if positive:
        return (yield i2, anchor, anchor * (1 + 4 * c))
    return (yield i2, anchor * (1 - 4 * c), anchor)


def _cycle(params: GbmParams, config: StrategyConfig,
           q: float) -> Callable[..., Cycle]:
    """The cycle of a strategy config, with its fixed arguments bound.

    In snap mode every anchor is a grid level, so a run and the runs of an
    experiment revisit few anchors (164 in 57614 embedded cycles at the
    CLI defaults); the bound cycle then solves each anchor once, in a memo
    keyed on the anchor alone, since c, q, alpha and the orientation are
    fixed here.  Observed anchors are prices, of which only s0 repeats
    from run to run, so observed mode solves every cycle.
    """
    c = config.resolved_c(params.mu, params.sigma)
    memo = {} if config.execution_mode == "snap" else None
    if config.kind == "embedded" or config.alpha == 1.0:
        # the trend leg carries no position at alpha = 1: the embedded run
        return partial(embedded_cycle, c=c, q=q, alpha=config.alpha,
                       memo=memo)
    return partial(trend_cycle, c=c, q=q, alpha=config.alpha,
                   orientation="positive" if params.mu >= 0 else "negative",
                   memo=memo)


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
    and, for a seeding.RunStream, the int seed its words derive from,
    whenever simulate_gbm accepts that path.  The seeds are those of
    simulate_gbm_rows.

    q is embedded_q(c, mu, sigma), computed once by the caller.  The paths
    are the rows of one price matrix of chunk_rows(n_steps) rows, at most
    CHUNK_BYTES of prices.  In each step one next_hits scan of at most
    SCAN_SEGMENTS segments answers the pending corridor queries of all
    rows, and the runs that got a hit (or reached the path end) advance to
    their next query.  The rows of finished runs are then refilled with the
    next seeds' paths, so that the scans stay wide until the seeds run out.
    The per-cycle strategy solves stay scalar Python calls, because
    vectorised power and division kernels may round differently.

    Most runs end early, so a row is filled with the first
    prefix_points(n_steps) points of its path only.  The row keeps its
    generator and last log price, and the rest of the path is generated,
    for all such rows of a step in one call, before the first scan whose
    window reads past the prefix.  The split changes no bit of a path, but
    an underflow to 0 in the part no scan reads no longer fails the run.
    """
    cycle = _cycle(params, config, q)
    snap = config.execution_mode == "snap"
    n_points = params.n_steps + 1
    prefix = prefix_points(params.n_steps)
    rows = chunk_rows(params.n_steps)
    seeds = iter(seeds)
    batch = list(islice(seeds, rows))
    prices = np.empty((len(batch), n_points))
    rngs: list[np.random.Generator | None] = [None] * len(batch)
    log_price = np.zeros(len(batch))  # at the last point of each prefix
    # the last start index whose scan window reads only generated points
    covered = np.zeros(len(batch), dtype=np.intp)
    results: list[RunResult | None] = []
    owner = [0] * len(batch)  # the position in results of each row's run
    schedules: list[Schedule | None] = [None] * len(batch)
    pending: dict[int, Query] = {}

    def fill(filled: list[int], batch: list) -> None:
        new_rngs = [np.random.default_rng(seed) for seed in batch]
        prices[filled, :prefix], log_price[filled] = extend_gbm_rows(
            params, new_rngs, np.zeros(len(batch)), prefix)
        covered[filled] = (prefix - 1 - SCAN_SEGMENTS if prefix < n_points
                           else n_points)
        for r, rng in zip(filled, new_rngs):
            rngs[r] = rng
            owner[r] = len(results)
            results.append(None)
            schedules[r] = _schedule(prices[r], cycle, snap, TradeLedger())
            pending[r] = next(schedules[r])

    def complete(late: np.ndarray) -> None:
        # the rest starts at the last prefix point, which it recomputes
        # bit for bit
        prices[late, prefix - 1:] = extend_gbm_rows(
            params, [rngs[r] for r in late], log_price[late],
            n_points - prefix + 1)[0]
        covered[late] = n_points

    fill(list(range(len(batch))), batch)
    free: list[int] = []
    more = len(batch) == rows
    while pending:
        scanned = np.fromiter(pending, dtype=np.intp, count=len(pending))
        starts, lo, hi = zip(*pending.values())
        start_at = np.array(starts, dtype=np.intp)
        late = start_at > covered[scanned]
        if late.any():
            complete(scanned[late])
        index, level = next_hits(prices, scanned, start_at, lo, hi)
        for r, k, i, lvl in zip(scanned.tolist(), starts, index.tolist(),
                                level.tolist()):
            if i < 0 and k + SCAN_SEGMENTS < n_points - 1:
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
            fill(filled, batch)
    return results
