"""Drive lattice strategies over price paths via barrier-hit schedules.

Each run iterates trading cycles anchored at the price reached by the
previous cycle: positions are adjusted whenever the path reaches the next
barrier of the cycle, the whole run stops at the first cycle end with
positive cumulative P&L, and an open position is liquidated at the horizon.

The cycles are written once, as generators of barrier queries on the grid
a(1 + k*c) that trade the positions they are given: embedded_cycle (two
legs) and trend_cycle (three legs with a continue/reverse branch).  The
positions at an anchor are solved by embedded_positions (embedded_phi)
and trend_positions (lattice.solve_three_leg on the grid's increments).
_cycle binds a config's solve and legs into the one cycle the drivers
run: a snap anchor is a grid level, so there the solve is cached and each
snap anchor is solved once per experiment, and a cycle trace, when asked
for, is recorded there too.  Each query is a corridor
between two barriers, and a leg ends where the path first leaves it.  The
paper's follow-the-trend and dichotomy strategies coincide on this grid,
where the reversal level is the anchor, so both are the one "trend" kind.
The run loop _schedule repeats one cycle along a row of prices.  Two
drivers answer the queries: drive with next_hit on one PricePath, for
run_path (which accepts a ledger and a cycle trace for inspection) and for
the backtest (which solves and drives single trend cycles), and
run_seeded with the scans of a paths.PathBlock of many simulated paths,
the Monte Carlo engine of the harness.  Both give the same results bit
for bit.

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
from functools import cache, partial
from itertools import islice
from typing import Callable, Generator, Iterable, NamedTuple

import numpy as np

from .errors import DegenerateModel
from .gbm import GbmParams, embedded_phi, embedded_q
from .lattice import StrategyVector, solve_three_leg
from .paths import PathBlock, PricePath, TradeLedger, chunk_rows, next_hit

__all__ = [
    "RunResult",
    "StrategyConfig",
    "CycleRecord",
    "embedded_positions",
    "trend_positions",
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
# (index, level), or None when the path ends before the cycle completes.  The
# cycle functions take the positions of the cycle; the cycle the run loop
# calls, cycle(prices, i, anchor, snap, led), is _cycle's, which solves them.  A
# schedule is a whole run in the same form, returning the RunResult.  Any
# driver that answers the queries as next_hit would gets the same run bit for
# bit: drive uses next_hit itself, run_seeded a PathBlock scan of many rows
# at once.  Each leg starts from the level where the previous one ended,
# strictly inside its corridor, so its first exit is also the first touch or
# crossing of a barrier by the segments from that level.
Query = tuple[int, float, float]
Hit = tuple[int, float]
Cycle = Generator[Query, Hit | None, Hit | None]
Schedule = Generator[Query, Hit | None, RunResult]


def _collapsed(c: float, anchor: float) -> DegenerateModel:
    return DegenerateModel(f"grid levels collapse at c={c!r}, "
                           f"anchor={anchor!r}")


def embedded_positions(anchor: float, c: float, q: float) -> StrategyVector:
    """The positions of an embedded cycle at ``anchor``: embedded_phi.
    Grid levels a(1-2c) < a(1-c) < a < a(1+c) < a(1+2c) that are not
    strictly increasing floats raise DegenerateModel."""
    if not (anchor * (1 - 2 * c) < anchor * (1 - c) < anchor
            < anchor * (1 + c) < anchor * (1 + 2 * c)):
        raise _collapsed(c, anchor)
    return embedded_phi(c, anchor, q)


def trend_positions(anchor: float, c: float, q: float, alpha: float,
                    positive: bool) -> StrategyVector:
    """The positions of a trend cycle at ``anchor``: solve_three_leg's on
    the grid's increments (the reversal level is the anchor, so the trend
    and dichotomy strategies coincide).  Grid levels that are not strictly
    increasing floats raise DegenerateModel."""
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


def embedded_cycle(prices: np.ndarray, i: int, anchor: float, snap: bool,
                   led: TradeLedger, phi: StrategyVector, *,
                   c: float) -> Cycle:
    """One embedded binomial cycle from index ``i`` with positions ``phi``:
    phi1 until the path leaves (a(1-c), a(1+c)), then phi2+ until it
    leaves (a, a(1+2c)), or phi2- until it leaves (a(1-2c), a).  The
    embedded model's second step from a(1+c) also stops at a(1-2c), but a
    path from inside (a, a(1+2c)) reaches that level only across a;
    mirrored alike."""
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


def trend_cycle(prices: np.ndarray, i: int, anchor: float, snap: bool,
                led: TradeLedger, psi: StrategyVector, *, c: float,
                positive: bool) -> Cycle:
    """One trend-schedule cycle from index ``i`` with positions ``psi``:
    the two legs of embedded_cycle; if the second ended at the trend
    barrier (a(1+2c) when ``positive``, a(1-2c) otherwise), psi3 until the
    path leaves (a, a(1+4c)), mirrored (a(1-4c), a)."""
    hit = yield from embedded_cycle(prices, i, anchor, snap, led, psi, c=c)
    if hit is None or hit[1] != (anchor * (1 + 2 * c) if positive
                                 else anchor * (1 - 2 * c)):
        return hit
    i2, l2 = hit
    led.execute(i2, l2 if snap else float(prices[i2]),
                psi.phi3 - led.open_position)
    if positive:
        return (yield i2, anchor, anchor * (1 + 4 * c))
    return (yield i2, anchor * (1 - 4 * c), anchor)


def _cycle(params: GbmParams, config: StrategyConfig, q: float,
           trace: list[CycleRecord] | None = None) -> Callable[..., Cycle]:
    """The cycle of a strategy config, called as
    cycle(prices, i, anchor, snap, led): it solves the positions at the
    anchor, appends a CycleRecord to ``trace`` when one is given, and
    trades the legs.

    In snap mode every anchor is a grid level, so a run and the runs of an
    experiment revisit few anchors (164 in 57614 embedded cycles at the
    CLI defaults); the solve, whose c, q, alpha and orientation are bound
    here, is then a functools.cache on the anchor, which stores no solve
    that raised.  Observed anchors are prices, of which only s0 repeats
    from run to run, so observed mode solves every cycle.
    """
    c = config.resolved_c(params.mu, params.sigma)
    alpha = config.alpha
    if config.kind == "embedded" or alpha == 1.0:
        # the trend leg carries no position at alpha = 1: the embedded run
        orientation = "positive"
        solve = partial(embedded_positions, c=c, q=q)
        legs = partial(embedded_cycle, c=c)
    else:
        positive = params.mu >= 0
        orientation = "positive" if positive else "negative"
        solve = partial(trend_positions, c=c, q=q, alpha=alpha,
                        positive=positive)
        legs = partial(trend_cycle, c=c, positive=positive)
    if config.execution_mode == "snap":
        solve = cache(solve)

    def cycle(prices: np.ndarray, i: int, anchor: float, snap: bool,
              led: TradeLedger) -> Cycle:
        psi = solve(anchor)
        if trace is not None:
            trace.append(CycleRecord(anchor, c, q, alpha, orientation, psi))
        return legs(prices, i, anchor, snap, led, psi)

    return cycle


def _last_mark(ledger: TradeLedger, anchor: float) -> float:
    return ledger.events[-1][1] if ledger.events else anchor


def _schedule(prices: np.ndarray, cycle: Callable[..., Cycle], snap: bool,
              led: TradeLedger) -> Schedule:
    """A run on one row of prices: cycles anchored where the previous one
    stopped, each liquidated at its stop, until the first positive P&L or
    the horizon, where an open position is liquidated."""
    n = prices.size
    n_rep = 0
    anchor = float(prices[0])
    i = 0
    while i < n - 1:
        stop = yield from cycle(prices, i, anchor, snap, led)
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


def _advance(schedule: Generator[Query, Hit | None, object],
             hit: Hit | None) -> tuple[Query | None, object]:
    """Send a hit (None to start): its next query, or None and its result."""
    try:
        return schedule.send(hit), None
    except StopIteration as stop:
        return None, stop.value


def drive(schedule: Generator[Query, Hit | None, object],
          path: PricePath):
    """Answer the queries of a schedule or a cycle on ``path`` with
    next_hit; returns what the generator returns."""
    query, result = _advance(schedule, None)
    while query is not None:
        query, result = _advance(schedule, next_hit(path, *query))
    return result


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
    cycle = _cycle(params, config, q, cycle_trace)
    return drive(_schedule(path.prices, cycle,
                           config.execution_mode == "snap", led), path)


# ---------------------------------------------------------------------------
# chunk engine
# ---------------------------------------------------------------------------


def run_seeded(params: GbmParams, config: StrategyConfig, q: float,
               seeds: Iterable[int | np.random.bit_generator.ISeedSequence],
               ) -> list[RunResult]:
    """Run the strategy on the GBM path of each seed; result k equals
    run_path on simulate_gbm(params, s), with s = seeds[k] for an int seed
    and, for a seeding.RunStream, the int seed its words derive from,
    whenever simulate_gbm accepts that path.

    q is embedded_q(c, mu, sigma), computed once by the caller.  The paths
    of chunk_rows(n_steps) runs at a time are the rows of one PathBlock.
    Each of its scans answers or moves on the pending corridor queries of
    all rows, and the runs that got an answer advance to their next query.
    The rows of finished runs are then refilled with the next seeds'
    paths, so that the scans stay wide until the seeds run out.  The
    per-cycle strategy solves stay scalar Python calls, because vectorised
    power and division kernels may round differently.
    """
    cycle = _cycle(params, config, q)
    snap = config.execution_mode == "snap"
    rows = chunk_rows(params.n_steps)
    block = PathBlock(params, rows)
    seeds = iter(seeds)
    results: list[RunResult | None] = []
    owner = [0] * rows  # the position in results of each row's run
    schedules: list[Schedule | None] = [None] * rows
    pending: dict[int, Query] = {}
    free = list(range(rows))
    while True:
        batch = list(islice(seeds, len(free)))
        if batch:
            filled, free = free[:len(batch)], free[len(batch):]
            block.fill(filled, batch)
            for r in filled:
                owner[r] = len(results)
                results.append(None)
                schedules[r] = _schedule(block.prices[r], cycle, snap,
                                         TradeLedger())
                pending[r] = next(schedules[r])
        if not pending:
            return results
        for r, hit in block.scan(pending):
            query, result = _advance(schedules[r], hit)
            if query is None:
                del pending[r]
                results[owner[r]] = result
                free.append(r)
            else:
                pending[r] = query
