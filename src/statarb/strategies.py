"""Drive lattice strategies over price paths with a table of cycle legs.

Each run iterates trading cycles anchored at the price reached by the
previous cycle: positions are adjusted whenever the path reaches the next
barrier of the cycle, the whole run stops at the first cycle end with
positive cumulative P&L, and an open position is liquidated at the horizon.

A cycle is a small automaton on the grid a(1 + k*c), written once as a leg
table (leg_table).  Each Leg is a corridor and an entry level, given as
multipliers of the anchor a, and the leg that follows an exit through
each side, or None where the cycle ends; leg k holds psi[k], field k of
the cycle's solved StrategyVector psi.  A leg ends where the path first
leaves its corridor.
The embedded cycle has three legs (first, up, down); the trend cycle adds
a third leg after the up leg in the positive orientation and after the
down leg in the negative one.  The paper's follow-the-trend and
dichotomy strategies coincide on this grid, where the reversal level is
the anchor, so both are the one "trend" kind.  The positions at an anchor
are solved by gbm.embedded_phi and trend_positions
(scenarios.solve_three_leg on the grid's increments).  cycle_plan forms
q = embedded_q(c, mu, sigma), its one call, and returns it with a cycle's
solve, table and orientation; _plan resolves a config's c for it, caching
the solve in snap mode, where anchors are grid levels, once per anchor.

Two interpreters run the table and give the same results bit for bit:
- run_cycle trades one cycle on one PricePath with next_hit and a
  TradeLedger, whose events it records, and ends it flat: closed out at
  its final exit or liquidated at the path end.  run_path repeats it
  along a path (and accepts a ledger and a cycle trace for inspection),
  and the backtest trades one planned cycle per estimation window.
- run_seeded, the Monte Carlo engine of the harness, keeps the run state
  of each row of a paths.PathBlock in plain lists and advances, in one
  loop per scan, every row the scan answered, and resumes the others.  It
  makes no ledger events: it applies the ledger's arithmetic in place.

Execution modes:
  snap      executions at the exact barrier levels (idealized embedding);
            the next anchor is the final level; horizon liquidation at the
            in-flight leg's entry level, so that leg adds nothing.  The
            legs the cut-off cycle completed stay in the P&L: after its
            first leg that is +-phi1*c*a, the first-leg payoff at anchor a.
  observed  executions at the simulated grid prices; the next anchor is the
            observed price at the final stop; horizon liquidation at the
            final grid price.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import islice
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import paths
from .errors import DegenerateModel
from .gbm import GbmParams, _collapsed, embedded_phi, embedded_q
from .lattice import KINDS, MODES, StrategyVector
from .paths import (
    PathBlock,
    PricePath,
    TradeLedger,
    chunk_rows,
    next_hit,
)
from .scenarios import check_alpha, check_alpha_input, solve_three_leg

__all__ = [
    "RunResult",
    "StrategyConfig",
    "CycleRecord",
    "Leg",
    "leg_table",
    "cycle_plan",
    "trend_positions",
    "run_cycle",
    "run_path",
    "run_seeded",
]


class RunResult(NamedTuple):
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
        check_alpha_input(self.alpha)

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
# the leg table and the solves
# ---------------------------------------------------------------------------


class Leg(NamedTuple):
    """One leg of a cycle at anchor a: leg k of a table holds the position
    psi[k] of the cycle's StrategyVector psi in the corridor (lo * a, hi * a),
    and the leg that follows an exit through lo or hi is on_lo or on_hi, an
    index into the cycle's table, or None where the cycle ends there.  It
    starts at entry * a, the anchor or the barrier that leads into it."""

    lo: float
    hi: float
    on_lo: int | None
    on_hi: int | None
    entry: float


@lru_cache(maxsize=64)
def leg_table(c: float, kind: str, positive: bool = True) -> tuple[Leg, ...]:
    """The legs of a cycle at step c, the first leg first.

    embedded: phi1 in (a(1-c), a(1+c)), then phi2+ in (a, a(1+2c)) after
    an exit up, or phi2- in (a(1-2c), a) after an exit down.  The embedded
    model's second step from a(1+c) also stops at a(1-2c), but a path from
    inside (a, a(1+2c)) reaches that level only across a; mirrored alike.
    trend: the same legs, and psi3 in (a, a(1+4c)) after the up leg's exit
    at a(1+2c) when ``positive``, or in (a(1-4c), a) after the down leg's
    exit at a(1-2c) otherwise.

    A corridor's multipliers are the factors of the levels a * (1 + k*c),
    and a * 1.0 == a, so every barrier is the float those levels are; an
    entry is the very float of its barrier (1.0 for the first leg)."""
    first = Leg(1 - c, 1 + c, 2, 1, 1.0)
    up = Leg(1.0, 1 + 2 * c, None, None, first.hi)
    down = Leg(1 - 2 * c, 1.0, None, None, first.lo)
    if kind == "embedded":
        return first, up, down
    if positive:
        trend = Leg(1.0, 1 + 4 * c, None, None, up.hi)
        return first, up._replace(on_hi=3), down, trend
    trend = Leg(1 - 4 * c, 1.0, None, None, down.lo)
    return first, up, down._replace(on_lo=3), trend


def trend_positions(anchor: float, c: float, q: float, alpha: float,
                    positive: bool) -> StrategyVector:
    """The positions of a trend cycle at ``anchor``: solve_three_leg's on
    the grid's increments (the reversal level is the anchor, so the trend
    and dichotomy strategies coincide).  Grid levels that are not strictly
    increasing floats raise DegenerateModel, and so does a trend level
    a(1 - 4c) <= 0 (negative orientation, c >= 1/4), which GBM never
    reaches."""
    s_up, s_down = anchor * (1 + c), anchor * (1 - c)
    s_uu, s_dd = anchor * (1 + 2 * c), anchor * (1 - 2 * c)
    trend = s_uu if positive else s_dd
    far = anchor * (1 + 4 * c) if positive else anchor * (1 - 4 * c)
    if not (s_dd < s_down < anchor < s_up < s_uu
            and (trend < far if positive else far < trend)):
        raise _collapsed(c, anchor)
    if far <= 0.0:
        raise DegenerateModel(f"trend level {far!r} is not positive at "
                              f"c={c!r}, anchor={anchor!r}")
    up, down = s_up - anchor, s_down - anchor
    return solve_three_leg((up, up, down, down),
                           (s_uu - s_up, anchor - s_up, anchor - s_down,
                            s_dd - s_down),
                           far - trend, anchor - trend, alpha, q, positive)


def cycle_plan(c: float, mu: float, sigma: float, kind: str, alpha: float,
               ) -> tuple[Callable[[float], StrategyVector], tuple[Leg, ...],
                          str, float]:
    """The solve (a function of the anchor), legs, orientation and q of a
    cycle at c, q = embedded_q(c, mu, sigma) formed first: mu >= 0 orients
    a trend cycle positive, and at alpha = 1, where its trend leg holds 0,
    it is the embedded cycle."""
    q = embedded_q(c, mu, sigma)
    if kind == "embedded" or alpha == 1.0:
        return (lambda anchor: embedded_phi(c, anchor, q),
                leg_table(c, "embedded"), "positive", q)
    positive = mu >= 0
    return (lambda anchor: trend_positions(anchor, c, q, alpha, positive),
            leg_table(c, "trend", positive),
            "positive" if positive else "negative", q)


def _plan(params: GbmParams, config: StrategyConfig,
          ) -> tuple[Callable[[float], StrategyVector], tuple[Leg, ...],
                     str, float, float]:
    """A config's cycle_plan at its resolved c, its solve a functools.cache
    on the anchor in snap mode (which stores no solve that raised), and
    that c and q."""
    c = config.resolved_c(params.mu, params.sigma)
    solve, legs, orientation, q = cycle_plan(c, params.mu, params.sigma,
                                             config.kind, config.alpha)
    if config.execution_mode == "snap":
        solve = cache(solve)
    return solve, legs, orientation, c, q


# ---------------------------------------------------------------------------
# one-path interpreter
# ---------------------------------------------------------------------------


def run_cycle(path: PricePath, i: int, anchor: float, snap: bool,
              led: TradeLedger, legs: tuple[Leg, ...],
              psi: StrategyVector) -> tuple[int, float] | None:
    """Trade one cycle of ``legs`` with the positions of ``psi`` on
    ``path`` from index ``i``, answering each leg's corridor with next_hit,
    and leave ``led`` flat.

    The first leg's position is executed at the anchor, which is the price
    at i wherever a cycle starts in observed mode, and each later leg's at
    the exit that enters it: at the barrier level in snap mode, at the grid
    price in observed mode.  Each leg starts from the level where the
    previous one ended, strictly inside its corridor, so its first exit is
    also the first touch or crossing of a barrier by the segments from that
    level.  At the cycle's final exit the position is closed out at that
    exit's price, and (index, price) of the exit is returned: the next
    anchor.  When the path ends first, the position is liquidated at its
    last point, at the last execution price in snap mode and the last grid
    price in observed mode, and None is returned."""
    prices = path.prices
    k, price = 0, anchor
    while True:
        led.execute(i, price, psi[k] - led.open_position)
        leg = legs[k]
        hi = anchor * leg.hi
        hit = next_hit(path, i, anchor * leg.lo, hi)
        if hit is None:
            led.close_out(prices.size - 1,
                          price if snap else float(prices[-1]))
            return None
        i, level = hit
        price = level if snap else float(prices[i])
        k = leg.on_hi if level == hi else leg.on_lo
        if k is None:
            led.close_out(i, price)
            return i, price


def run_path(path: PricePath, params: GbmParams, config: StrategyConfig, *,
             ledger: TradeLedger | None = None,
             cycle_trace: list[CycleRecord] | None = None) -> RunResult:
    """Run the configured strategy along one path: cycles anchored where
    the previous one stopped, each liquidated at its stop, until the first
    positive P&L or the horizon, where an open position is liquidated.
    The ledger and the cycle trace, when given, record the executions and
    the per-cycle solves.  Raises NoSaExists when q = 1 (skipped-run
    marker), and run_experiment's ValueError when the P&L overflows."""
    led = ledger if ledger is not None else TradeLedger()
    solve, legs, orientation, c, q = _plan(params, config)
    snap = config.execution_mode == "snap"
    n = path.prices.size
    n_rep = 0
    anchor = float(path.prices[0])
    i = 0
    ended_by = "Horizon"
    while i < n - 1:
        psi = solve(anchor)
        if cycle_trace is not None:
            cycle_trace.append(CycleRecord(anchor, c, q, config.alpha,
                                           orientation, psi))
        stop = run_cycle(path, i, anchor, snap, led, legs, psi)
        if stop is None:
            break
        i, anchor = stop
        n_rep += 1
        if led.cash > 0.0:
            ended_by = "PositivePnl"
            break
    check_alpha(config.alpha, "the runs' P&L overflows", led.cash)
    return RunResult(led.cash, n_rep, len(led.events), ended_by)


# ---------------------------------------------------------------------------
# chunk engine
# ---------------------------------------------------------------------------


def run_seeded(params: GbmParams, config: StrategyConfig,
               seeds: Iterable[int | np.random.bit_generator.ISeedSequence],
               ) -> list[RunResult]:
    """Run the strategy on the GBM path of each seed; result k equals
    run_path on simulate_gbm(params, s), with s = seeds[k] for an int seed
    and, for a seeding.RunStream, the int seed its words derive from,
    whenever simulate_gbm accepts that path and that run's P&L is finite.

    The paths of chunk_rows(n_steps) runs at a time are the rows of one
    PathBlock, and each row's run state lives in plain lists: its anchor,
    the positions of its cycle, its leg, position, cash and event and cycle
    counts; a new run's first anchor is s0.  Each scan answers the pending
    corridor query of every row with one window; one loop then moves each
    unanswered query short of the path end to its first untested point,
    and resolves each other query to a price (at a snap row's horizon, its
    anchor times its leg's entry) and the following leg, None at a cycle's
    stop or the path end.  One ledger step per query enters that leg's
    position or flattens a row that is not flat, with TradeLedger's
    arithmetic in the same order, so the bits are run_path's.
    The rows of finished runs are refilled with the next seeds' paths, so
    that the scans stay wide until the seeds run out.  The per-cycle
    strategy solves stay scalar Python calls, because vectorised power and
    division kernels may round differently.
    """
    solve, legs, *_ = _plan(params, config)
    lo_of, hi_of, on_lo, on_hi, entry = zip(*legs)
    snap = config.execution_mode == "snap"
    n_rows = chunk_rows(params.n_steps)
    block = PathBlock(params, n_rows)
    prices = block.prices
    last = params.n_steps  # the index of a row's last point
    s0 = float(params.s0)  # a row's first price: its log price starts at 0
    window = paths.SCAN_SEGMENTS + 1  # the points one scan tests
    seeds = iter(seeds)
    results: list[RunResult | None] = []
    owner = [0] * n_rows  # the position in results of each row's run
    anchor = [0.0] * n_rows
    held: list[StrategyVector | None] = [None] * n_rows  # the cycle's psi
    leg = [0] * n_rows
    position = [0.0] * n_rows
    cash = [0.0] * n_rows
    events = [0] * n_rows
    cycles = [0] * n_rows
    pending: dict[int, tuple[int, float, float]] = {}  # each row's query
    starting: list[tuple[int, int, float]] = []  # (row, index, anchor)
    free = list(range(n_rows))
    while True:
        batch = list(islice(seeds, len(free)))
        if batch:
            filled, free = free[:len(batch)], free[len(batch):]
            block.fill(filled, batch)
            for r in filled:
                owner[r] = len(results)
                results.append(None)
                position[r] = cash[r] = 0.0
                events[r] = cycles[r] = 0
                starting.append((r, 0, s0))
        # cycles start in the order their rows' last cycles ended, then the
        # new runs' first cycles: of several solves that would raise, the
        # one the scans reached first raises
        for r, i, a in starting:
            held[r] = h = solve(a)
            # the row is flat (+0.0), h[0] is never -0.0: the ledger's bits
            cash[r] -= h[0] * a
            position[r] = h[0]
            events[r] += 1
            anchor[r] = a
            leg[r] = 0
            pending[r] = (i, a * lo_of[0], a * hi_of[0])
        starting.clear()
        if not pending:
            return results
        index, level = block.scan(pending)
        for (r, (k, lo, hi)), i, lvl in zip(list(pending.items()),
                                            index.tolist(), level.tolist()):
            if i >= 0:
                price = lvl if snap else prices.item(r, i)
                following = on_hi[leg[r]] if lvl == hi else on_lo[leg[r]]
            elif k + window <= last:
                pending[r] = (k + window, lo, hi)
                continue
            else:  # the horizon: the leg's entry (snap) or last price
                price = (anchor[r] * entry[leg[r]] if snap
                         else prices.item(r, last))
                following = None
            p = position[r]
            if following is not None or p != 0.0:
                delta = (0.0 if following is None else held[r][following]) - p
                cash[r] -= delta * price
                position[r] = p + delta
                events[r] += 1
            if following is not None:
                leg[r] = following
                a = anchor[r]
                pending[r] = (i, a * lo_of[following], a * hi_of[following])
                continue
            status = "Horizon"
            if i >= 0:  # the cycle ended at its stop
                cycles[r] += 1
                if cash[r] > 0.0:
                    status = "PositivePnl"
                elif i < last:
                    starting.append((r, i, price))
                    continue
            results[owner[r]] = RunResult(cash[r], cycles[r], events[r],
                                          status)
            del pending[r]
            free.append(r)
