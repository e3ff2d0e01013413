"""Drive lattice strategies over price paths via barrier-hit schedules.

Each runner iterates trading cycles anchored at the price reached by the
previous cycle: positions are adjusted whenever the path reaches the next
barrier of the schedule, the whole run stops at the first cycle end with
positive cumulative P&L, and an open position is liquidated at the horizon.

Execution modes:
  snap      executions at the exact barrier levels (idealized embedding);
            the next anchor is the final level; horizon liquidation at the
            last execution level, so the leg in flight adds nothing.  The
            legs the cut-off cycle completed stay in the P&L: after its
            first leg that is +-phi1*c*a, the first-leg payoff at anchor a.
  observed  executions at the simulated grid prices; the next anchor is the
            observed price at the final stop; horizon liquidation at the
            final grid price.

The runners take one PricePath and accept a ledger and a cycle trace for
inspection.  run_seeded runs the same schedules on many simulated paths at
once (see paths.next_hits) with identical results; it is the Monte Carlo
engine of the harness.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import islice
from typing import Callable, Generator, Iterable, NamedTuple

import numpy as np

from .errors import NoSaExists
from .gbm import GbmParams, embedded_phi, embedded_q
from .lattice import StrategyVector, TrendLattice, gfin_strategy, \
    trend_strategy
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
    "grid_trend_model",
    "run_embedded_binomial",
    "run_follow_trend",
    "run_gfin",
    "run_seeded",
]

KINDS = ("embedded", "trend", "gfin")
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
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    def resolved_c(self, mu: float, sigma: float) -> float:
        """The relative barrier step for the given drift and volatility."""
        c = self.c if self.c is not None else self.c_mult * abs(mu) / sigma
        if not (0 < c < 0.5):
            raise ValueError(f"resolved c={c} outside (0, 1/2)")
        return c


class CycleRecord(NamedTuple):
    """Diagnostics captured when a cycle's strategy is solved."""

    anchor: float
    c: float
    q: float
    alpha: float
    orientation: str
    psi: StrategyVector


def grid_trend_model(orientation: str, anchor: float,
                     c: float) -> TrendLattice:
    """The trend lattice induced by the barrier grid anchor*(1 + k*c):
    two embedded steps plus a third leg from anchor*(1 +- 2c) to either
    anchor*(1 +- 4c) (trend continues) or back to the anchor (reversal).

    Path probabilities are placeholders; strategy solvers receive the
    probability ratio explicitly.
    """
    p = (0.2,) * 5
    if orientation == "positive":
        return TrendLattice(orientation, anchor, anchor * (1 + c),
                            anchor * (1 - c), anchor * (1 + 2 * c), anchor,
                            anchor * (1 - 2 * c), anchor * (1 + 4 * c),
                            anchor, p)
    return TrendLattice(orientation, anchor, anchor * (1 + c),
                        anchor * (1 - c), anchor * (1 + 2 * c), anchor,
                        anchor * (1 - 2 * c), anchor * (1 - 4 * c),
                        anchor, p)


# ---------------------------------------------------------------------------
# run engines
# ---------------------------------------------------------------------------


def _solve_trend(model: TrendLattice, alpha: float,
                 ratio: float) -> StrategyVector:
    if model.orientation == "positive":
        return trend_strategy(model, alpha, ratio=ratio)
    return gfin_strategy(model, alpha, ratio=ratio)


def _solve_gfin(model: TrendLattice, alpha: float,
                ratio: float) -> StrategyVector:
    return gfin_strategy(model, alpha, ratio=ratio)


def _last_mark(ledger: TradeLedger, anchor: float) -> float:
    return ledger.events[-1][1] if ledger.events else anchor


def _trend_cycle(path: PricePath, i: int, anchor: float, c: float, q: float,
                 alpha: float, orientation: str, snap: bool,
                 solve: Callable[..., StrategyVector], led: TradeLedger,
                 cycle_trace: list[CycleRecord] | None,
                 ) -> tuple[int, float] | None:
    """Execute one trend-schedule cycle from index ``i``: psi1 to the first
    barrier, psi2 to the branch set, optionally psi3 to the third-leg set.

    Returns (final stop index, final stop level), or None when the path
    ends before the cycle completes; the caller liquidates either way.
    """
    prices = path.prices
    model = grid_trend_model(orientation, anchor, c)
    psi = solve(model, alpha, ratio=q)
    if cycle_trace is not None:
        cycle_trace.append(CycleRecord(anchor, c, q, alpha, orientation,
                                       psi))
    led.execute(i, anchor if snap else float(prices[i]),
                psi.phi1 - led.open_position)
    hit1 = next_hit(path, i, {anchor * (1 - c), anchor * (1 + c)},
                    ref_price=anchor)
    if hit1 is None:
        return None
    i1, l1 = hit1
    up = l1 > anchor
    pos2 = psi.phi2_up if up else psi.phi2_down
    led.execute(i1, l1 if snap else float(prices[i1]),
                pos2 - led.open_position)
    trend_level = anchor * (1 + 2 * c) if orientation == "positive" \
        else anchor * (1 - 2 * c)
    levels2 = {anchor * (1 + 2 * c), anchor} if up \
        else {anchor * (1 - 2 * c), anchor}
    hit2 = next_hit(path, i1, levels2, ref_price=l1)
    if hit2 is None:
        return None
    i2, l2 = hit2
    if l2 != trend_level:
        return i2, l2
    led.execute(i2, l2 if snap else float(prices[i2]),
                psi.phi3 - led.open_position)
    levels3 = {anchor, anchor * (1 + 4 * c)} if orientation == "positive" \
        else {anchor * (1 - 4 * c), anchor}
    hit3 = next_hit(path, i2, levels3, ref_price=l2)
    if hit3 is None:
        return None
    return hit3


def run_embedded_binomial(path: PricePath, params: GbmParams,
                          config: StrategyConfig, *,
                          ledger: TradeLedger | None = None,
                          cycle_trace: list[CycleRecord] | None = None,
                          ) -> RunResult:
    """Repeat the two-step embedded binomial strategy along the path.

    Per cycle anchored at a: hold phi1 until the path reaches a(1 +- c),
    then phi2+ or phi2- until it reaches one of {a(1-2c), a, a(1+2c)},
    then liquidate.  Raises NoSaExists when q = 1 (skipped-run marker).
    """
    if config.kind != "embedded":
        raise ValueError("config.kind must be 'embedded'")
    c = config.resolved_c(params.mu, params.sigma)
    q = embedded_q(c, params.mu, params.sigma)
    snap = config.execution_mode == "snap"
    prices = path.prices
    n = prices.size
    led = ledger if ledger is not None else TradeLedger()
    n_rep = 0
    anchor = float(prices[0])
    i = 0
    while i < n - 1:
        phi = embedded_phi(c, anchor, q)
        if cycle_trace is not None:
            cycle_trace.append(CycleRecord(anchor, c, q, config.alpha,
                                           "positive", phi))
        led.execute(i, anchor if snap else float(prices[i]),
                    phi.phi1 - led.open_position)
        hit1 = next_hit(path, i, {anchor * (1 - c), anchor * (1 + c)},
                        ref_price=anchor)
        if hit1 is None:
            break
        i1, l1 = hit1
        pos2 = phi.phi2_up if l1 > anchor else phi.phi2_down
        led.execute(i1, l1 if snap else float(prices[i1]),
                    pos2 - led.open_position)
        hit2 = next_hit(path, i1,
                        {anchor * (1 - 2 * c), anchor, anchor * (1 + 2 * c)},
                        ref_price=l1)
        if hit2 is None:
            break
        i2, l2 = hit2
        led.close_out(i2, l2 if snap else float(prices[i2]))
        n_rep += 1
        if led.cash > 0.0:
            return RunResult(led.cash, n_rep, len(led.events), "PositivePnl")
        anchor = l2 if snap else float(prices[i2])
        i = i2
    pnl = led.close_out(n - 1,
                        _last_mark(led, anchor) if snap
                        else float(prices[-1]))
    return RunResult(pnl, n_rep, len(led.events), "Horizon")


def _run_trend_like(path: PricePath, params: GbmParams,
                    config: StrategyConfig,
                    solve: Callable[..., StrategyVector],
                    ledger: TradeLedger | None,
                    cycle_trace: list[CycleRecord] | None) -> RunResult:
    """Shared engine for the trend-following schedules.

    Per cycle anchored at a: psi1 until a(1 +- c); psi2+- until the branch
    set ({a, a(1+2c)} from above, {a(1-2c), a} from below); if the trend
    barrier was reached, psi3 until the third-leg set ({a, a(1+4c)} for a
    positive orientation, {a(1-4c), a} mirrored), then liquidate.
    """
    if config.alpha == 1.0:
        # the trend leg carries no position; the run is exactly the
        # embedded one
        return run_embedded_binomial(path, params,
                                     replace(config, kind="embedded"),
                                     ledger=ledger, cycle_trace=cycle_trace)
    orientation = "positive" if params.mu >= 0 else "negative"
    c = config.resolved_c(params.mu, params.sigma)
    q = embedded_q(c, params.mu, params.sigma)
    snap = config.execution_mode == "snap"
    prices = path.prices
    n = prices.size
    led = ledger if ledger is not None else TradeLedger()
    n_rep = 0
    anchor = float(prices[0])
    i = 0
    while i < n - 1:
        step = _trend_cycle(path, i, anchor, c, q, config.alpha,
                            orientation, snap, solve, led, cycle_trace)
        if step is None:
            break
        i_end, l_end = step
        led.close_out(i_end, l_end if snap else float(prices[i_end]))
        n_rep += 1
        if led.cash > 0.0:
            return RunResult(led.cash, n_rep, len(led.events), "PositivePnl")
        anchor = l_end if snap else float(prices[i_end])
        i = i_end
    pnl = led.close_out(n - 1,
                        _last_mark(led, anchor) if snap
                        else float(prices[-1]))
    return RunResult(pnl, n_rep, len(led.events), "Horizon")


def run_follow_trend(path: PricePath, params: GbmParams,
                     config: StrategyConfig, *,
                     ledger: TradeLedger | None = None,
                     cycle_trace: list[CycleRecord] | None = None,
                     ) -> RunResult:
    """Trend-following runs: embedded steps plus a third leg riding two
    consecutive moves in the drift direction."""
    if config.kind != "trend":
        raise ValueError("config.kind must be 'trend'")
    return _run_trend_like(path, params, config, _solve_trend, ledger,
                           cycle_trace)


def run_gfin(path: PricePath, params: GbmParams,
             config: StrategyConfig, *,
             ledger: TradeLedger | None = None,
             cycle_trace: list[CycleRecord] | None = None) -> RunResult:
    """Like run_follow_trend, with positions from the reversal-bounded
    solver (identical on this barrier grid, where the reversal level is
    the anchor itself)."""
    if config.kind != "gfin":
        raise ValueError("config.kind must be 'gfin'")
    return _run_trend_like(path, params, config, _solve_gfin, ledger,
                           cycle_trace)


# ---------------------------------------------------------------------------
# chunk engine
# ---------------------------------------------------------------------------

# A schedule is one run written as a generator: it yields each barrier query
# (from_index, levels, ref_price) and is sent the hit as (index, level), or
# None when the path ends first; it returns the RunResult.  The statements
# between queries are those of the one-path runners, in the same order, so
# every run's arithmetic and hence its result is the same bit for bit.
Query = tuple[int, tuple[float, ...], float | None]
Schedule = Generator[Query, tuple[int, float] | None, RunResult]


def _embedded_schedule(prices: np.ndarray, c: float, q: float,
                       snap: bool) -> Schedule:
    """run_embedded_binomial on one row of prices."""
    n = prices.size
    led = TradeLedger()
    n_rep = 0
    anchor = float(prices[0])
    i = 0
    while i < n - 1:
        phi = embedded_phi(c, anchor, q)
        led.execute(i, anchor if snap else float(prices[i]),
                    phi.phi1 - led.open_position)
        hit1 = yield i, (anchor * (1 - c), anchor * (1 + c)), anchor
        if hit1 is None:
            break
        i1, l1 = hit1
        pos2 = phi.phi2_up if l1 > anchor else phi.phi2_down
        led.execute(i1, l1 if snap else float(prices[i1]),
                    pos2 - led.open_position)
        hit2 = yield (i1, (anchor * (1 - 2 * c), anchor,
                           anchor * (1 + 2 * c)), l1)
        if hit2 is None:
            break
        i2, l2 = hit2
        led.close_out(i2, l2 if snap else float(prices[i2]))
        n_rep += 1
        if led.cash > 0.0:
            return RunResult(led.cash, n_rep, len(led.events), "PositivePnl")
        anchor = l2 if snap else float(prices[i2])
        i = i2
    pnl = led.close_out(n - 1,
                        _last_mark(led, anchor) if snap
                        else float(prices[-1]))
    return RunResult(pnl, n_rep, len(led.events), "Horizon")


def _trend_schedule(prices: np.ndarray, c: float, q: float, snap: bool,
                    alpha: float, orientation: str,
                    solve: Callable[..., StrategyVector]) -> Schedule:
    """_run_trend_like (with _trend_cycle inlined) on one row of prices."""
    n = prices.size
    led = TradeLedger()
    n_rep = 0
    anchor = float(prices[0])
    i = 0
    positive = orientation == "positive"
    while i < n - 1:
        psi = solve(grid_trend_model(orientation, anchor, c), alpha, ratio=q)
        led.execute(i, anchor if snap else float(prices[i]),
                    psi.phi1 - led.open_position)
        hit1 = yield i, (anchor * (1 - c), anchor * (1 + c)), anchor
        if hit1 is None:
            break
        i1, l1 = hit1
        up = l1 > anchor
        pos2 = psi.phi2_up if up else psi.phi2_down
        led.execute(i1, l1 if snap else float(prices[i1]),
                    pos2 - led.open_position)
        trend_level = anchor * (1 + 2 * c) if positive \
            else anchor * (1 - 2 * c)
        levels2 = (anchor * (1 + 2 * c), anchor) if up \
            else (anchor * (1 - 2 * c), anchor)
        hit = yield i1, levels2, l1
        if hit is None:
            break
        i_end, l_end = hit
        if l_end == trend_level:
            led.execute(i_end, l_end if snap else float(prices[i_end]),
                        psi.phi3 - led.open_position)
            levels3 = (anchor, anchor * (1 + 4 * c)) if positive \
                else (anchor * (1 - 4 * c), anchor)
            hit = yield i_end, levels3, l_end
            if hit is None:
                break
            i_end, l_end = hit
        led.close_out(i_end, l_end if snap else float(prices[i_end]))
        n_rep += 1
        if led.cash > 0.0:
            return RunResult(led.cash, n_rep, len(led.events), "PositivePnl")
        anchor = l_end if snap else float(prices[i_end])
        i = i_end
    pnl = led.close_out(n - 1,
                        _last_mark(led, anchor) if snap
                        else float(prices[-1]))
    return RunResult(pnl, n_rep, len(led.events), "Horizon")


def _advance(schedule: Schedule, hit: tuple[int, float] | None,
             ) -> tuple[Query | None, RunResult | None]:
    """Send a hit to a schedule: its next query, or its result."""
    try:
        return schedule.send(hit), None
    except StopIteration as stop:
        return None, stop.value


def run_seeded(params: GbmParams, config: StrategyConfig, q: float,
               seeds: Iterable[int]) -> list[RunResult]:
    """Run the strategy on the GBM path of each seed; result k equals the
    one-path runner's on simulate_gbm(params, seeds[k]).

    q is embedded_q(c, mu, sigma), computed once by the caller.  The paths
    are the rows of one price matrix of chunk_rows(n_steps) rows, at most
    CHUNK_BYTES of prices.  In each step one
    next_hits scan of at most SCAN_SEGMENTS segments answers the pending
    barrier queries of all rows, and the runs that got a hit (or reached
    the path end) advance to their next query.  The rows of finished runs
    are then refilled with the next seeds' paths, so that the scans stay
    wide until the seeds run out.  The per-cycle strategy solves stay
    scalar Python calls, because vectorised power and division kernels may
    round differently.
    """
    c = config.resolved_c(params.mu, params.sigma)
    snap = config.execution_mode == "snap"
    if config.kind == "embedded" or config.alpha == 1.0:
        # the trend leg carries no position at alpha = 1: the embedded run
        schedule = partial(_embedded_schedule, c=c, q=q, snap=snap)
    else:
        schedule = partial(
            _trend_schedule, c=c, q=q, snap=snap, alpha=config.alpha,
            orientation="positive" if params.mu >= 0 else "negative",
            solve=_solve_trend if config.kind == "trend" else _solve_gfin)

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
        schedules[r] = schedule(prices[r])
        pending[r] = next(schedules[r])

    for r in range(len(prices)):
        start(r)
    free: list[int] = []
    more = len(prices) == rows
    while pending:
        scanned = list(pending)
        starts = [pending[r][0] for r in scanned]
        index, level = next_hits(prices, scanned, starts,
                                 [pending[r][1] for r in scanned],
                                 [pending[r][2] for r in scanned])
        for r, k, i, lvl in zip(scanned, starts, index.tolist(),
                                level.tolist()):
            if i < 0 and k + SCAN_SEGMENTS < prices.shape[1] - 1:
                # no hit yet: the scan resumes where this window ended
                pending[r] = (k + SCAN_SEGMENTS, pending[r][1], None)
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
