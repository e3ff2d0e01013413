"""Tests for run_path, the leg tables it interprets and their ledgers."""
from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import grid_trend_lattice
from statarb.backtest import BacktestConfig, load_csv, run_backtest
from statarb.errors import DegenerateModel, NoSaExists
from statarb.gbm import GbmParams, embedded_phi, embedded_q
from statarb.harness import ExperimentConfig, run_experiment
from statarb.scenarios import (
    TrendLattice,
    gfin_strategy,
    payoff,
    trend_A_matrix,
)
from statarb.paths import PricePath, TradeLedger, simulate_gbm
from statarb import strategies
from statarb.strategies import (
    KINDS,
    MODES,
    CycleRecord,
    RunResult,
    StrategyConfig,
    leg_table,
    run_path,
    run_seeded,
    trend_positions,
)

MU, SIGMA = 0.3, 0.2
PARAMS = GbmParams(mu=MU, sigma=SIGMA, s0=100.0, horizon=1.0, n_steps=1000)
NEG_PARAMS = GbmParams(mu=-MU, sigma=SIGMA, s0=100.0, horizon=1.0,
                       n_steps=1000)
C = 0.05
Q = embedded_q(C, MU, SIGMA)

# barrier levels exactly as the cycles compute them from anchor 100
A = 100.0
UP, DOWN = A * (1 + C), A * (1 - C)
UP2, DOWN2 = A * (1 + 2 * C), A * (1 - 2 * C)
UP4, DOWN4 = A * (1 + 4 * C), A * (1 - 4 * C)


def make_path(values) -> PricePath:
    return PricePath(values)


def econfig(**kw) -> StrategyConfig:
    kw.setdefault("kind", "embedded")
    kw.setdefault("c", C)
    return StrategyConfig(**kw)


def replay_cycle_cash(ledger: TradeLedger) -> list[float]:
    """Cumulative cash at each moment the position returns to flat."""
    cash, position, marks = 0.0, 0.0, []
    for _, price, delta in ledger.events:
        cash -= delta * price
        position += delta
        if position == 0.0:
            marks.append(cash)
    return marks


# ------------------------------------------------------------ configuration


def test_strategy_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind="martingale", c=0.05)
    with pytest.raises(ValueError):
        StrategyConfig(kind="embedded", c=0.05, execution_mode="midpoint")
    with pytest.raises(ValueError):
        StrategyConfig(kind="embedded")
    with pytest.raises(ValueError):
        StrategyConfig(kind="embedded", c=0.05, c_mult=0.01)
    with pytest.raises(ValueError):
        StrategyConfig(kind="embedded", c=0.05, alpha=-0.1)
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha must be finite"):
            StrategyConfig(kind="trend", c=0.05, alpha=alpha)
    with pytest.raises(ValueError):
        StrategyConfig(kind="gfin", c=0.05)  # a CLI alias, not a kind
    cfg = StrategyConfig(kind="embedded", c_mult=0.01)
    assert cfg.resolved_c(0.1241, 0.0837) == pytest.approx(
        0.01 * 0.1241 / 0.0837)
    assert cfg.resolved_c(-0.1241, 0.0837) > 0
    with pytest.raises(ValueError):
        cfg.resolved_c(0.0, 0.0837)
    with pytest.raises(ValueError):
        StrategyConfig(kind="embedded", c=0.6).resolved_c(0.1, 0.2)


# ------------------------------------------------------- embedded hand-traces


def test_embedded_up_up_cycle():
    res = run_path(make_path([A, UP, UP2]), PARAMS, econfig())
    assert res.ended_by == "PositivePnl"
    assert res.n_repetitions == 1
    assert res.pnl == pytest.approx(1.0, abs=1e-9)


def test_embedded_up_down_cycle():
    res = run_path(make_path([A, UP, A]), PARAMS, econfig())
    assert res.ended_by == "PositivePnl"
    assert res.pnl == pytest.approx(3.0 / (Q - 1.0), rel=1e-9)


def test_embedded_down_up_cycle_then_horizon():
    path = make_path([A, DOWN, A, A, A])
    res = run_path(path, PARAMS, econfig())
    # the losing cycle completes, the follow-up cycle never leaves the band
    assert res.ended_by == "Horizon"
    assert res.n_repetitions == 1
    assert res.pnl == pytest.approx(-(2 * Q + 1) / (Q - 1.0), rel=1e-9)


def test_embedded_down_down_cycle():
    res = run_path(make_path([A, DOWN, DOWN2]), PARAMS, econfig())
    assert res.ended_by == "PositivePnl"
    assert res.pnl == pytest.approx(1.0, abs=1e-9)


def test_embedded_no_hit_liquidation_by_mode():
    phi = embedded_phi(C, A, Q)
    path = make_path([100.0, 101.0, 102.0])
    snap = run_path(path, PARAMS, econfig())
    assert snap.ended_by == "Horizon" and snap.n_repetitions == 0
    assert snap.pnl == 0.0  # liquidated at the last mark = anchor
    obs = run_path(path, PARAMS, econfig(execution_mode="observed"))
    assert obs.pnl == pytest.approx(phi.phi1 * 2.0, rel=1e-12)


def test_embedded_partial_second_leg_snap():
    phi = embedded_phi(C, A, Q)
    path = make_path([A, UP, UP, UP])
    res = run_path(path, PARAMS, econfig())
    # first leg completed at the barrier, second leg still open at horizon
    assert res.ended_by == "Horizon" and res.n_repetitions == 0
    assert res.pnl == pytest.approx(phi.phi1 * (UP - A), rel=1e-12)


def test_embedded_overshoot_executes_at_barriers():
    # one grid step jumps across both barriers; snap mode still trades the
    # idealized lattice sequence
    path = make_path([A, 125.0, 125.0])
    res = run_path(path, PARAMS, econfig())
    assert res.ended_by == "PositivePnl"
    assert res.n_repetitions == 1
    assert res.pnl == pytest.approx(1.0, abs=1e-9)


def test_embedded_multi_cycle_accumulates():
    # losing first cycle (down-up), winning second (up-up): the +1 gain does
    # not cover the loss, so the run carries on to the horizon
    path = make_path([A, DOWN, A, UP, UP2, UP2])
    res = run_path(path, PARAMS, econfig())
    assert res.n_repetitions == 2
    assert res.ended_by == "Horizon"
    expected = -(2 * Q + 1) / (Q - 1.0) + 1.0
    assert res.pnl == pytest.approx(expected, rel=1e-9)


def test_embedded_stops_once_cumulative_turns_positive():
    # down-up then up-down sum to exactly -2; a second up-down cycle tips
    # the cumulative ledger positive and the run stops there
    path = make_path([A, DOWN, A, UP, A, UP, A, A])
    res = run_path(path, PARAMS, econfig())
    assert res.ended_by == "PositivePnl"
    assert res.n_repetitions == 3
    assert res.pnl == pytest.approx(-2.0 + 3.0 / (Q - 1.0), rel=1e-9)


# ------------------------------------------------------------- leg tables


def test_leg_tables_follow_the_corridor_table():
    # README "Engine": leg 1 in (a(1-c), a(1+c)); leg 2 in (a, a(1+2c))
    # after an up exit, in (a(1-2c), a) after a down exit; the trend leg in
    # (a, a(1+4c)) after the up leg's hi exit (positive orientation), in
    # (a(1-4c), a) after the down leg's lo exit (negative orientation); each
    # leg enters at the level of the exit that leads into it
    first = (1 - C, 1 + C, 2, 1, 1.0)
    up = (1.0, 1 + 2 * C, None, None, 1 + C)
    down = (1 - 2 * C, 1.0, None, None, 1 - C)
    assert leg_table(C, "embedded") == (first, up, down)
    assert leg_table(C, "trend", True) == (
        first, (1.0, 1 + 2 * C, None, 3, 1 + C), down,
        (1.0, 1 + 4 * C, None, None, 1 + 2 * C))
    assert leg_table(C, "trend", False) == (
        first, up, (1 - 2 * C, 1.0, 3, None, 1 - C),
        (1 - 4 * C, 1.0, None, None, 1 - 2 * C))
    # the barriers at anchor A are the floats the grid levels are
    corridors = {(DOWN, UP), (A, UP2), (DOWN2, A), (A, UP4), (DOWN4, A)}
    for legs in (leg_table(C, "trend", True), leg_table(C, "trend", False)):
        assert {(A * leg.lo, A * leg.hi) for leg in legs} <= corridors
    # leg k holds psi[k]: first, up, down and trend leg in turn
    psi = trend_positions(A, C, Q, 0.25, False)
    assert tuple(psi) == (psi.phi1, psi.phi2_up, psi.phi2_down, psi.phi3)


@given(c=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
@example(c=1e-17)  # 1 + c == 1 - c == 1.0: the inner levels collapse
@example(c=0.25)  # the negative orientation's trend level 1 - 4c is 0
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_each_leg_enters_at_the_barrier_that_leads_into_it(c):
    # a snap run liquidated at the horizon executes at anchor * entry, so
    # each entry must be the float of the barrier the leg was entered by
    for kind, positive in (("embedded", True), ("trend", True),
                           ("trend", False)):
        legs = leg_table(c, kind, positive)
        assert legs[0].entry.hex() == (1.0).hex()
        entered = set()
        for leg in legs:
            for side, following in ((leg.lo, leg.on_lo),
                                    (leg.hi, leg.on_hi)):
                if following is not None:
                    entered.add(following)
                    assert legs[following].entry.hex() == side.hex()
            if len({leg.lo, leg.entry, leg.hi}) == 3:
                assert leg.lo < leg.entry < leg.hi
        assert entered == set(range(1, len(legs)))


@pytest.mark.parametrize("mode", MODES)
def test_run_cycle_ends_flat(mode):
    # a cycle that stops closes out at its final exit and returns the exit's
    # index and price; one the path end cuts off is liquidated at the last
    # point and returns None
    snap = mode == "snap"
    legs = leg_table(C, "embedded")
    psi = embedded_phi(C, A, Q)
    stops = make_path([A, 107.0, 112.0, 101.0])
    led = TradeLedger()
    assert strategies.run_cycle(stops, 0, A, snap, led, legs, psi) \
        == (2, UP2 if snap else 112.0)
    assert led.open_position == 0.0
    assert led.events[-1][:2] == (2, UP2 if snap else 112.0)
    assert led.events[-1][2] == pytest.approx(-psi.phi2_up, rel=1e-12)
    cut = make_path([A, 94.0, 97.0, 98.0])
    led = TradeLedger()
    assert strategies.run_cycle(cut, 0, A, snap, led, legs, psi) is None
    assert led.open_position == 0.0
    assert led.events[-1][:2] == (3, DOWN if snap else 98.0)
    assert led.events[-1][2] == pytest.approx(-psi.phi2_down, rel=1e-12)


@pytest.mark.parametrize("mode", MODES)
def test_negative_trend_runs_take_the_third_leg(mode, monkeypatch):
    # with a negative drift and orientation, many cycles leave the down leg
    # at a(1-2c) into the trend leg (a(1-4c), a); its lo exit is the
    # down leg's, and the run engine must take the same side
    params = GbmParams(mu=-MU, sigma=SIGMA, s0=100.0, horizon=1.0,
                       n_steps=300)
    config = econfig(kind="trend", alpha=0.5, execution_mode=mode)
    queries = []
    original = strategies.next_hit

    def recorded(path, i, lo, hi):
        queries.append((lo, hi))
        return original(path, i, lo, hi)

    monkeypatch.setattr(strategies, "next_hit", recorded)
    seeds = list(range(40))
    expected, third = [], 0
    for seed in seeds:
        trace: list[CycleRecord] = []
        queries.clear()
        expected.append(run_path(simulate_gbm(params, seed), params, config,
                                 cycle_trace=trace))
        assert {rec.orientation for rec in trace} == {"negative"}
        legs = {(rec.anchor * (1 - 4 * C), rec.anchor) for rec in trace}
        third += sum(corridor in legs for corridor in queries)
    assert third > 0
    got = run_seeded(params, config, seeds)
    assert got == expected
    assert [repr(r.pnl) for r in got] == [repr(r.pnl) for r in expected]


# ------------------------------------------------------------ trend traces


def test_trend_continuation_pays_one():
    path = make_path([A, UP, UP2, UP4])
    res = run_path(path, PARAMS, econfig(kind="trend"))
    assert res.ended_by == "PositivePnl"
    assert res.n_repetitions == 1
    assert res.pnl == pytest.approx(1.0, abs=1e-9)


def test_trend_reversal_pays_alpha():
    path = make_path([A, UP, UP2, A, A])
    res = run_path(path, PARAMS, econfig(kind="trend"))
    assert res.ended_by == "Horizon"
    assert res.n_repetitions == 1
    assert res.pnl == pytest.approx(0.0, abs=1e-9)
    res_half = run_path(path, PARAMS, econfig(kind="trend", alpha=0.5))
    assert res_half.ended_by == "PositivePnl"
    assert res_half.pnl == pytest.approx(0.5, abs=1e-9)


def test_trend_down_branch_without_trend_leg():
    trace: list[CycleRecord] = []
    path = make_path([A, DOWN, DOWN2])
    res = run_path(path, PARAMS, econfig(kind="trend"), cycle_trace=trace)
    assert res.ended_by == "PositivePnl"
    assert res.pnl == pytest.approx(1.0, abs=1e-9)
    # the up-then-back branch realizes the lattice payoff of that scenario
    model = grid_trend_lattice(A, C, "positive")
    psi = trace[0].psi
    path2 = make_path([A, UP, A, A])
    res2 = run_path(path2, PARAMS, econfig(kind="trend"))
    assert res2.pnl == pytest.approx(payoff(model, psi, 1), rel=1e-9)


def test_trend_negative_orientation_mirrors():
    path = make_path([A, DOWN, DOWN2, DOWN4])
    res = run_path(path, NEG_PARAMS, econfig(kind="trend"))
    assert res.ended_by == "PositivePnl"
    assert res.pnl == pytest.approx(1.0, abs=1e-9)
    # reversal back to the anchor pays alpha
    path2 = make_path([A, DOWN, DOWN2, A, A])
    res2 = run_path(path2, NEG_PARAMS, econfig(kind="trend", alpha=0.25))
    assert res2.ended_by == "PositivePnl"
    assert res2.pnl == pytest.approx(0.25, abs=1e-9)


def test_alpha_one_reduces_to_embedded():
    from statarb.paths import simulate_gbm
    for seed in range(25):
        path = simulate_gbm(PARAMS, seed=seed)
        for mode in ("snap", "observed"):
            led_e, led_t = TradeLedger(), TradeLedger()
            e = run_path(path, PARAMS, econfig(execution_mode=mode),
                         ledger=led_e)
            t = run_path(path, PARAMS,
                         econfig(kind="trend", alpha=1.0,
                                 execution_mode=mode),
                         ledger=led_t)
            assert e == t
            assert led_e.events == led_t.events


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("alpha,cause", [
    (1e305, "the runs' P&L overflows"),
    (1e307, "the runs' P&L overflows"),
    (1e308, "the three-leg positions overflow"),
])
def test_run_path_fails_as_run_experiment_on_an_overflowing_alpha(
        alpha, cause, mode):
    # the trend positions scale with 1 - alpha: below 1e308 they are finite,
    # but the run's cash overflows, and run_path used to return a nan P&L
    params = GbmParams(0.1241, 0.0837, 2186.0, 1.0, 50)
    config = StrategyConfig("trend", c_mult=0.01, alpha=alpha,
                            execution_mode=mode)
    with pytest.raises(ValueError) as experiment:
        run_experiment(ExperimentConfig(params, config, n_runs=3,
                                        master_seed=0))
    with pytest.raises(ValueError) as one_path:
        run_path(simulate_gbm(params, 1), params, config)
    assert str(one_path.value) == str(experiment.value) == \
        f"alpha={alpha!r} is too large: {cause}"


# --------------------------------------------------------------- grid solve


def grid_solve(anchor, c, orientation, alpha, q):
    """The positions of a trend cycle at ``anchor``."""
    return trend_positions(anchor, c, q, alpha, orientation == "positive")


def outcome(solve, *args, **kwargs):
    """The bits of a solve's positions, or the type of its exception."""
    try:
        psi = solve(*args, **kwargs)
    except Exception as exc:
        return type(exc)
    return tuple(float(v).hex() for v in
                 (psi.phi1, psi.phi2_up, psi.phi2_down, psi.phi3))


@given(log_anchor=st.floats(-20.0, 20.0),
       log_c=st.floats(math.log(1e-9), math.log(0.49)),
       q=st.one_of(st.just(1.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9),
                   st.floats(1.0 - 1e-3, 1.0 + 1e-3), st.floats(0.2, 5.0)),
       alpha=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
       orientation=st.sampled_from(["positive", "negative"]))
@example(log_anchor=0.0, log_c=math.log(0.05), q=1.0, alpha=0.0,
         orientation="positive")
@example(log_anchor=4.6, log_c=math.log(0.02), q=1.0 + 1e-11, alpha=0.5,
         orientation="negative")
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
def test_grid_solve_is_gfin_strategy_on_the_grid_lattice(
        log_anchor, log_c, q, alpha, orientation):
    # bit for bit, exception types included
    anchor, c = math.exp(log_anchor), math.exp(log_c)
    model = grid_trend_lattice(anchor, c, orientation, q)
    assert outcome(grid_solve, anchor, c, orientation, alpha, q) == \
        outcome(gfin_strategy, model, alpha)


def test_collapsed_grid_levels_raise_degenerate_model():
    # the normalized grid 1 + k*c is distinct at this c, but the levels
    # anchor*(1 - 2c) and anchor*(1 - c) round to one float at this anchor
    c, anchor = 1.7869141059965552e-16, 1569.3101395953286
    assert anchor * (1 - 2 * c) == anchor * (1 - c)
    embedded_q(c, MU, SIGMA)
    with pytest.raises(DegenerateModel, match=f"c={c!r}.*anchor={anchor!r}"):
        grid_solve(anchor, c, "positive", 0.0, 1.2)


def test_collapsed_embedded_grid_raises_at_every_cycle(monkeypatch):
    # as above, for the embedded cycle's solve, which every cycle of both
    # interpreters calls; the snap cache stores no failed solve
    c, anchor = 1.7869141059965552e-16, 1569.3101395953286
    caches = []

    def recorded_cache(solve):
        caches.append(functools.cache(solve))
        return caches[-1]

    monkeypatch.setattr(strategies, "cache", recorded_cache)
    solves = [strategies._plan(PARAMS, econfig(c=c, execution_mode=mode))[0]
              for mode in MODES]
    assert len(caches) == 1  # snap mode's solve only
    for _ in range(2):
        with pytest.raises(DegenerateModel,
                           match=f"c={c!r}.*anchor={anchor!r}"):
            embedded_phi(c, anchor, 1.2)
        for solve in solves:
            with pytest.raises(DegenerateModel,
                               match=f"c={c!r}.*anchor={anchor!r}"):
                solve(anchor)
    assert caches[0].cache_info().currsize == 0
    params = GbmParams(mu=MU, sigma=SIGMA, s0=anchor, horizon=1.0,
                       n_steps=5)
    for mode in MODES:
        config = econfig(c=c, execution_mode=mode)
        with pytest.raises(DegenerateModel,
                           match=f"c={c!r}.*anchor={anchor!r}"):
            run_path(make_path([anchor, anchor]), params, config)
        with pytest.raises(DegenerateModel,
                           match=f"c={c!r}.*anchor={anchor!r}"):
            run_seeded(params, config, [1, 2])


def count_calls(monkeypatch, name):
    """Patch strategies.<name> to record the arguments of each call."""
    calls = []
    original = getattr(strategies, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(strategies, name, counted)
    return calls


SOLVES = {"embedded": "embedded_phi", "trend": "solve_three_leg"}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_experiment_solves_each_snap_anchor_once(kind, mode, monkeypatch):
    params = GbmParams(mu=MU, sigma=SIGMA, s0=100.0, horizon=1.0,
                       n_steps=300)
    config = econfig(kind=kind, c=0.02, alpha=0.5, execution_mode=mode)
    seeds = list(range(40))
    anchors = []
    for seed in seeds:
        trace: list[CycleRecord] = []
        run_path(simulate_gbm(params, seed), params, config,
                 cycle_trace=trace)
        anchors += [rec.anchor for rec in trace]
    calls = count_calls(monkeypatch, SOLVES[kind])
    run_seeded(params, config, seeds)
    if mode == "snap":
        assert len(calls) == len(set(anchors)) < len(anchors)
    else:
        # observed anchors are prices: every run starts at s0, yet each
        # cycle solves
        assert len(calls) == len(anchors) > len(set(anchors))


@pytest.mark.parametrize("kind", KINDS)
def test_memo_leaves_the_trace_and_the_run_unchanged(kind, monkeypatch):
    config = econfig(kind=kind, c=0.01, alpha=0.25)
    path = simulate_gbm(PARAMS, seed=37)  # 110 embedded, 81 trend cycles

    def run():
        trace: list[CycleRecord] = []
        led = TradeLedger()
        res = run_path(path, PARAMS, config, ledger=led, cycle_trace=trace)
        return res, led.events, [(rec.anchor, repr(rec)) for rec in trace]

    calls = count_calls(monkeypatch, SOLVES[kind])
    memoised = run()
    assert len(calls) < len(memoised[2])  # anchors repeat
    monkeypatch.setattr(strategies, "cache", lambda solve: solve)
    assert run() == memoised


def test_trend_cycles_build_no_trend_lattice(monkeypatch):
    def build(cls, *args, **kwargs):
        raise AssertionError("a trend cycle built a TrendLattice")

    monkeypatch.setattr(TrendLattice, "__new__", staticmethod(build))
    for params in (PARAMS, NEG_PARAMS):
        trace: list[CycleRecord] = []
        run_path(simulate_gbm(params, seed=3), params,
                 econfig(kind="trend", alpha=0.25), cycle_trace=trace)
        assert trace
    config = ExperimentConfig(
        params=GbmParams(mu=MU, sigma=SIGMA, s0=100.0, horizon=1.0,
                         n_steps=200),
        strategy=econfig(kind="trend", alpha=0.25, execution_mode="observed"),
        n_runs=20, master_seed=5)
    assert len(run_experiment(config).runs) == 20
    data = Path(__file__).resolve().parent / "data" / "gbm_up.csv"
    result = run_backtest(load_csv(data),
                          BacktestConfig(boundary_fraction=0.02))
    assert result.n_cycles > 0


# --------------------------------------------------------------- properties


def test_run_invariants_and_cycle_accounting():
    from statarb.paths import simulate_gbm
    rng = np.random.default_rng(52)
    checked = 0
    for seed in range(60):
        params = PARAMS if seed % 3 else NEG_PARAMS
        path = simulate_gbm(params, seed=int(rng.integers(1 << 30)))
        for kind in KINDS:
            for mode in MODES:
                led = TradeLedger()
                res = run_path(path, params,
                               econfig(kind=kind, execution_mode=mode),
                               ledger=led)
                assert led.open_position == 0.0
                assert res.trade_count == len(led.events)
                assert res.pnl == led.cash
                marks = replay_cycle_cash(led)
                if res.ended_by == "PositivePnl":
                    assert res.pnl > 0.0
                    assert all(m <= 0.0 for m in marks[:-1])
                    assert marks[-1] == res.pnl
                else:
                    # every completed cycle left cumulative P&L <= 0
                    assert res.ended_by == "Horizon"
                    assert all(m <= 0.0 for m in marks[:-1])
                checked += 1
    assert checked == 240


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
@given(steps=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
       negative=st.booleans(), alpha=st.sampled_from([0.0, 0.5, 1.0]))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
def test_run_path_ends_flat_on_grid_paths(kind, mode, steps, negative,
                                          alpha):
    # prices on A(1 + k*C) touch the first cycle's barriers exactly, and
    # steps of up to 3 levels cross several barriers in one segment
    levels = np.clip(np.cumsum([0, *steps]), -12, 30)
    path = make_path(A * (1 + levels * C))
    led = TradeLedger()
    res = run_path(path, NEG_PARAMS if negative else PARAMS,
                   econfig(kind=kind, alpha=alpha, execution_mode=mode),
                   ledger=led)
    assert led.open_position == 0.0
    assert res.pnl == led.cash
    assert res.trade_count == len(led.events)


def test_no_look_ahead_after_positive_stop():
    from statarb.paths import simulate_gbm
    found = 0
    for seed in range(40):
        path = simulate_gbm(PARAMS, seed=seed)
        led = TradeLedger()
        res = run_path(path, PARAMS, econfig(), ledger=led)
        if res.ended_by != "PositivePnl":
            continue
        found += 1
        last_index = max(e[0] for e in led.events)
        if last_index >= path.prices.size - 1:
            continue
        prices = path.prices.copy()
        prices[last_index + 1:] = prices[last_index]
        led2 = TradeLedger()
        res2 = run_path(PricePath(prices), PARAMS, econfig(),
                        ledger=led2)
        assert res2 == res
        assert led2.events == led.events
    assert found >= 20


def test_cycle_trace_solves_schedule_system():
    from statarb.paths import simulate_gbm
    for seed, params in ((3, PARAMS), (4, NEG_PARAMS)):
        trace: list[CycleRecord] = []
        path = simulate_gbm(params, seed=seed)
        run_path(path, params, econfig(kind="trend", alpha=0.25),
                 cycle_trace=trace)
        assert trace
        for rec in trace:
            model = grid_trend_lattice(rec.anchor, rec.c, rec.orientation,
                                       rec.q)
            a = trend_A_matrix(model)
            psi = np.array([rec.psi.phi1, rec.psi.phi2_up,
                            rec.psi.phi2_down, rec.psi.phi3])
            target = np.array([1.0, 1.0, 1.0, rec.alpha])
            assert np.allclose(a @ psi, target, atol=1e-10)


def test_no_sa_q_boundary_is_skipped():
    from helpers import find_no_sa_mu

    c, sigma = 0.02, 0.1
    mu_star = find_no_sa_mu(c, sigma)
    assert abs(embedded_q(c, mu_star, sigma) - 1.0) <= 1e-10
    params = GbmParams(mu=mu_star, sigma=sigma, s0=100.0, horizon=1.0,
                       n_steps=10)
    path = make_path([100.0] * 11)
    with pytest.raises(NoSaExists):
        run_path(path, params, econfig(c=c))
    with pytest.raises(NoSaExists):
        run_path(path, params, econfig(kind="trend", c=c))


def test_runs_terminate_on_extreme_jumps():
    # giant jumps chain same-index virtual hits; anchors advance
    # geometrically and the run still terminates flat
    path = make_path([100.0, 400.0, 50.0, 300.0, 10.0, 10.0])
    for kind in KINDS:
        led = TradeLedger()
        res = run_path(path, PARAMS, econfig(kind=kind), ledger=led)
        assert led.open_position == 0.0
        assert res.n_repetitions >= 1


def test_snap_cycle_payoffs_match_lattice():
    # every completed snap cycle realizes one of the four lattice payoffs
    # of the embedded grid model (up to the q = embedded_q scaling)
    from statarb.paths import simulate_gbm
    pays = {round(v, 6) for v in
            (1.0, 3.0 / (Q - 1.0), -(2 * Q + 1) / (Q - 1.0))}
    for seed in range(10):
        path = simulate_gbm(PARAMS, seed=seed)
        led = TradeLedger()
        run_path(path, PARAMS, econfig(), ledger=led)
        marks = replay_cycle_cash(led)
        diffs = np.diff([0.0] + marks)
        # drop the final mark: a horizon liquidation keeps the cycle's
        # first leg, +-phi1*c*a, when that leg completed (0 otherwise)
        for d in diffs[:-1]:
            assert round(float(d), 6) in pays
