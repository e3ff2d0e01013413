"""Tests for path simulation, hit detection, and trade accounting."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import first_exit, reference_next_hit
from statarb import paths
from statarb.gbm import GbmParams, exit_prob_lower
from statarb.paths import (
    SCAN_SEGMENTS,
    HitEvent,
    PricePath,
    TradeLedger,
    next_hit,
    simulate_gbm,
)


def flat_path(values) -> PricePath:
    return PricePath(values)


# ---------------------------------------------------------------- price path


def test_price_path_validation():
    with pytest.raises(ValueError):
        PricePath(np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        PricePath(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError):
        PricePath(np.array([]))


def test_price_path_is_immutable():
    p = flat_path([100.0, 101.0])
    with pytest.raises(ValueError):
        p.prices[0] = 5.0


def test_price_path_leaves_the_callers_array_writeable():
    mine = np.array([1.0, 2.0])
    path = PricePath(mine)
    mine[0] = 3.0
    assert path.prices.tolist() == [1.0, 2.0]
    assert not path.prices.flags.writeable
    # a read-only array is shared, not copied
    locked = np.array([1.0, 2.0])
    locked.setflags(write=False)
    assert PricePath(locked).prices is locked


def test_simulate_gbm_deterministic():
    params = GbmParams(mu=0.1, sigma=0.2, s0=100.0, horizon=1.0,
                       n_steps=100)
    a = simulate_gbm(params, seed=123)
    b = simulate_gbm(params, seed=123)
    c = simulate_gbm(params, seed=124)
    assert np.array_equal(a.prices, b.prices)
    assert not np.array_equal(a.prices, c.prices)


def test_simulate_gbm_terminal_mean():
    mu, sigma, s0, horizon = 0.1, 0.2, 100.0, 1.0
    params = GbmParams(mu=mu, sigma=sigma, s0=s0, horizon=horizon, n_steps=4)
    n = 100_000
    terminal = np.empty(n)
    for i in range(n):
        terminal[i] = simulate_gbm(params, seed=i).prices[-1]
    expect = s0 * math.exp(mu * horizon)
    se = np.std(terminal) / math.sqrt(n)
    assert abs(terminal.mean() - expect) <= 3 * se


# ------------------------------------------------------------------- hits


def test_next_hit_monotone_ramp():
    path = flat_path([100.0 + k for k in range(11)])
    assert next_hit(path, 0, 95.0, 105.0) == HitEvent(5, 105.0)
    assert next_hit(path, 0, 95.0, 105.5) == HitEvent(6, 105.5)


def test_next_hit_constant_path():
    path = flat_path([100.0] * 50)
    assert next_hit(path, 0, 95.0, 105.0) is None
    assert next_hit(path, 0, np.nextafter(100.0, 0.0),
                    np.nextafter(100.0, 200.0)) is None


def test_next_hit_tie_break_nearest_to_segment_start():
    # the embedded second leg at a = 100, c = 0.05: from inside (100, 110)
    # a jump to 85 crosses 90 and 100, and 100, nearer its start, is the
    # level hit, as the three-level scan from a(1 + c) reports it
    up = flat_path([107.0, 85.0])
    assert next_hit(up, 0, 100.0, 110.0) == HitEvent(1, 100.0)
    assert reference_next_hit(up.prices, 0, {90.0, 100.0, 110.0},
                              105.0) == HitEvent(1, 100.0)
    down = flat_path([93.0, 115.0])
    assert next_hit(down, 0, 90.0, 100.0) == HitEvent(1, 100.0)
    assert reference_next_hit(down.prices, 0, {90.0, 100.0, 110.0},
                              95.0) == HitEvent(1, 100.0)


def test_next_hit_start_on_level_moving_away():
    # standing on a barrier is a hit at from_index, even when the path
    # leaves it; from strictly inside, leaving and returning is a hit
    path = flat_path([105.0, 106.0, 105.0, 104.0])
    assert next_hit(path, 0, 105.0, 110.0) == HitEvent(0, 105.0)
    assert next_hit(path, 1, 105.0, 110.0) == HitEvent(2, 105.0)
    path2 = flat_path([105.0, 106.0, 107.0])
    assert next_hit(path2, 0, 100.0, 105.0) == HitEvent(0, 105.0)
    assert next_hit(path2, 1, 105.0, 110.0) is None


def test_next_hit_ref_price_virtual_segment():
    # a start price beyond a barrier is a hit at from_index: the jump from
    # the previous execution level (100 here) crossed it already
    path = flat_path([110.0, 111.0, 112.0])
    assert next_hit(path, 0, 95.0, 105.0) == HitEvent(0, 105.0)
    assert next_hit(path, 0, 98.0, 102.0) == HitEvent(0, 102.0)
    assert next_hit(path, 0, 110.0, 120.0) == HitEvent(0, 110.0)
    assert next_hit(path, 0, 100.0, 120.0) is None
    # from the last point only that point is tested
    assert next_hit(path, 2, 100.0, 112.0) == HitEvent(2, 112.0)
    assert next_hit(path, 2, 100.0, 120.0) is None


def test_next_hit_from_index_and_errors():
    path = flat_path([100.0, 104.0, 106.0, 104.0, 106.0])
    assert next_hit(path, 0, 95.0, 105.0) == HitEvent(2, 105.0)
    assert next_hit(path, 2, 95.0, 105.0) == HitEvent(2, 105.0)
    assert next_hit(path, 3, 95.0, 105.0) == HitEvent(4, 105.0)
    for start in (5, -1):
        with pytest.raises(ValueError, match="from_index"):
            next_hit(path, start, 95.0, 105.0)
    for lo, hi in ((105.0, 105.0), (105.0, 95.0), (math.nan, 105.0)):
        with pytest.raises(ValueError, match="corridor"):
            next_hit(path, 0, lo, hi)


def test_next_hit_crossing_guarantee():
    # a path that starts above a barrier and ends below it always exits
    # through it
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(2, 400))
        prices = np.exp(rng.normal(0.0, 0.02, n).cumsum()) * 100.0
        prices[0], prices[-1] = 104.0, 96.0
        hit = next_hit(flat_path(prices), 0, 100.0, math.inf)
        assert hit is not None and hit.level == 100.0


def test_next_hit_matches_reference_loop():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 600))
        prices = 100.0 * np.exp(rng.normal(0.0, 0.03, n).cumsum())
        lo = 100.0 * round(float(rng.uniform(0.85, 1.05)), 3)
        hi = lo + 100.0 * round(float(rng.uniform(0.001, 0.15)), 3)
        from_index = int(rng.integers(0, n))
        assert next_hit(flat_path(prices), from_index, lo, hi) == \
            first_exit(prices, from_index, lo, hi)


# prices and barriers on a coarse grid, so that exact touches, starts on a
# barrier and jumps across several levels are all common
GRID_VALUES = (1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.5, 8.0, 9.0)
GRID = st.sampled_from(GRID_VALUES)
EXACT = settings(max_examples=300, deadline=None, derandomize=True,
                 database=None)


@st.composite
def corridor_queries(draw):
    prices = draw(st.lists(GRID, min_size=1, max_size=40))
    from_index = draw(st.integers(0, len(prices) - 1))
    lo, hi = sorted(draw(st.lists(GRID, min_size=2, max_size=2,
                                  unique=True)))
    return prices, from_index, lo, hi


@EXACT
@given(corridor_queries(), st.just(SCAN_SEGMENTS) | st.integers(1, 8))
def test_next_hit_equals_first_exit_oracle(query, blocks):
    prices, from_index, lo, hi = query
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(paths, "SCAN_SEGMENTS", blocks)
        got = next_hit(flat_path(prices), from_index, lo, hi)
    assert got == first_exit(prices, from_index, lo, hi)


@EXACT
@given(corridor_queries(), st.data())
def test_next_hit_equals_pairwise_segment_oracle(query, data):
    # the corridor query is the old level-set query whenever the reference
    # price lies strictly inside: the segment from it to the start price,
    # and every later one, touches or crosses a barrier exactly when its
    # end is on or beyond it
    prices, from_index, lo, hi = query
    inside = [v for v in GRID_VALUES if lo < v < hi]
    ref = data.draw(st.sampled_from(inside or [(lo + hi) / 2]))
    path = flat_path(prices)
    assert next_hit(path, from_index, lo, hi) == \
        reference_next_hit(prices, from_index, {lo, hi}, ref)
    # the embedded second leg at a = 4, c = 1/4: from a(1 + c) = 5 the
    # three levels {2, 4, 6} give the corridor (4, 6), from 3 the
    # corridor (2, 4)
    assert next_hit(path, from_index, 4.0, 6.0) == \
        reference_next_hit(prices, from_index, {2.0, 4.0, 6.0}, 5.0)
    assert next_hit(path, from_index, 2.0, 4.0) == \
        reference_next_hit(prices, from_index, {2.0, 4.0, 6.0}, 3.0)


def test_next_hit_chunk_boundaries():
    # hits placed around block edges (multiples of SCAN_SEGMENTS and of
    # 128) scan identically
    edges = [m * SCAN_SEGMENTS + d for m in range(1, 7) for d in (-1, 0, 1)]
    for hit_at in (*edges, 127, 128, 129, 255, 256, 257, 383, 384):
        prices = np.full(512, 100.0)
        prices[hit_at] = 105.0
        path = flat_path(prices)
        assert next_hit(path, 0, 95.0, 105.0) == HitEvent(hit_at, 105.0)
        # from the hit itself, just before it, and across a block edge
        for start in (hit_at, hit_at - 1,
                      max(0, hit_at - SCAN_SEGMENTS - 1)):
            assert next_hit(path, start, 95.0, 105.0) == \
                HitEvent(hit_at, 105.0)
        assert next_hit(path, hit_at + 1, 95.0, 105.0) is None


def test_next_hit_long_scan_without_hit_reaches_path_end():
    # thousands of points, many blocks, a last block cut short by the
    # path end; the barriers are missed by rounding-sized margins
    n = 40 * SCAN_SEGMENTS + 17
    prices = 100.0 + np.sin(np.arange(n)) * 5.0
    path = flat_path(prices)
    top, bottom = float(prices.max()), float(prices.min())
    below = float(np.nextafter(bottom, -np.inf))
    assert next_hit(path, 0, below, float(np.nextafter(top, np.inf))) is None
    assert next_hit(path, n - 2, 50.0, 200.0) is None
    assert next_hit(path, n - 1, 50.0, 200.0) is None
    # the top itself is touched at its first index after the start
    first_top = int(np.argmax(prices))
    assert next_hit(path, 0, below, top) == HitEvent(first_top, top)


def test_next_hit_empirical_frequency_matches_exit_prob():
    mu, sigma, s0, a, b = 0.1, 0.2, 100.0, 90.0, 110.0
    params = GbmParams(mu=mu, sigma=sigma, s0=s0, horizon=3.0, n_steps=3000)
    n = 20_000
    lower_hits = 0
    censored = 0
    for i in range(n):
        hit = next_hit(simulate_gbm(params, seed=i), 0, a, b)
        if hit is None:
            censored += 1
        elif hit.level == a:
            lower_hits += 1
    assert censored == 0
    p_hat = lower_hits / n
    p = exit_prob_lower(s0, a, b, mu, sigma)
    se = math.sqrt(p * (1 - p) / n)
    # discrete monitoring under-detects: allow the barrier-shift bias bound
    dt = params.dt
    shift = math.exp(0.5826 * sigma * math.sqrt(dt))
    allowance = abs(p - exit_prob_lower(s0, a / shift, b * shift, mu, sigma))
    assert abs(p_hat - p) <= 3 * se + allowance


# ------------------------------------------------------------------ ledger


def test_ledger_round_trip():
    led = TradeLedger()
    led.execute(0, 100.0, 1.0)
    assert led.open_position == 1.0
    pnl = led.close_out(5, 110.0)
    assert pnl == 10.0
    assert led.open_position == 0.0
    assert led.events == [(0, 100.0, 1.0), (5, 110.0, -1.0)]


def test_ledger_replays_four_scenario_payoffs():
    # strategy (1.6, -1.4, -1.8) replayed as position changes on each of
    # the four price scenarios reproduces the lattice payoffs
    scenarios = {
        (105.0, 110.0): 1.0,
        (105.0, 100.0): 15.0,
        (95.0, 100.0): -17.0,
        (95.0, 90.0): 1.0,
    }
    for (s1, s2), expected in scenarios.items():
        led = TradeLedger()
        led.execute(0, 100.0, 1.6)
        mid = -1.4 if s1 > 100.0 else -1.8
        led.execute(1, s1, mid - 1.6)
        assert led.close_out(2, s2) == pytest.approx(expected, abs=1e-12)


def test_ledger_zero_delta_and_close_on_empty():
    led = TradeLedger()
    assert led.close_out(0, 100.0) == 0.0
    led.execute(0, 100.0, 0.0)
    assert led.cash == 0.0 and led.open_position == 0.0
    led.execute(1, 50.0, 2.0)
    led.execute(1, 50.0, 0.0)
    assert led.cash == -100.0
    with pytest.raises(ValueError):
        led.execute(2, 0.0, 1.0)


def test_ledger_split_delta_invariance():
    rng = np.random.default_rng(43)
    for _ in range(200):
        n = int(rng.integers(1, 8))
        deltas = rng.normal(size=n)
        prices = rng.uniform(50.0, 150.0, n)
        whole = TradeLedger()
        split = TradeLedger()
        for i, (d, p) in enumerate(zip(deltas, prices)):
            whole.execute(i, p, d)
            frac = float(rng.uniform(0.0, 1.0))
            split.execute(i, p, d * frac)
            split.execute(i, p, d * (1.0 - frac))
        price = float(rng.uniform(50.0, 150.0))
        assert split.close_out(n, price) == pytest.approx(
            whole.close_out(n, price), rel=1e-12, abs=1e-12)
