"""Tests for path simulation, hit detection, and trade accounting."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_next_hit(path, from_index, levels, ref_price=None):
    """Plain-loop oracle for next_hit."""
    prices = path.prices

    def crossed(p0, p1):
        best, best_dist = None, math.inf
        for lv in levels:
            if (p0 - lv) * (p1 - lv) < 0 or p1 == lv:
                if abs(lv - p0) < best_dist:
                    best, best_dist = lv, abs(lv - p0)
        return best

    if ref_price is not None:
        lv = crossed(ref_price, prices[from_index])
        if lv is not None:
            return HitEvent(from_index, lv)
    for k in range(from_index, prices.size - 1):
        lv = crossed(prices[k], prices[k + 1])
        if lv is not None:
            return HitEvent(k + 1, lv)
    return None


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
    hit = next_hit(path, 0, {105.0})
    assert hit == HitEvent(5, 105.0)


def test_next_hit_constant_path():
    path = flat_path([100.0] * 50)
    assert next_hit(path, 0, {105.0}) is None
    assert next_hit(path, 0, {95.0}) is None


def test_next_hit_tie_break_nearest_to_segment_start():
    up = flat_path([100.0, 120.0])
    assert next_hit(up, 0, {105.0, 110.0}) == HitEvent(1, 105.0)
    down = flat_path([120.0, 100.0])
    assert next_hit(down, 0, {105.0, 110.0}) == HitEvent(1, 110.0)
    # 1e17 - 1 and 1e17 - 2 round to the same distance: the lowest level
    # wins the tie, as argmin over the sorted levels does in next_hits
    far = flat_path([1e17, 0.5])
    assert next_hit(far, 0, {2.0, 1.0}) == HitEvent(1, 1.0)


def test_next_hit_start_on_level_moving_away():
    path = flat_path([105.0, 106.0, 105.0, 104.0])
    # standing on the level and leaving is not a hit; returning is
    assert next_hit(path, 0, {105.0}) == HitEvent(2, 105.0)
    path2 = flat_path([105.0, 106.0, 107.0])
    assert next_hit(path2, 0, {105.0}) is None


def test_next_hit_ref_price_virtual_segment():
    path = flat_path([110.0, 111.0, 112.0])
    # previous execution at 100, so the jump to 110 crossed 105 already
    assert next_hit(path, 0, {105.0}, ref_price=100.0) == HitEvent(0, 105.0)
    # nearest-to-ref tie-break on the virtual segment
    assert next_hit(path, 0, {102.0, 105.0},
                    ref_price=100.0) == HitEvent(0, 102.0)
    assert next_hit(path, 0, {120.0}, ref_price=100.0) is None


def test_next_hit_from_index_and_errors():
    path = flat_path([100.0, 104.0, 106.0, 104.0, 106.0])
    assert next_hit(path, 0, {105.0}) == HitEvent(2, 105.0)
    assert next_hit(path, 2, {105.0}) == HitEvent(3, 105.0)
    with pytest.raises(ValueError):
        next_hit(path, 5, {105.0})
    with pytest.raises(ValueError):
        next_hit(path, 0, set())


def test_next_hit_crossing_guarantee():
    # a path that starts above a level and ends below it always reports a hit
    rng = np.random.default_rng(41)
    for _ in range(300):
        n = int(rng.integers(2, 400))
        prices = np.exp(rng.normal(0.0, 0.02, n).cumsum()) * 100.0
        prices[0], prices[-1] = 104.0, 96.0
        hit = next_hit(flat_path(prices), 0, {100.0})
        assert hit is not None and hit.level == 100.0


def test_next_hit_matches_reference_loop():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(2, 600))
        prices = 100.0 * np.exp(rng.normal(0.0, 0.03, n).cumsum())
        path = flat_path(prices)
        levels = set(100.0 * np.round(rng.uniform(0.9, 1.1, 3), 3))
        from_index = int(rng.integers(0, n))
        ref = 100.0 * float(rng.uniform(0.9, 1.1)) if rng.random() < 0.5 \
            else None
        assert next_hit(path, from_index, levels, ref_price=ref) == \
            reference_next_hit(path, from_index, levels, ref_price=ref)


# prices and levels on a coarse grid, so that exact touches, paths starting
# on a level and several levels inside one segment are all common
GRID = st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.5, 8.0, 9.0])


@st.composite
def hit_queries(draw):
    prices = draw(st.lists(GRID, min_size=1, max_size=40))
    from_index = draw(st.integers(0, len(prices) - 1))
    levels = draw(st.lists(GRID, min_size=1, max_size=4))
    return prices, from_index, levels, draw(st.none() | GRID)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hit_queries())
def test_next_hit_equals_pairwise_segment_oracle(query):
    prices, from_index, levels, ref = query
    path = flat_path(prices)
    assert next_hit(path, from_index, levels, ref_price=ref) == \
        reference_next_hit(path, from_index, levels, ref_price=ref)


def test_next_hit_chunk_boundaries():
    # hits placed around block edges (multiples of SCAN_SEGMENTS and of
    # 128) scan identically
    edges = [m * SCAN_SEGMENTS + d for m in range(1, 7) for d in (-1, 0, 1)]
    for hit_at in (*edges, 127, 128, 129, 255, 256, 257, 383, 384):
        prices = np.full(512, 100.0)
        prices[hit_at] = 106.0
        path = flat_path(prices)
        assert next_hit(path, 0, {105.0}) == HitEvent(hit_at, 105.0)
        # from a start just before the hit, and across a block edge
        for start in (hit_at - 1, max(0, hit_at - SCAN_SEGMENTS - 1)):
            assert next_hit(path, start, {105.0}) == HitEvent(hit_at, 105.0)


def test_next_hit_long_scan_without_hit_reaches_path_end():
    # thousands of segments, many blocks, a last block cut short by the
    # path end; the levels are missed by rounding-sized margins
    n = 40 * SCAN_SEGMENTS + 17
    prices = 100.0 + np.sin(np.arange(n)) * 5.0
    path = flat_path(prices)
    top, bottom = float(prices.max()), float(prices.min())
    assert next_hit(path, 0, {np.nextafter(top, np.inf),
                              np.nextafter(bottom, -np.inf)}) is None
    assert next_hit(path, n - 2, {200.0}) is None
    assert next_hit(path, n - 1, {200.0}, ref_price=100.0) is None
    # the top itself is touched at its first index after the start
    first_top = int(np.argmax(prices))
    assert next_hit(path, 0, {top}) == HitEvent(first_top, top)


def test_next_hit_empirical_frequency_matches_exit_prob():
    mu, sigma, s0, a, b = 0.1, 0.2, 100.0, 90.0, 110.0
    params = GbmParams(mu=mu, sigma=sigma, s0=s0, horizon=3.0, n_steps=3000)
    n = 20_000
    lower_hits = 0
    censored = 0
    for i in range(n):
        hit = next_hit(simulate_gbm(params, seed=i), 0, {a, b})
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
