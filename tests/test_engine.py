"""The chunk engine against the one-path API it must reproduce bit for bit.

simulate_gbm_rows against simulate_gbm and a log-space oracle, paths
generated as a prefix and its rest against simulate_gbm, and next_hits
against next_hit and a first-exit oracle.
Both engines run the same cycle schedules (strategies.embedded_cycle,
strategies.trend_cycle and the run loop), so the run-for-run tests compare
two drivers of one schedule: run_seeded, which answers the queries with
next_hits scans that resume cut-off queries and refill finished rows,
against drive, which answers them with next_hit on one path.  They run
across strategy kinds, execution modes, alpha, grid sizes, chunk sizes,
scan lengths and prefix lengths, through run_experiment too.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import first_exit
from statarb import paths, strategies
from statarb.gbm import GbmParams, embedded_q
from statarb.harness import ExperimentConfig, run_experiment
from statarb.paths import (
    SCAN_SEGMENTS,
    PricePath,
    chunk_rows,
    extend_gbm_rows,
    next_hit,
    next_hits,
    prefix_points,
    simulate_gbm,
    simulate_gbm_rows,
)
from statarb.seeding import run_seeds
from statarb.strategies import (
    KINDS,
    MODES,
    StrategyConfig,
    run_path,
    run_seeded,
)

EXACT = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)


def gbm(n_steps: int, mu: float = 0.1241) -> GbmParams:
    return GbmParams(mu=mu, sigma=0.0837, s0=2186.0, horizon=1.0,
                     n_steps=n_steps)


# ------------------------------------------------------------ path blocks


@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 17, 150, 200, 999, 1000])
@pytest.mark.parametrize("n_rows", [1, 5, 64, 130])
def test_simulate_gbm_rows_equal_simulate_gbm(n_steps, n_rows):
    params = gbm(n_steps)
    seeds = [int(s) for s in
             np.random.SeedSequence(n_steps).generate_state(n_rows,
                                                            np.uint64)]
    block = simulate_gbm_rows(params, seeds)
    assert block.shape == (n_rows, n_steps + 1)
    for row, seed in zip(block, seeds):
        assert np.array_equal(row, simulate_gbm(params, seed).prices)


@pytest.mark.parametrize("n_steps", [1, 17, 1000])
@pytest.mark.parametrize("mu", [0.1241, -0.5])
def test_simulate_gbm_rows_equal_log_space_oracle(n_steps, mu):
    # drift and noise together: s0 * exp(cumsum of the log increments)
    params = gbm(n_steps, mu)
    seeds = [0, 7, 2**63 + 5]
    dt, sigma = params.dt, params.sigma
    for row, seed in zip(simulate_gbm_rows(params, seeds), seeds):
        z = np.random.default_rng(seed).standard_normal(n_steps)
        steps = (mu - sigma**2 / 2) * dt + sigma * np.sqrt(dt) * z
        expect = params.s0 * np.exp(np.cumsum(np.r_[0.0, steps]))
        assert np.array_equal(row, expect)


def test_underflowing_prices_fail_like_the_one_path_engine():
    params = GbmParams(mu=-800.0, sigma=1.0, s0=2186.0, horizon=1.0,
                       n_steps=10)
    with pytest.raises(ValueError, match="prices must be positive"):
        simulate_gbm_rows(params, [1, 2])
    config = ExperimentConfig(params=params,
                              strategy=StrategyConfig(kind="embedded", c=0.1),
                              n_runs=3, master_seed=0)
    with pytest.raises(ValueError, match="prices must be positive"):
        run_experiment(config)


@given(n_steps=st.integers(1, 400), data=st.data(),
       seed=st.integers(0, 2**64 - 1), mu=st.sampled_from([0.1241, -0.5]))
@EXACT
def test_path_generated_in_parts_equals_simulate_gbm(n_steps, data, seed,
                                                      mu):
    # a prefix, then the rest from the carried log price, at any split;
    # the rest recomputes the point where the parts meet
    params = gbm(n_steps, mu)
    split = data.draw(st.integers(1, n_steps + 1), label="split")
    seeds = [seed, seed // 3 + 1]
    rngs = [np.random.default_rng(s) for s in seeds]
    head, log_price = extend_gbm_rows(params, rngs, np.zeros(2), split)
    rest, _ = extend_gbm_rows(params, rngs, log_price, n_steps + 2 - split)
    assert np.array_equal(rest[:, 0], head[:, -1])
    whole = np.hstack([head, rest[:, 1:]])
    for row, s in zip(whole, seeds):
        assert np.array_equal(row, simulate_gbm(params, s).prices)


def test_prefix_points_cover_a_quarter_of_the_path_and_a_window():
    assert prefix_points(1000) == 250 + SCAN_SEGMENTS + 1
    assert prefix_points(85) == 86  # the whole row
    assert prefix_points(86) == 86
    assert prefix_points(4000) == 1000 + SCAN_SEGMENTS + 1
    for n_steps in range(1, 3000, 7):
        # a scan from any index up to n_steps // 4 reads prefix points only
        assert prefix_points(n_steps) in (
            n_steps + 1, n_steps // 4 + SCAN_SEGMENTS + 1)
        assert prefix_points(n_steps) <= n_steps + 1


def test_runs_ending_before_their_path_underflows_succeed():
    # the prices fall by about 55% a step and underflow to 0 near step
    # 940; every run ends at its first cycle, inside the generated prefix,
    # so the experiment succeeds although simulate_gbm rejects the paths
    params = GbmParams(mu=-800.0, sigma=1.0, s0=2186.0, horizon=1.0,
                       n_steps=1000)
    config = ExperimentConfig(params=params,
                              strategy=StrategyConfig(kind="embedded", c=0.1),
                              n_runs=3, master_seed=0)
    runs = run_experiment(config).runs
    assert [(r.ended_by, r.n_repetitions) for r in runs] == \
        [("PositivePnl", 1)] * 3
    for seed in run_seeds(0, 0, range(3)):
        with pytest.raises(ValueError, match="prices must be positive"):
            simulate_gbm(params, int(seed))


def test_chunk_rows_follow_the_byte_budget():
    assert chunk_rows(1000) == 49  # 384 KiB of 1001-point rows
    assert chunk_rows(200) == 244
    assert chunk_rows(10**6) == 1  # a row larger than the budget


# ------------------------------------------------------------- hit scans


def reference(prices, row, start, lo, hi, bound):
    """next_hit on the row, cut where a scan of `bound` segments stops."""
    return next_hit(PricePath(prices[row, :start + bound + 1]), start, lo, hi)


def check_scan(prices, queries, bound=SCAN_SEGMENTS):
    """next_hits with SCAN_SEGMENTS set to `bound` against next_hit and the
    first-exit oracle."""
    rows, starts, lo, hi = zip(*queries)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(paths, "SCAN_SEGMENTS", bound)
        index, level = next_hits(prices, rows, starts, lo, hi)
    for k, (row, start, low, high) in enumerate(queries):
        expected = reference(prices, row, start, low, high, bound)
        assert expected == first_exit(prices[row, :start + bound + 1],
                                      start, low, high)
        if expected is None:
            assert index[k] == -1 and np.isnan(level[k])
        else:
            assert (int(index[k]), float(level[k])) == tuple(expected)


# prices and barriers on a coarse grid, so that touches, starts on a
# barrier and jumps across several levels are all common
GRID = st.sampled_from([1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.5, 8.0, 9.0])


@st.composite
def scans(draw):
    n_points = draw(st.integers(1, 30))
    n_rows = draw(st.integers(1, 4))
    prices = np.array([[draw(GRID) for _ in range(n_points)]
                       for _ in range(n_rows)])
    queries = []
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = sorted(draw(st.lists(GRID, min_size=2, max_size=2,
                                      unique=True)))
        queries.append((draw(st.integers(0, n_rows - 1)),
                        draw(st.integers(0, n_points - 1)), lo, hi))
    bound = draw(st.just(SCAN_SEGMENTS) | st.integers(1, 8))
    return prices, queries, bound


@EXACT
@given(scans())
def test_next_hits_equal_next_hit(scan):
    check_scan(*scan)


@given(n_steps=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
       c=st.sampled_from([0.002, 0.01, 0.05]),
       bound=st.just(SCAN_SEGMENTS) | st.integers(1, 100))
@EXACT
def test_next_hits_equal_next_hit_on_gbm_paths(n_steps, seed, c, bound):
    prices = simulate_gbm_rows(gbm(n_steps), [seed, seed + 1, seed + 2])
    rng = np.random.default_rng(seed)
    queries = []
    for row in range(3):
        start = int(rng.integers(0, n_steps + 1))
        a = float(prices[row, start])
        # the corridors of the three legs, anchored at the start price
        queries.append((row, start, a * (1 - c), a * (1 + c)))
        queries.append((row, start, a, a * (1 + 2 * c)))
        queries.append((row, start, a * (1 - 4 * c), a))
    check_scan(prices, queries, bound)


@pytest.mark.parametrize("path, start, lo, hi, expected", [
    # exact touch of either barrier
    ([5.0, 6.0, 7.0], 0, 4.0, 7.0, (2, 7.0)),
    ([5.0, 6.0, 4.0], 0, 4.0, 7.0, (2, 4.0)),
    # the start point counts, beyond or on a barrier
    ([5.0, 6.0], 0, 1.0, 4.0, (0, 4.0)),
    ([5.0, 6.0], 0, 5.0, 9.0, (0, 5.0)),
    # a jump across the corridor and beyond: the side it leaves through
    ([5.0, 9.0], 0, 4.0, 7.0, (1, 7.0)),
    ([5.0, 1.0], 0, 4.0, 7.0, (1, 4.0)),
    # no hit until the path end
    ([5.0, 5.5, 5.2, 4.9], 1, 1.0, 9.0, None),
    # a scan starting at the last point tests that point only
    ([5.0, 6.0], 1, 1.0, 7.0, None),
    ([5.0, 6.0], 1, 1.0, 6.0, (1, 6.0)),
])
def test_next_hits_named_cases(path, start, lo, hi, expected):
    prices = np.array([path, path[::-1]])
    index, level = next_hits(prices, [0], [start], [lo], [hi])
    got = None if index[0] < 0 else (int(index[0]), float(level[0]))
    assert got == expected
    check_scan(prices, [(0, start, lo, hi), (1, start, lo, hi)])


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("start", [0, 5])
def test_next_hits_window_ends_at_scan_segments(offset, start):
    # a window tests its start point and the SCAN_SEGMENTS points after it;
    # a hit one point later is found by the query resumed there
    hit_at = start + SCAN_SEGMENTS + offset
    prices = np.full((1, 3 * SCAN_SEGMENTS), 100.0)
    prices[0, hit_at] = 105.0
    index, level = next_hits(prices, [0], [start], [95.0], [105.0])
    if offset <= 0:
        assert (int(index[0]), float(level[0])) == (hit_at, 105.0)
    else:
        assert index[0] == -1 and np.isnan(level[0])
        resumed = start + SCAN_SEGMENTS + 1
        index, level = next_hits(prices, [0], [resumed], [95.0], [105.0])
        assert (int(index[0]), float(level[0])) == (hit_at, 105.0)


def test_next_hits_errors():
    prices = np.array([[5.0, 6.0, 7.0, 3.0]])
    index, level = next_hits(prices, [0, 0], [0, 1], [4.0, 3.0], [7.0, 9.0])
    assert index.tolist() == [2, 3] and level.tolist() == [7.0, 3.0]
    for start in (4, -1):
        with pytest.raises(ValueError, match="from_index"):
            next_hits(prices, [0], [start], [4.0], [7.0])
    for lo, hi in ((7.0, 7.0), (7.0, 4.0), (np.nan, 7.0)):
        with pytest.raises(ValueError, match="lo < hi"):
            next_hits(prices, [0, 0], [0, 0], [4.0, lo], [7.0, hi])


# ----------------------------------------------------------- chunk engine


def per_path(params, config, seeds):
    return [run_path(simulate_gbm(params, seed), params, config)
            for seed in seeds]


def assert_same_runs(got, expected):
    assert got == expected
    assert [repr(r.pnl) for r in got] == [repr(r.pnl) for r in expected]


@given(kind=st.sampled_from(KINDS), mode=st.sampled_from(MODES),
       alpha=st.sampled_from([0.0, 0.5, 1.0]),
       n_steps=st.sampled_from([1, 2, 17, 200]),
       rows=st.sampled_from([1, 7, None]),
       mu=st.sampled_from([0.1241, -0.1241]),
       c_mult=st.sampled_from([0.01, 0.1]),
       master=st.integers(0, 2**32 - 1),
       scan=st.sampled_from([1, 3, SCAN_SEGMENTS]),
       prefix=st.none() | st.integers(1, 8))
@example(kind="trend", mode="snap", alpha=1.0, n_steps=200, rows=7,
         mu=0.1241, c_mult=0.01, master=0, scan=SCAN_SEGMENTS, prefix=None)
@EXACT
def test_run_seeded_equals_one_path_runners(kind, mode, alpha, n_steps,
                                            rows, mu, c_mult, master, scan,
                                            prefix):
    params = gbm(n_steps, mu)
    config = StrategyConfig(kind=kind, c_mult=c_mult, alpha=alpha,
                            execution_mode=mode)
    q = embedded_q(config.resolved_c(mu, params.sigma), mu, params.sigma)
    seeds = [int(s) for s in
             np.random.SeedSequence(master).generate_state(17, np.uint64)]
    # 17 runs: more than a chunk of 1 or 7 rows and not a multiple of it;
    # short scans make most queries resume, and short prefixes make most
    # rows complete
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(strategies, "chunk_rows", lambda n: rows)
        if prefix is not None:
            patch.setattr(strategies, "prefix_points",
                          lambda n: min(n + 1, prefix))
        patch.setattr(paths, "SCAN_SEGMENTS", scan)
        patch.setattr(strategies, "SCAN_SEGMENTS", scan)
        got = run_seeded(params, config, q, seeds)
    assert_same_runs(got, per_path(params, config, seeds))


def count_completions(patch):
    """Patch run_seeded's generator to count the rows it completes."""
    completed = []

    def extend(params, rngs, log_price, n_points):
        if np.any(log_price != 0.0):
            completed.append(len(rngs))
        return extend_gbm_rows(params, rngs, log_price, n_points)

    patch.setattr(strategies, "extend_gbm_rows", extend)
    return completed


@pytest.mark.parametrize("n_steps, past_prefix", [
    (85, 0),  # n_steps = P - 1: the prefix is the whole row
    (86, 1),  # n_steps = P
    (87, 2),  # n_steps = P + 1
    (260, 131),  # n_steps = 2P
    # the first window ends at point 64 and the resumed one at point 129,
    # the first point past the prefix
    (256, 128),
])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_run_seeded_equals_run_path_around_the_prefix(n_steps, past_prefix,
                                                      kind, mode,
                                                      monkeypatch):
    assert n_steps + 1 - prefix_points(n_steps) == past_prefix
    params = GbmParams(mu=0.5, sigma=0.4, s0=2186.0, horizon=1.0,
                       n_steps=n_steps)
    config = StrategyConfig(kind=kind, c=0.05, alpha=0.5,
                            execution_mode=mode)
    q = embedded_q(0.05, params.mu, params.sigma)
    seeds = list(range(60))
    completed = count_completions(monkeypatch)
    got = run_seeded(params, config, q, seeds)
    assert_same_runs(got, per_path(params, config, seeds))
    assert (sum(completed) > 0) == (past_prefix > 0)


def test_completion_at_a_resumed_query(monkeypatch):
    # legs of 30% barely ever end within a year at 8% volatility, so every
    # first leg resumes at point 65; at 256 steps that window is the first
    # to read past the 129-point prefix, and every row completes there
    params = GbmParams(mu=0.1241, sigma=0.0837, s0=2186.0, horizon=1.0,
                       n_steps=256)
    assert prefix_points(256) == 2 * (SCAN_SEGMENTS + 1) - 1
    config = StrategyConfig(kind="embedded", c=0.3)
    q = embedded_q(0.3, params.mu, params.sigma)
    seeds = list(range(20))
    windows = []

    def scan(prices, rows, from_index, lo, hi):
        windows.extend(from_index.tolist())
        return next_hits(prices, rows, from_index, lo, hi)

    completed = count_completions(monkeypatch)
    monkeypatch.setattr(strategies, "next_hits", scan)
    got = run_seeded(params, config, q, seeds)
    assert_same_runs(got, per_path(params, config, seeds))
    assert all(r.ended_by == "Horizon" and r.n_repetitions == 0 for r in got)
    assert sum(completed) == 20
    assert sorted(set(windows)) == [0, 65, 130, 195]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_run_experiment_equals_run_path_at_cli_defaults(kind, mode):
    # 150 runs of 1000 steps: more than two matrices' worth of rows
    config = ExperimentConfig(
        params=gbm(1000),
        strategy=StrategyConfig(kind=kind, c_mult=0.01,
                                execution_mode=mode),
        n_runs=150, master_seed=4)
    result = run_experiment(config)
    seeds = [int(s) for s in run_seeds(config.master_seed, 0, range(150))]
    assert_same_runs(list(result.runs),
                     per_path(config.params, config.strategy, seeds))


@pytest.mark.parametrize("rows", [1, 7])
def test_run_experiment_independent_of_chunk_size(monkeypatch, rows):
    config = ExperimentConfig(
        params=gbm(300),
        strategy=StrategyConfig(kind="trend", c_mult=0.01, alpha=0.5,
                                execution_mode="observed"),
        n_runs=23, master_seed=9)
    default = run_experiment(config)
    monkeypatch.setattr(strategies, "chunk_rows", lambda n_steps: rows)
    assert run_experiment(config) == default
