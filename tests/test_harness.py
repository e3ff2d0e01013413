"""Tests for the Monte Carlo harness: metrics, seeding, sweeps, output."""
from __future__ import annotations

import io
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import find_no_sa_mu
from statarb.errors import AllRunsSkipped, EmptySample
from statarb.gbm import GbmParams
from statarb.harness import (
    MIN_STEP_RATIO,
    RUNS_HEADER,
    SWEEP_HEADER,
    ExperimentConfig,
    MetricsSummary,
    SweepAxis,
    dump_runs_csv,
    dump_sweep_csv,
    metrics,
    run_experiment,
    sweep,
)
from statarb.seeding import (
    SEED_BATCH,
    RunStream,
    run_seeds,
    stream_states,
)
from statarb.strategies import KINDS, MODES, StrategyConfig, run_seeded

PARAMS = GbmParams(mu=0.1241, sigma=0.0837, s0=2186.0, horizon=1.0,
                   n_steps=200)
EMBEDDED = StrategyConfig(kind="embedded", c_mult=0.01)


def small_config(**kw) -> ExperimentConfig:
    kw.setdefault("params", PARAMS)
    kw.setdefault("strategy", EMBEDDED)
    kw.setdefault("n_runs", 40)
    kw.setdefault("master_seed", 7)
    return ExperimentConfig(**kw)


def reference_metrics(pnl, n):
    """Plain-Python oracle for the summary statistics."""
    ordered = sorted(pnl)
    size = len(pnl)
    mean = sum(pnl) / size
    median = ordered[(size - 1) // 2]
    var95 = -ordered[math.ceil(0.05 * size) - 1]
    losses = [x for x in pnl if x < 0.0]
    loss_mean = sum(losses) / len(losses) if losses else 0.0
    avg_n = sum(n) / size
    return (mean, median, var95, len(losses) / size, loss_mean, avg_n,
            max(n))


# ---------------------------------------------------------------- metrics


def test_metrics_ascending_sample():
    pnl = list(range(1, 101))
    s = metrics(pnl, [1] * 100, [1] * 100)
    assert s.var95 == -5.0  # 5th order statistic, negated
    assert s.median_gain == 50.0
    assert s.mean_gain == 50.5
    assert s.loss_fraction == 0.0 and s.loss_mean == 0.0
    assert s.gain_per_trade == s.mean_gain
    assert s.avg_n == 1.0 and s.max_n == 1


def test_metrics_mixed_signs():
    s = metrics([-10.0, -5.0, 5.0, 10.0], [2] * 4, [1, 2, 1, 2])
    assert s.loss_fraction == 0.5
    assert s.loss_mean == -7.5
    assert s.mean_gain == 0.0
    assert s.avg_n == 1.5 and s.max_n == 2


def test_metrics_single_run_degenerates_to_scalars():
    s = metrics([42.0], [3], [2])
    assert s.mean_gain == s.median_gain == 42.0
    assert s.var95 == -42.0
    assert s.avg_n == 2.0 and s.max_n == 2
    assert s.gain_per_trade == 21.0


def test_metrics_errors():
    with pytest.raises(EmptySample):
        metrics([], [], [])
    with pytest.raises(ValueError):
        metrics([1.0, 2.0], [1], [1, 1])


def test_metrics_zero_cycles_guard():
    s = metrics([0.5, -0.5], [2, 2], [0, 0])
    assert s.avg_n == 0.0 and s.gain_per_trade == 0.0


def test_metrics_against_reference_randomized():
    rng = np.random.default_rng(61)
    for _ in range(1000):
        size = int(rng.integers(1, 300))
        pnl = list(rng.normal(scale=100.0, size=size))
        n = list(int(v) for v in rng.integers(0, 30, size=size))
        trades = [3 * v for v in n]
        s = metrics(pnl, trades, n)
        mean, median, var95, lf, lm, avg_n, max_n = reference_metrics(pnl, n)
        assert s.mean_gain == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert s.median_gain == median
        assert s.var95 == var95
        assert s.loss_fraction == lf
        assert s.loss_mean == pytest.approx(lm, rel=1e-12, abs=1e-12)
        assert s.avg_n == pytest.approx(avg_n, rel=1e-12)
        assert s.max_n == max_n


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(-5, 5).map(float) | st.floats(-1e6, 1e6),
                min_size=1, max_size=60))
def test_metrics_order_statistics_equal_sorted(pnl):
    # few distinct values, so ties at the order statistics are common
    ordered = sorted(pnl)
    s = metrics(pnl, [0] * len(pnl), [1] * len(pnl))
    assert s.median_gain == ordered[(len(pnl) - 1) // 2]
    assert s.var95 == -ordered[math.ceil(0.05 * len(pnl)) - 1]


def test_metrics_order_independent():
    rng = np.random.default_rng(62)
    pnl = rng.normal(size=257)
    n = rng.integers(0, 9, size=257)
    base = metrics(pnl, n, n)
    for _ in range(50):
        perm = rng.permutation(257)
        again = metrics(pnl[perm], n[perm], n[perm])
        assert again.median_gain == base.median_gain
        assert again.var95 == base.var95
        assert again.loss_fraction == base.loss_fraction
        assert again.max_n == base.max_n
        assert again.mean_gain == pytest.approx(base.mean_gain, rel=1e-12)


def test_var95_shift_equivariance():
    rng = np.random.default_rng(63)
    for _ in range(200):
        pnl = rng.normal(size=int(rng.integers(2, 200)))
        ones = np.ones_like(pnl)
        delta = float(rng.normal(scale=10.0))
        before = metrics(pnl, ones, ones).var95
        after = metrics(pnl + delta, ones, ones).var95
        assert after == -(-before + delta)


def test_gain_per_trade_times_avg_n_is_mean():
    rng = np.random.default_rng(64)
    for _ in range(200):
        size = int(rng.integers(1, 100))
        pnl = rng.normal(size=size)
        n = rng.integers(1, 20, size=size)
        s = metrics(pnl, n, n)
        assert s.gain_per_trade * s.avg_n == pytest.approx(
            s.mean_gain, rel=1e-12, abs=1e-15)


def test_metrics_summary_validation():
    with pytest.raises(ValueError):
        MetricsSummary(0, 0, 0, 0, loss_fraction=1.5, loss_mean=0,
                       avg_n=1, max_n=2)
    with pytest.raises(ValueError):
        MetricsSummary(0, 0, 0, 0, loss_fraction=0.5, loss_mean=0,
                       avg_n=3, max_n=2)


# ---------------------------------------------------------------- seeding


def run_seed(master: int, axis: int, run: int) -> int:
    """The seed of one run, from the batched derivation."""
    return int(run_seeds(master, axis, range(run, run + 1))[0])


def test_run_seed_tokens_are_frozen():
    # regression guard on the documented SeedSequence derivation
    assert run_seed(7, 0, 0) == 16920295385781661272
    assert run_seed(7, 0, 1) == 11461652373557861988
    assert run_seed(7, 1, 0) == 6635463128224577688
    assert run_seed(0, 0, 0) == 15793235383387715774


def test_run_seed_axes_are_distinct():
    seen = {run_seed(master, axis, run)
            for master in range(3) for axis in range(3)
            for run in range(20)}
    assert len(seen) == 180


def numpy_run_seed(master: int, axis: int, run: int) -> int:
    """The reference derivation, one SeedSequence per run."""
    seq = np.random.SeedSequence([master, axis, run])
    return int(seq.generate_state(1, np.uint64)[0])


# windows that start near a batch boundary or the last one-word run index
WINDOW_EDGES = [0, SEED_BATCH, 3 * SEED_BATCH, 2**32 - 1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(master=st.integers(0, 2**70), axis=st.integers(0, 64),
       edge=st.sampled_from(WINDOW_EDGES), offset=st.integers(-20, 5),
       length=st.integers(1, 30))
def test_batched_seeds_equal_seed_sequence(master, axis, edge, offset,
                                           length):
    start = max(0, edge + offset)
    runs = range(start, start + length)
    seeds = run_seeds(master, axis, runs)
    assert seeds.dtype == np.uint64
    assert [int(s) for s in seeds] == [numpy_run_seed(master, axis, r)
                                       for r in runs]
    states = stream_states(seeds)
    for seed, state in zip(seeds.tolist(), states):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert state.tolist() == expected.tolist()


def test_one_word_seeds_hash_exactly():
    # seeds below 2**32 are one entropy word for SeedSequence
    seeds = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    states = stream_states(np.array(seeds, dtype=np.uint64))
    for seed, state in zip(seeds, states):
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert state.tolist() == expected.tolist()


def test_run_stream_draws_the_normals_of_its_seed():
    seeds = [0, 2**32 - 1] + [run_seed(7, 0, r) for r in range(3)]
    states = stream_states(np.array(seeds, dtype=np.uint64))
    for seed, state in zip(seeds, states):
        got = np.random.default_rng(RunStream(state)).standard_normal(1000)
        want = np.random.default_rng(seed).standard_normal(1000)
        assert np.array_equal(got, want)


def test_run_stream_refuses_other_requests():
    stream = RunStream(stream_states(np.array([5], dtype=np.uint64))[0])
    with pytest.raises(ValueError):
        stream.generate_state(4)
    with pytest.raises(ValueError):
        stream.generate_state(2, np.uint64)


def test_run_experiment_builds_no_seed_sequence(monkeypatch):
    # per-run seeding would construct SeedSequences or pass ints to
    # default_rng: the batched derivation does neither
    n_runs = 3 * SEED_BATCH + 1
    config = small_config(
        params=GbmParams(mu=0.1241, sigma=0.0837, s0=2186.0, horizon=1.0,
                         n_steps=20),
        n_runs=n_runs, master_seed=2**40 + 3)
    built, seeded = [], []
    real_sequence, real_rng = np.random.SeedSequence, np.random.default_rng

    def counting_sequence(*args, **kwargs):
        built.append(args)
        return real_sequence(*args, **kwargs)

    def recording_rng(seed=None):
        seeded.append(type(seed))
        return real_rng(seed)

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "SeedSequence", counting_sequence)
        patch.setattr(np.random, "default_rng", recording_rng)
        result = run_experiment(config, axis_index=2)
    assert built == []
    assert len(seeded) == n_runs and set(seeded) == {RunStream}
    # the same runs on the reference int seeds, across every batch edge
    seeds = [numpy_run_seed(2**40 + 3, 2, r) for r in range(n_runs)]
    assert list(result.runs) == run_seeded(config.params, EMBEDDED, seeds)


# ------------------------------------------------------------- experiments


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        small_config(n_runs=0)
    with pytest.raises(ValueError):
        small_config(master_seed=-1)


def test_run_experiment_deterministic():
    base = run_experiment(small_config())
    again = run_experiment(small_config())
    assert base == again
    assert len(base.runs) == 40
    assert base.summary == metrics(
        [r.pnl for r in base.runs],
        [r.trade_count for r in base.runs],
        [r.n_repetitions for r in base.runs])


def test_run_experiment_master_seed_matters():
    a = run_experiment(small_config(master_seed=1))
    b = run_experiment(small_config(master_seed=2))
    assert a != b


def test_single_run_experiment_summary_equals_run():
    res = run_experiment(small_config(n_runs=1))
    (run,) = res.runs
    s = res.summary
    assert s.mean_gain == s.median_gain == run.pnl
    assert s.var95 == -run.pnl
    assert s.avg_n == run.n_repetitions == s.max_n


def test_all_runs_skipped_at_critical_drift():
    sigma, c = 0.1, 0.02
    mu_star = find_no_sa_mu(c, sigma)
    params = GbmParams(mu=mu_star, sigma=sigma, s0=100.0, horizon=1.0,
                       n_steps=50)
    cfg = small_config(params=params,
                       strategy=StrategyConfig(kind="embedded", c=c))
    with pytest.raises(AllRunsSkipped):
        run_experiment(cfg)


def test_run_experiment_covers_all_strategies():
    for kind in KINDS:
        for mode in MODES:
            cfg = small_config(
                strategy=StrategyConfig(kind=kind, c_mult=0.01,
                                        execution_mode=mode),
                n_runs=10)
            res = run_experiment(cfg)
            assert len(res.runs) == 10
            assert all(r.ended_by in ("PositivePnl", "Horizon")
                       for r in res.runs)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", MODES)
def test_run_experiment_counts_how_runs_ended_and_their_cycles(kind, mode):
    res = run_experiment(small_config(
        strategy=StrategyConfig(kind=kind, c_mult=0.01, execution_mode=mode)))
    assert res.ended_by == Counter(r.ended_by for r in res.runs)
    assert res.repetitions == Counter(r.n_repetitions for r in res.runs)
    assert set(res.ended_by) == {"PositivePnl", "Horizon"}
    assert len(res.repetitions) > 2


# ------------------------------------------------------------------ sweeps


def test_sweep_axis_validation():
    with pytest.raises(ValueError, match="unknown sweep axis 'volatility'"):
        sweep(small_config(), SweepAxis("volatility", (0.1,)))
    with pytest.raises(ValueError, match="needs at least one value"):
        sweep(small_config(), SweepAxis("c", ()))


def test_single_value_sweep_equals_run_experiment():
    rows = sweep(small_config(), SweepAxis("c_mult", (0.01,)))
    assert len(rows) == 1
    assert rows[0].param == 0.01
    assert rows[0].summary == run_experiment(small_config()).summary


def test_sweep_c_and_c_mult_axes_agree():
    c_mult = 0.01
    c_value = c_mult * PARAMS.mu / PARAMS.sigma
    by_mult = sweep(small_config(), SweepAxis("c_mult", (c_mult,)))
    by_c = sweep(small_config(), SweepAxis("c", (c_value,)))
    assert by_mult[0].summary == by_c[0].summary


def test_sweep_eta_axis_fixes_drift_and_scales_volatility():
    params = GbmParams(mu=0.1, sigma=0.25, s0=100.0, horizon=1.0,
                       n_steps=200)
    eta = 1.25
    rows = sweep(small_config(params=params), SweepAxis("eta", (eta,)))
    direct = run_experiment(small_config(
        params=GbmParams(mu=0.1, sigma=0.1 / eta, s0=100.0, horizon=1.0,
                         n_steps=200)))
    assert rows[0].summary == direct.summary


def test_sweep_mu_and_sigma_axes():
    rows = sweep(small_config(), SweepAxis("mu", (0.05, 0.1)))
    assert [r.param for r in rows] == [0.05, 0.1]
    rows = sweep(small_config(), SweepAxis("sigma", (0.1,)))
    direct = run_experiment(small_config(
        params=GbmParams(mu=PARAMS.mu, sigma=0.1, s0=2186.0, horizon=1.0,
                         n_steps=200)))
    assert rows[0].summary == direct.summary


def test_sweep_cells_use_independent_seeds():
    # same value twice: axis-index salt must make the cells differ
    rows = sweep(small_config(), SweepAxis("c_mult", (0.01, 0.01)))
    assert rows[0].summary != rows[1].summary


# ------------------------------------------------------------------ output


def test_dump_runs_csv_round_trip():
    res = run_experiment(small_config(n_runs=12))
    buf = io.StringIO()
    dump_runs_csv(res, buf, metadata={"seed": "7", "mode": "snap"})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# seed=7"
    assert lines[1] == "# mode=snap"
    assert lines[2] == RUNS_HEADER
    assert len(lines) == 3 + 12
    for i, line in enumerate(lines[3:]):
        run_id, pnl, n, trades, ended_by = line.split(",")
        assert int(run_id) == i
        assert float(pnl) == res.runs[i].pnl  # repr round-trips exactly
        assert int(n) == res.runs[i].n_repetitions
        assert int(trades) == res.runs[i].trade_count
        assert ended_by == res.runs[i].ended_by


def test_dump_sweep_csv():
    rows = sweep(small_config(n_runs=15), SweepAxis("c_mult", (0.01, 0.02)))
    buf = io.StringIO()
    dump_sweep_csv(rows, buf, metadata={"version": "0.1.0"})
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# version=0.1.0"
    assert lines[1] == SWEEP_HEADER
    assert len(lines) == 4
    first = lines[2].split(",")
    assert float(first[0]) == 0.01
    assert float(first[1]) == rows[0].summary.mean_gain
    assert int(first[8]) == rows[0].summary.max_n


def test_identical_invocations_byte_identical_outputs():
    def render() -> str:
        rows = sweep(small_config(n_runs=10), SweepAxis("c_mult", (0.01,)))
        buf = io.StringIO()
        dump_sweep_csv(rows, buf, metadata={"seed": "7"})
        return buf.getvalue()

    assert render() == render()


@pytest.mark.parametrize("mode", MODES)
def test_barrier_steps_below_the_floor_are_rejected(mode):
    # c / (sigma * sqrt(dt)) just above MIN_STEP_RATIO runs; just below,
    # the experiment is rejected by name before any path is generated
    grid_sigma = PARAMS.sigma * math.sqrt(PARAMS.dt)
    for factor in (1.01, 0.99):
        c = factor * MIN_STEP_RATIO * grid_sigma
        config = small_config(
            strategy=StrategyConfig(kind="trend", c=c, alpha=0.5,
                                    execution_mode=mode), n_runs=3)
        if factor > 1:
            assert len(run_experiment(config).runs) == 3
        else:
            with pytest.raises(ValueError, match=(
                    rf"^c={c!r} is too small for sigma=0\.0837 and "
                    r"steps=200: c / \(sigma \* sqrt\(dt\)\) = 0\.0099 ")):
                run_experiment(config)
