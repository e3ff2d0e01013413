"""End-to-end tests for the command-line interface."""
from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import find_no_sa_mu, grid_binomial
from statarb import __version__
from statarb.backtest import CYCLES_HEADER
from statarb.cli import main
from statarb.gbm import GbmParams
from statarb.harness import (
    RUNS_HEADER,
    SWEEP_HEADER,
    ExperimentConfig,
    SweepAxis,
    run_experiment,
    sweep,
)
from statarb.lattice import tilde_q
from statarb.strategies import StrategyConfig

SIM_ARGS = ["--runs", "12", "--steps", "150", "--seed", "7"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------- check-model


def test_check_model_sec34(capsys):
    code, out, err = run_cli(["check-model", "sec34"], capsys)
    assert code == 2
    assert "status=SaExists" in out
    assert "q=1.2" in out
    assert "phi=(1.6,-1.4,-1.8)" in out


def test_check_model_counterexample(capsys):
    code, out, err = run_cli(["check-model", "bondarenko-counterexample"],
                             capsys)
    assert code == 0
    lines = out.splitlines()
    assert "status=NsaCertified" in lines
    assert "gamma1=0.666667" in lines
    assert "gamma2=3" in lines
    assert "nu1=3" in lines and "nu2=3" in lines
    assert "pid_candidate=(0.25,0,0.25,0.0833333,0.0833333,0.333333)" in lines
    assert "pid_is_valid_emm=false" in lines


def test_check_model_json_binomial_matches_fixture(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "kind": "binomial",
        "prices": {"s0": 100, "s_up": 105, "s_down": 95,
                   "s_uu": 110, "s_ud": 100, "s_dd": 90},
        "weights": [0.225, 0.3, 0.25, 0.225],
    }))
    code_file, out_file, _ = run_cli(["check-model", str(path)], capsys)
    code_fix, out_fix, _ = run_cli(["check-model", "sec34"], capsys)
    assert code_file == code_fix == 2
    assert out_file == out_fix


def test_check_model_json_binomial_certified(tmp_path, capsys):
    base = grid_binomial(100.0, 0.05, 1.5)
    certified = grid_binomial(100.0, 0.05, tilde_q(base))
    path = tmp_path / "certified.json"
    path.write_text(json.dumps({
        "kind": "binomial",
        "prices": {"s0": certified.s0, "s_up": certified.s_up,
                   "s_down": certified.s_down, "s_uu": certified.s_uu,
                   "s_ud": certified.s_ud, "s_dd": certified.s_dd},
        "weights": list(certified.p),
    }))
    code, out, _ = run_cli(["check-model", str(path)], capsys)
    assert code == 0
    assert "status=NsaCertified" in out
    assert "phi=" not in out


def test_check_model_json_trinomial_not_certified(tmp_path, capsys):
    path = tmp_path / "band.json"
    path.write_text(json.dumps({
        "kind": "trinomial",
        "prices": {"s0": 10, "s1_up": 12, "s1_down": 8, "s2_circ": 14,
                   "s2_uu": 13, "s2_ud": 10, "s2_dd": 6},
        "weights": [0.175, 0.2, 0.35, 0.05, 0.1, 0.125],
    }))
    code, out, _ = run_cli(["check-model", str(path)], capsys)
    assert code == 3
    assert "status=NotCertified" in out


@pytest.mark.parametrize("payload", [
    "{not json",
    json.dumps({"kind": "pentanomial", "prices": {}, "weights": []}),
    json.dumps({"kind": "binomial", "prices": {"s0": 100},
                "weights": [0.25] * 4}),
    json.dumps({"kind": "binomial",
                "prices": {"s0": 100, "s_up": 105, "s_down": 95,
                           "s_uu": 110, "s_ud": 100, "s_dd": 90},
                "weights": [0.5, 0.5]}),
])
def test_check_model_bad_files_exit_1(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    code, out, err = run_cli(["check-model", str(path)], capsys)
    assert code == 1
    assert "cannot load model" in err


def test_check_model_unknown_fixture_exits_1(capsys):
    code, _, err = run_cli(["check-model", "sec99"], capsys)
    assert code == 1
    assert "sec99" in err


# ---------------------------------------------------------------- simulate


def expected_summary(seed=7, runs=12, steps=150, **strategy_overrides):
    params = GbmParams(mu=0.1241, sigma=0.0837, s0=2186.0, horizon=1.0,
                       n_steps=steps)
    strategy = StrategyConfig(kind="embedded", c_mult=0.01,
                              **strategy_overrides)
    config = ExperimentConfig(params=params, strategy=strategy, n_runs=runs,
                              master_seed=seed)
    return run_experiment(config), config


def test_simulate_stdout_row_matches_library(capsys):
    code, out, _ = run_cli(["simulate", *SIM_ARGS], capsys)
    assert code == 0
    lines = out.splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert f"# version={__version__}" in meta
    assert "# seed=7" in meta
    assert "# quantile_method=order-statistic" in meta
    assert "# execution_mode=snap" in meta
    assert not any("time" in ln or "date" in ln for ln in meta)
    table = [ln for ln in lines if not ln.startswith("#")]
    assert table[0] == SWEEP_HEADER
    result, config = expected_summary()
    cells = table[1].split(",")
    assert float(cells[0]) == config.strategy.resolved_c(0.1241, 0.0837)
    assert float(cells[1]) == result.summary.mean_gain
    assert float(cells[2]) == result.summary.median_gain
    assert float(cells[3]) == result.summary.var95
    assert float(cells[7]) == result.summary.avg_n
    assert int(cells[8]) == result.summary.max_n


def test_simulate_out_file_has_runs_table(tmp_path, capsys):
    out_path = tmp_path / "runs.csv"
    code, _, _ = run_cli(["simulate", *SIM_ARGS, "--out", str(out_path)],
                         capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    table = [ln for ln in lines if not ln.startswith("#")]
    assert table[0] == RUNS_HEADER
    assert len(table) == 1 + 12
    assert lines[0].startswith("# version=")


def test_simulate_reports_ended_by_on_stderr(tmp_path, capsys):
    out_path = tmp_path / "runs.csv"
    code, out, err = run_cli(["simulate", "--runs", "60", "--steps", "150",
                              "--seed", "7", "--out", str(out_path)], capsys)
    assert code == 0
    table = [ln for ln in out_path.read_text().splitlines()
             if not ln.startswith("#")][1:]
    ended = [ln.split(",")[4] for ln in table]
    assert 0 < ended.count("Horizon") < ended.count("PositivePnl")
    assert err == (f"statarb: ended_by: "
                   f"PositivePnl={ended.count('PositivePnl')} "
                   f"Horizon={ended.count('Horizon')}\n")
    assert "ended_by" not in out


def test_simulate_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    code1, out1, _ = run_cli(["simulate", *SIM_ARGS, "--out", str(a)], capsys)
    code2, out2, _ = run_cli(["simulate", *SIM_ARGS, "--out", str(b)], capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert a.read_bytes() == b.read_bytes()


def test_simulate_seed_changes_output(capsys):
    _, out7, _ = run_cli(["simulate", *SIM_ARGS], capsys)
    _, out8, _ = run_cli(["simulate", "--runs", "12", "--steps", "150",
                          "--seed", "8"], capsys)
    assert out7 != out8


def test_seed_env_var_used_when_flag_absent(monkeypatch, capsys):
    monkeypatch.setenv("STATARB_SEED", "7")
    _, out_env, _ = run_cli(["simulate", "--runs", "12", "--steps", "150"],
                            capsys)
    _, out_flag, _ = run_cli(["simulate", *SIM_ARGS], capsys)
    assert out_env == out_flag


def test_seed_flag_beats_env_var(monkeypatch, capsys):
    monkeypatch.setenv("STATARB_SEED", "99")
    _, out, _ = run_cli(["simulate", *SIM_ARGS], capsys)
    assert "# seed=7" in out


def test_seed_defaults_to_zero(monkeypatch, capsys):
    monkeypatch.delenv("STATARB_SEED", raising=False)
    _, out, _ = run_cli(["simulate", "--runs", "12", "--steps", "150"],
                        capsys)
    assert "# seed=0" in out


def test_bad_env_seed_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("STATARB_SEED", "not-an-int")
    code, _, err = run_cli(["simulate", "--runs", "12", "--steps", "150"],
                           capsys)
    assert code == 1
    assert err


@pytest.mark.parametrize("value", ["abc", "-4", "1.5", ""])
def test_bad_env_seed_names_the_variable(value, monkeypatch, capsys):
    monkeypatch.setenv("STATARB_SEED", value)
    code, out, err = run_cli(["simulate", "--runs", "12", "--steps", "150"],
                             capsys)
    assert code == 1
    assert out == ""
    assert err == (f"statarb: STATARB_SEED must be a nonnegative integer, "
                   f"got {value!r}\n")


def test_multi_word_master_seed_runs(capsys):
    code, out, _ = run_cli(["simulate", "--runs", "12", "--steps", "150",
                            "--seed", str(2**64)], capsys)
    assert code == 0
    assert f"# seed={2**64}" in out.splitlines()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("flag,value,low", [
    ("--seed", "-4", 0), ("--steps", "0", 1), ("--runs", "0", 1),
], ids=["seed", "steps", "runs"])
def test_count_flag_out_of_range_names_the_flag(command, flag, value, low,
                                                capsys):
    axis = ["--axis", "mu", "--values", "0.1"] if command == "sweep" else []
    code, out, err = run_cli([command, *axis, flag, value], capsys)
    assert code == 1
    assert out == ""
    assert err.endswith(f"statarb {command}: error: argument {flag}: "
                        f"must be >= {low}, got {value}\n")


def test_simulate_c_and_c_mult_conflict_exits_1(capsys):
    code, _, err = run_cli(["simulate", *SIM_ARGS, "--c", "0.01",
                            "--c-mult", "0.01"], capsys)
    assert code == 1
    assert err


def test_simulate_all_runs_skipped_exits_4(capsys):
    mu_star = find_no_sa_mu(0.02, 0.1)
    code, _, err = run_cli(["simulate", "--mu", repr(mu_star),
                            "--sigma", "0.1", "--c", "0.02",
                            "--runs", "3", "--steps", "50"], capsys)
    assert code == 4
    assert err


def test_simulate_strategy_and_mode_flags(capsys):
    code, out, _ = run_cli(["simulate", *SIM_ARGS, "--strategy", "trend",
                            "--alpha", "0.5", "--mode", "observed"], capsys)
    assert code == 0
    assert "# execution_mode=observed" in out
    params = GbmParams(mu=0.1241, sigma=0.0837, s0=2186.0, horizon=1.0,
                       n_steps=150)
    strategy = StrategyConfig(kind="trend", c_mult=0.01, alpha=0.5,
                              execution_mode="observed")
    result = run_experiment(ExperimentConfig(params=params,
                                             strategy=strategy,
                                             n_runs=12, master_seed=7))
    row = [ln for ln in out.splitlines() if not ln.startswith("#")][1]
    assert float(row.split(",")[1]) == result.summary.mean_gain


@pytest.mark.parametrize("flag,value,kind", [
    ("--mu", "nan", "embedded"),
    ("--mu", "inf", "trend"),
    ("--sigma", "inf", "embedded"),
    ("--s0", "nan", "embedded"),
    ("--horizon", "inf", "trend"),
    ("--alpha", "nan", "embedded"),
    ("--alpha", "inf", "trend"),
])
def test_simulate_non_finite_parameter_exits_1(flag, value, kind, capsys):
    code, out, err = run_cli(["simulate", *SIM_ARGS, "--c", "0.01",
                              "--strategy", kind, flag, value], capsys)
    assert code == 1
    assert out == ""
    assert err == f"statarb: {flag[2:]} must be finite\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--c", "1e-16", "--runs", "3", "--steps", "50"],
    ["simulate", "--c", "1.5e-16", "--runs", "3", "--steps", "50"],
    ["simulate", "--strategy", "trend", "--c", "1.5e-16", "--runs", "3",
     "--steps", "50"],
    ["backtest", "--data", str(Path(__file__).resolve().parent / "data"
                               / "gbm_up.csv"), "--boundary", "1e-17"],
])
def test_collapsed_grid_c_exits_1_naming_c(argv, capsys):
    # 1 + c or 1 + 2c rounds onto a neighbouring grid level
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    c = argv[argv.index("--c" if "--c" in argv else "--boundary") + 1]
    assert err == f"statarb: c={c} is too small: the grid levels " \
        "1 + k*c are not distinct floats\n"


@pytest.mark.parametrize("mode", ["snap", "observed"])
def test_embedded_grid_collapsed_at_s0_exits_1(mode, capsys):
    # the normalized levels 1 + k*c are distinct floats at this c, but
    # s0*(1 - 2c) and s0*(1 - c) round to one float
    c, s0 = "1.7869141059965552e-16", "1569.3101395953286"
    code, out, err = run_cli(["simulate", "--c", c, "--s0", s0, "--runs",
                              "3", "--steps", "50", "--mode", mode], capsys)
    assert (code, out) == (1, "")
    assert err == f"statarb: grid levels collapse at c={c}, anchor={s0}\n"


@pytest.mark.parametrize("kind", ["embedded", "trend"])
def test_simulate_tiny_s0_names_s0_and_c(kind, capsys):
    # (c * s0)^3 underflows to 0 in the embedded closed form
    code, out, err = run_cli(["simulate", *SIM_ARGS, "--strategy", kind,
                              "--s0", "1e-110"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("statarb: s0=1e-110 is too small for c=")
    assert "Traceback" not in err


# ------------------------------------------------------------------- sweep


def test_sweep_matches_library(capsys):
    code, out, _ = run_cli(["sweep", *SIM_ARGS, "--axis", "c_mult",
                            "--values", "0.01,0.02,0.04"], capsys)
    assert code == 0
    table = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert table[0] == SWEEP_HEADER
    assert len(table) == 4
    params = GbmParams(mu=0.1241, sigma=0.0837, s0=2186.0, horizon=1.0,
                       n_steps=150)
    strategy = StrategyConfig(kind="embedded", c_mult=0.01)
    rows = sweep(ExperimentConfig(
        params=params, strategy=strategy, n_runs=12, master_seed=7,
        sweep=SweepAxis("c_mult", (0.01, 0.02, 0.04))))
    for line, row in zip(table[1:], rows):
        cells = line.split(",")
        assert float(cells[0]) == row.param
        assert float(cells[1]) == row.summary.mean_gain


def test_sweep_reports_ended_by_per_cell_on_stderr(tmp_path, capsys):
    argv = ["sweep", *SIM_ARGS, "--axis", "eta", "--values", "1.0,1.5",
            "--mu", "0.1", "--strategy", "trend", "--mode", "observed"]
    code, out, err = run_cli([*argv, "--out", str(tmp_path / "a.csv")],
                             capsys)
    assert code == 0
    assert "ended_by" not in out
    params = GbmParams(mu=0.1, sigma=0.0837, s0=2186.0, horizon=1.0,
                       n_steps=150)
    strategy = StrategyConfig(kind="trend", c_mult=0.01,
                              execution_mode="observed")
    lines = []
    for j, eta in enumerate((1.0, 1.5)):
        cell = ExperimentConfig(params=replace(params, sigma=0.1 / eta),
                                strategy=strategy, n_runs=12, master_seed=7)
        ended = [r.ended_by for r in run_experiment(cell, axis_index=j).runs]
        lines.append(f"statarb: ended_by: eta={eta!r} "
                     f"PositivePnl={ended.count('PositivePnl')} "
                     f"Horizon={ended.count('Horizon')}\n")
    assert err == "".join(lines)
    assert "Horizon=0" not in err  # both causes occur
    # the diagnostics leave stdout and --out as they were
    code, out2, _ = run_cli([*argv, "--out", str(tmp_path / "b.csv")],
                            capsys)
    assert out2 == out == (tmp_path / "a.csv").read_text()
    assert (tmp_path / "b.csv").read_bytes() == \
        (tmp_path / "a.csv").read_bytes()


def test_sweep_out_file_equals_stdout(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run_cli(["sweep", *SIM_ARGS, "--axis", "eta",
                            "--values", "1.0,1.5", "--mu", "0.1",
                            "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text() == out


@pytest.mark.parametrize("argv", [
    ["simulate", *SIM_ARGS, "--mu", "0"],
    ["sweep", *SIM_ARGS, "--axis", "mu", "--values", "0"],
])
def test_zero_drift_under_c_mult_names_its_cause(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == ("statarb: resolved c=0.0 outside (0, 1/2): "
                   "c = c_mult * |mu| / sigma with c_mult=0.01, mu=0.0, "
                   "sigma=0.0837\n")


def test_sweep_bad_values_exits_1(capsys):
    code, _, err = run_cli(["sweep", *SIM_ARGS, "--axis", "c_mult",
                            "--values", "0.01,oops"], capsys)
    assert code == 1
    assert "bad --values" in err


def test_sweep_zero_eta_exits_1(capsys):
    code, out, err = run_cli(["sweep", *SIM_ARGS, "--axis", "eta",
                              "--values", "1.0,0"], capsys)
    assert code == 1
    assert out == ""
    assert err == "statarb: eta must be nonzero\n"


@pytest.mark.parametrize("value,message", [
    ("-1", "eta=-1.0 must have the sign of mu=0.1241"),
    ("nan", "eta must be finite, got nan"),
    ("inf", "eta must be finite, got inf"),
])
def test_sweep_bad_eta_exits_1(value, message, capsys):
    code, out, err = run_cli(["sweep", *SIM_ARGS, "--axis", "eta",
                              "--values", value], capsys)
    assert code == 1
    assert out == ""
    assert err == f"statarb: {message}\n"


def test_sweep_unknown_axis_exits_1(capsys):
    code, _, err = run_cli(["sweep", *SIM_ARGS, "--axis", "gamma",
                            "--values", "1,2"], capsys)
    assert code == 1
    assert "invalid choice" in err


# ---------------------------------------------------------------- backtest


@pytest.fixture()
def market_csv(tmp_path):
    import datetime

    from statarb.backtest import MarketSeries, dump_csv
    from statarb.paths import simulate_gbm

    n = 252 * 6
    params = GbmParams(mu=0.12, sigma=0.08, s0=100.0, horizon=n / 252.0,
                       n_steps=n - 1)
    path = simulate_gbm(params, seed=11)
    d0 = datetime.date(2000, 1, 3)
    dates = tuple(d0 + datetime.timedelta(days=i) for i in range(n))
    series = MarketSeries(dates, np.asarray(path.prices))
    target = tmp_path / "market.csv"
    with open(target, "w", encoding="utf-8") as fh:
        dump_csv(series, fh)
    return target


def test_backtest_prints_summary_json(market_csv, capsys, tmp_path):
    cycles = tmp_path / "cycles.csv"
    code, out, _ = run_cli(["backtest", "--data", str(market_csv),
                            "--boundary", "0.10", "--out", str(cycles)],
                           capsys)
    assert code == 0
    payload = json.loads(out)
    for key in ("gpta", "total_pnl", "n_cycles", "traded_qty",
                "traded_notional", "window_days", "boundary_fraction"):
        assert key in payload
    assert payload["window_days"] == 756
    assert payload["_meta"]["version"] == __version__
    assert payload["_meta"]["execution_mode"] == "observed"
    lines = cycles.read_text().splitlines()
    table = [ln for ln in lines if not ln.startswith("#")]
    assert table[0] == CYCLES_HEADER
    assert len(table) == 1 + payload["n_cycles"]


def test_backtest_byte_identical(market_csv, capsys):
    args = ["backtest", "--data", str(market_csv), "--boundary", "0.10"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_backtest_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(["backtest", "--data",
                            str(tmp_path / "none.csv"),
                            "--boundary", "0.10"], capsys)
    assert code == 1
    assert err


def test_backtest_malformed_csv_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("date,close\n2020-01-01,-5.0\n")
    code, _, err = run_cli(["backtest", "--data", str(bad),
                            "--boundary", "0.10"], capsys)
    assert code == 1
    assert "line 2" in err


def test_backtest_too_short_exits_1(capsys, tmp_path):
    import datetime

    short = tmp_path / "short.csv"
    rows = [f"{datetime.date(2020, 1, 1) + datetime.timedelta(days=i)},100.0"
            for i in range(40)]
    short.write_text("date,close\n" + "\n".join(rows) + "\n")
    code, _, err = run_cli(["backtest", "--data", str(short),
                            "--boundary", "0.10"], capsys)
    assert code == 1
    assert err


def test_backtest_constant_series_exits_1(capsys, tmp_path):
    import datetime

    flat = tmp_path / "flat.csv"
    rows = [f"{datetime.date(2020, 1, 1) + datetime.timedelta(days=i)},100.0"
            for i in range(900)]
    flat.write_text("date,close\n" + "\n".join(rows) + "\n")
    code, out, err = run_cli(["backtest", "--data", str(flat),
                              "--boundary", "0.10"], capsys)
    assert (code, out, err) == (1, "", "statarb: return variance is zero\n")


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_backtest_non_finite_alpha_exits_1(market_csv, capsys, alpha):
    code, out, err = run_cli(["backtest", "--data", str(market_csv),
                              "--boundary", "0.10", "--alpha", alpha],
                             capsys)
    assert (code, out, err) == (1, "", "statarb: alpha must be finite\n")


def test_backtest_reports_skips_and_cutoff_on_stderr(capsys):

    from statarb.backtest import BacktestConfig, load_csv, run_backtest

    data = Path(__file__).resolve().parent / "data" / "gbm_down.csv"
    golden = Path(__file__).resolve().parent / "golden"
    code, out, err = run_cli(["backtest", "--data", str(data),
                              "--boundary", "0.02"], capsys)
    assert code == 0
    # the report leaves stdout as it was
    assert out.encode() == \
        (golden / "backtest_down_alpha0.stdout").read_bytes()
    result = run_backtest(load_csv(data), BacktestConfig(0.02))
    assert result.cutoff_pnl != 0.0
    assert err == ("statarb: skipped windows: zero_variance=0 NoSaExists=0 "
                   "NoSolution=0 DegenerateModel=0\n"
                   f"statarb: cut-off cycle pnl: {result.cutoff_pnl!r}\n")


@pytest.mark.parametrize("flag,value,message", [
    ("--window", "10", "must be >= 60, got 10"),
    ("--window", "59", "must be >= 60, got 59"),
    ("--boundary", "0.7", "must lie in (0, 1/2), got 0.7"),
    ("--boundary", "0.5", "must lie in (0, 1/2), got 0.5"),
    ("--boundary", "0", "must lie in (0, 1/2), got 0"),
    ("--boundary", "nan", "must lie in (0, 1/2), got nan"),
], ids=["window-10", "window-59", "boundary-0.7", "boundary-0.5",
        "boundary-0", "boundary-nan"])
def test_backtest_flag_out_of_range_names_the_flag(market_csv, flag, value,
                                                   message, capsys):
    args = {"--boundary": "0.02", flag: value}
    code, out, err = run_cli(["backtest", "--data", str(market_csv),
                              *(x for kv in args.items() for x in kv)],
                             capsys)
    assert (code, out) == (1, "")
    assert err.endswith(f"statarb backtest: error: argument {flag}: "
                        f"{message}\n")


def test_backtest_requires_boundary(market_csv, capsys):
    code, _, err = run_cli(["backtest", "--data", str(market_csv)], capsys)
    assert code == 1
    assert "boundary" in err


# ------------------------------------------------------------ entry points


def test_missing_command_exits_1(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "usage" in err


def test_version_flag(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
    assert __version__ in out


def test_module_invocation_roundtrip():

    import statarb
    # run from the directory holding the package under test, so that
    # `-m statarb` imports it whether or not it is installed
    proc = subprocess.run(
        [sys.executable, "-m", "statarb", "check-model", "sec34"],
        capture_output=True, text=True,
        cwd=Path(statarb.__file__).resolve().parents[1])
    assert proc.returncode == 2
    assert "phi=(1.6,-1.4,-1.8)" in proc.stdout
