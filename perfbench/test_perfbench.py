"""Self-tests of the benchmark: its summary oracle and its span arithmetic.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from statarb import cli, harness, strategies  # noqa: E402

SAMPLES = {
    "one_run": ([2.5], [1]),
    "ties": ([0.5, -0.5, 0.5, 0.5, -0.5, 0.5, -0.5, 0.5], [1, 2, 1, 1, 3, 1,
                                                          2, 1]),
    "all_gains": ([0.1, 0.2, 0.3], [1, 1, 2]),
    "no_cycles": ([-0.25, -0.25, 0.0], [0, 0, 0]),
    "n19": (list(np.random.default_rng(1).normal(size=19)), [1] * 19),
    "n20": (list(np.random.default_rng(2).normal(size=20)), [2] * 20),
    "n21_ties": ([float(round(x)) for x in
                  np.random.default_rng(3).normal(size=21)],
                 list(range(21))),
    "n1000": (list(np.random.default_rng(4).normal(size=1000)),
              list(np.random.default_rng(5).integers(0, 20, size=1000))),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_oracle_matches_harness_metrics(name):
    pnl, n = SAMPLES[name]
    pnl = [float(p) for p in pnl]
    n = [int(k) for k in n]
    s = harness.metrics(pnl, [0] * len(pnl), n)
    got = checks.summary_oracle(pnl, n)
    assert got == {
        "gain_pa": s.mean_gain, "median": s.median_gain, "var95": s.var95,
        "gain_pt": s.gain_per_trade, "losses": s.loss_fraction,
        "loss_mean": s.loss_mean, "avg_n": s.avg_n, "max_n": s.max_n,
    }


def test_check_simulate_accepts_cli_output_and_rejects_a_changed_cell(
        tmp_path, capsys):
    out = tmp_path / "runs.csv"
    assert cli.main(["simulate", "--runs", "60", "--steps", "200",
                     "--seed", "3", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    table = out.read_text()
    assert checks.check_simulate(stdout, table, 60) == []
    row = checks.data_lines(stdout)[-1]
    cells = row.split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    changed = stdout.replace(row, ",".join(cells))
    assert checks.check_simulate(changed, table, 60) == [
        f"median: printed {cells[2]}, oracle {row.split(',')[2]}"]


def test_covered_takes_the_union_clipped_to_the_span():
    assert spans.covered([], 0.0, 10.0) == 0.0
    assert spans.covered([(1.0, 3.0), (2.0, 5.0), (9.0, 12.0)],
                         0.0, 10.0) == 5.0
    assert spans.covered([(4.0, 6.0), (1.0, 2.0)], 0.0, 10.0) == 3.0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; child [5, 6]
    trace = [["a", 0.0, 10.0, -1, 0, None],
             ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None],
             ["b", 5.0, 6.0, 0, 0, None]]
    assert spans.self_times(trace) == [6.0, 2.0, 1.0, 1.0]
    summary = spans.summarize(trace)
    assert summary["b.calls"] == 2 and summary["b.self_s"] == 3.0
    assert summary["trace.traced_s"] == 10.0
    assert summary["a.self_frac"] == 0.6 and summary["b.self_frac"] == 0.3


def test_summarize_counts_segments_hits_and_runs():
    trace = [["paths.next_hit", 0.0, 1.0, -1, 0, [0, 101, 7]],
             ["paths.next_hit", 1.0, 2.0, -1, 0, [7, 101, 7]],
             ["paths.next_hit", 2.0, 3.0, -1, 0, [7, 101, -1]],
             ["strategies.run_follow_trend", 3.0, 4.0, -1, 0, [3, True]],
             ["strategies.run_follow_trend", 4.0, 5.0, -1, 0, [0, False]]]
    summary = spans.summarize(trace)
    assert summary["paths.next_hit.segments"] == 7 + 0 + 93
    assert summary["paths.next_hit.hit_ratio"] == 2 / 3
    assert summary["strategies.cycles_per_run"] == 1.5
    assert summary["strategies.positive_pnl_ratio"] == 0.5


def test_tracer_wraps_the_callers_names_and_restores_them(tmp_path, capsys):
    originals = (strategies.next_hit, dict(harness._RUNNERS))
    tracer = spans.Tracer()
    assert tracer.install() == []
    try:
        assert cli.main(["simulate", "--runs", "4", "--steps", "100",
                         "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    assert (strategies.next_hit, harness._RUNNERS) == originals
    capsys.readouterr()
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["cli.main", "harness.run_experiment"]
    assert names.count("strategies.run_embedded_binomial") == 4
    assert names.count("paths.simulate_gbm") == 4
    by_index = dict(enumerate(names))
    assert {by_index[span[3]] for span in tracer.spans
            if span[0] == "paths.next_hit"} == {
                "strategies.run_embedded_binomial"}
