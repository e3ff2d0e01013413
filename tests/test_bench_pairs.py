"""tools/bench_pairs.py: the summary of alternating parent/change pairs."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(throughput, attempted=100, failed=0):
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {"throughput_per_s": {"value": throughput}}}


def test_a_failed_run_drops_its_pair_and_keeps_the_others_matched(
        bench_pairs):
    broken = {"correct": False, "stderr": "Traceback ...", "exit_code": 1}
    incorrect = {**run(0.0, attempted=40, failed=3), "correct": False}
    pairs = [
        {"parent": run(10.0), "change": run(11.0)},
        {"parent": broken, "change": run(100.0)},  # no parent result
        {"parent": run(20.0), "change": run(19.0)},
        {"parent": run(30.0), "change": incorrect},
        {"parent": run(40.0), "change": run(41.0)},
    ]
    summary = bench_pairs.summarize(pairs, {"throughput_per_s": "higher"})
    entry = summary["throughput_per_s"]
    # pairs 1, 3 and 5: the change wins 1 and 5 and loses 3; zipping the
    # filtered sides would have paired 20 with 100 and 30 with 19
    assert entry["pairs"] == 3
    assert entry["change_wins"] == 2
    assert entry["parent"]["median"] == 20.0
    assert entry["change"]["median"] == 19.0
    assert summary["runs"] == {
        "parent": {"incorrect": 1, "failed": 0, "attempted": 400},
        "change": {"incorrect": 1, "failed": 3, "attempted": 440},
    }


def test_lower_is_better_and_no_valid_pair(bench_pairs):
    pairs = [{"parent": run(2.0), "change": run(1.0)},
             {"parent": run(2.0), "change": run(2.0)}]
    entry = bench_pairs.summarize(pairs, {"throughput_per_s": "lower"})[
        "throughput_per_s"]
    assert (entry["change_wins"], entry["pairs"]) == (1, 2)
    summary = bench_pairs.summarize(
        [{"parent": {"correct": False}, "change": run(1.0)}],
        {"throughput_per_s": "higher"})
    assert "throughput_per_s" not in summary
    assert summary["runs"]["parent"]["incorrect"] == 1


def pairs_of(parent, change):
    return [{"parent": run(p), "change": run(c)}
            for p, c in zip(parent, change)]


def test_claim_met_needs_nine_wins_in_ten_and_a_gap_past_the_iqr(
        bench_pairs):
    parent = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0,
              108.0, 109.0]  # quartiles 101.75 and 107.25
    better = {"throughput_per_s": "higher"}

    def entry(change, direction="higher"):
        return bench_pairs.summarize(
            pairs_of(parent, change), {"throughput_per_s": direction})[
                "throughput_per_s"]

    # +20 in every pair: the gap of 20 exceeds the spread of 5.5
    assert entry([p + 20.0 for p in parent])["claim_met"] is True
    # nine wins of ten still count
    nine = [p + 20.0 for p in parent[:9]] + [parent[9] - 1.0]
    assert entry(nine)["change_wins"] == 9
    assert entry(nine)["claim_met"] is True
    # eight wins do not
    eight = [p + 20.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]]
    assert entry(eight)["claim_met"] is False
    # every pair won, but the medians are closer than the parent's spread
    small = [p + 1.0 for p in parent]
    assert entry(small)["change_wins"] == 10
    assert entry(small)["claim_met"] is False
    # a gap past the spread in the wrong direction is no claim
    lower = entry([p - 20.0 for p in parent], "lower")
    assert lower["claim_met"] is True
    worse = entry([p + 20.0 for p in parent], "lower")
    assert worse["median_gap_exceeds_parent_iqr"] is True
    assert worse["claim_met"] is False
    assert "within_bound" not in bench_pairs.summarize(
        pairs_of(parent, parent), better)["throughput_per_s"]


@pytest.mark.parametrize("direction, change, within", [
    ("higher", 76.0, True),  # 24% lower
    ("higher", 75.0, True),  # exactly the 25% bound
    ("higher", 74.0, False),
    ("higher", 500.0, True),
    ("lower", 124.0, True),  # 24% higher
    ("lower", 126.0, False),
    ("lower", 1.0, True),
])
def test_within_bound_follows_the_metric_direction(bench_pairs, direction,
                                                   change, within):
    summary = bench_pairs.summarize(
        pairs_of([100.0] * 4, [change] * 4),
        {"throughput_per_s": direction}, {"throughput_per_s": 0.25})
    assert summary["throughput_per_s"]["within_bound"] is within


ROOT = TOOL.parent.parent


def resummarize(bench_pairs, name):
    """Each workload's summary of a committed BENCH_*.json, recomputed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = json.loads((ROOT / name).read_text())
    return record, {workload: bench_pairs.summarize(entry["pairs"], better,
                                                    bounds)
                    for workload, entry in record["workloads"].items()}


def rounded(entry):
    ratio = entry["pair_ratio"]
    return (round(ratio["median"], 3),
            tuple(round(x, 3) for x in ratio["ci95"]))


@pytest.mark.parametrize("name, snap, backtest", [
    # 8 of 10 pairs won, inside the parent's quartiles: claim not met
    ("BENCH_scan_windows.json", (1.138, (1.020, 1.241)),
     (1.084, (0.960, 1.324))),
    # 9 of 10 pairs won, past the parent's quartiles: claim met
    ("BENCH_scan_windows_rerun.json", (1.204, (1.159, 1.314)), None),
])
def test_committed_scan_window_series_resummarise_to_pinned_ratios(
        bench_pairs, name, snap, backtest):
    record, summaries = resummarize(bench_pairs, name)
    for workload, summary in summaries.items():
        committed = record["workloads"][workload]["summary"]
        # the figures the record was written with are unchanged
        for metric, entry in committed.items():
            if metric != "runs":
                assert {k: summary[metric][k] for k in entry} == entry
    entry = summaries["simulate_embedded_snap"]["throughput_per_s"]
    assert rounded(entry) == snap
    assert entry["claim_met"] is (name == "BENCH_scan_windows_rerun.json")
    if backtest is not None:
        # the control runs none of the changed code, yet read 1.08x
        assert rounded(summaries["backtest_walkforward"][
            "throughput_per_s"]) == backtest


def test_bootstrap_interval_is_fixed_and_brackets_the_median(bench_pairs):
    values = [0.9, 1.0, 1.1, 1.2, 1.3, 1.25, 1.05]
    lo, hi = bench_pairs.bootstrap_median(values)
    assert (lo, hi) == bench_pairs.bootstrap_median(values)
    assert lo <= 1.1 <= hi and min(values) <= lo and hi <= max(values)
    assert bench_pairs.bootstrap_median([2.0] * 4) == (2.0, 2.0)


def test_pair_ratio_is_the_median_ratio_within_pairs(bench_pairs):
    # the medians of the sides move together, the ratios within pairs
    # show the change's gain of 10%
    parent = [100.0, 80.0, 120.0, 90.0, 110.0]
    entry = bench_pairs.summarize(
        pairs_of(parent, [1.1 * p for p in parent]),
        {"throughput_per_s": "higher"})["throughput_per_s"]
    assert entry["pair_ratio"]["median"] == pytest.approx(1.1)
    assert entry["pair_ratio"]["ci95"] == pytest.approx([1.1, 1.1])
    zero = bench_pairs.summarize(pairs_of([0.0, 1.0], [1.0, 1.0]),
                                 {"throughput_per_s": "lower"})
    assert "pair_ratio" not in zero["throughput_per_s"]


def test_ratio_report_marks_the_control(bench_pairs):
    record, summaries = resummarize(bench_pairs, "BENCH_scan_windows.json")
    for workload, summary in summaries.items():
        record["workloads"][workload]["summary"] = summary
    record["control"] = "backtest_walkforward"
    lines = bench_pairs.ratio_report(record)
    assert ("simulate_embedded_snap throughput_per_s: 1.138 (1.020-1.241) "
            "over 10 pairs, claim_met=False") in lines
    assert any(line.startswith("backtest_walkforward (control) "
                               "throughput_per_s: 1.084 (0.960-1.324)")
               for line in lines)


@pytest.mark.parametrize("value, recorded", [
    (None, False), ("", False), ("1", True), ("x", True)])
def test_machine_records_whether_bytecode_writing_is_off(
        bench_pairs, monkeypatch, value, recorded):
    # a non-empty value turns bytecode writing off, as Python reads it
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert bench_pairs.machine()["dont_write_bytecode"] is recorded
