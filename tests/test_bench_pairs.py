"""tools/bench_pairs.py: the summary of alternating parent/change pairs."""
from __future__ import annotations

import importlib.util
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
