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
