"""Alternating parent/change pairs of the benchmark, recorded as BENCH_*.json.

Run from anywhere inside a checkout, with both revisions committed:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --pairs simulate_embedded_snap=10 --pairs backtest_walkforward=4 \\
        --control backtest_walkforward --seconds 30 --out BENCH_example.json

Each revision is exported with ``git archive`` into ``.bench_build/<sha>``
(git-ignored), and each side runs its own, unchanged ``perfbench/run.py``
there, one workload run per process, with ``--trace 0``.  Pair k uses
workload seed ``--seed + k`` on both sides, and the side that runs first
alternates from pair to pair.  The output records the machine (with
whether PYTHONDONTWRITEBYTECODE is set), both revisions, every pair's
result line, and per end-to-end metric each side's median and quartiles
and the number of pairs the change won, counted over the pairs in which
both sides ran correctly, and per side the runs that did not.  Per
metric it also records two verdicts: ``claim_met`` (the change won at
least 9 of 10 valid pairs and its median beats the parent's by more than
the parent's quartile spread) and ``within_bound`` (the change's median
is worse than the parent's by no more than the metric's relative
``bound`` in BENCHMARK.json).  Next to them it records the median of the
change/parent ratios within the pairs and a bootstrap 95% interval of
that median (``pair_ratio``): both sides of a pair run back to back, so
the ratio cancels a drift of the host slower than one pair.  ``--control WORKLOAD`` names a workload that runs none of the
changed code; its interval shows how far the host alone moved during
the series, and it is printed next to the others at the end.  The record
is rewritten after every pair, so an interrupted series keeps what it
has.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def checkout(rev: str) -> tuple[str, Path]:
    """The full sha of ``rev`` and a clean export of its tree."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    target = ROOT / ".bench_build" / sha
    if not (target / "perfbench" / "run.py").exists():
        target.mkdir(parents=True, exist_ok=True)
        with tarfile.open(fileobj=io.BytesIO(git("archive", sha))) as tar:
            tar.extractall(target, filter="data")
    return sha, target


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "stderr": proc.stderr[-2000:]}
    result["exit_code"] = proc.returncode
    return result


def machine() -> dict:
    model = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy
    # the runs inherit it; without bytecode each start compiles the
    # package again, about 10 ms more setup_s
    return {"cpu": model, "nproc": os.cpu_count(),
            "machine": platform.machine(), "system": platform.system(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "dont_write_bytecode": bool(os.environ.get(
                "PYTHONDONTWRITEBYTECODE"))}


def bootstrap_median(values: list[float], resamples: int = 4000,
                     seed: int = 0) -> tuple[float, float]:
    """A 95% percentile-bootstrap interval of the median of ``values``:
    the 2.5% and 97.5% order statistics of the medians of ``resamples``
    resamples with replacement, drawn by random.Random(seed), so that a
    record re-summarises to the same figures."""
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(values, k=len(values)))
                     for _ in range(resamples))
    tail = int(0.025 * resamples)
    return medians[tail], medians[resamples - 1 - tail]


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins
    (ties count for neither side), over the pairs in which both sides ran
    with ``correct: true``, so that a failed run drops its whole pair and
    leaves every other pair matched.  Under "runs": per side, the runs
    that were not correct and the failed and attempted operations.

    ``better`` gives each metric's direction ("higher" or "lower"), and
    ``bounds`` the largest relative loss of the change's median against
    the parent's that keeps a metric ``within_bound`` (a metric without
    a bound gets no such verdict).  ``claim_met`` holds when the change
    won at least 9/10 of the valid pairs and its median beats the
    parent's, in the better direction, by more than the parent's
    quartile spread.  ``pair_ratio`` gives the median change/parent
    ratio within the valid pairs and its bootstrap_median interval, when
    no parent value is 0."""
    sides = ("parent", "change")
    valid = [pair for pair in pairs
             if all(pair[side].get("correct") is True for side in sides)]
    out: dict = {"runs": {side: {
        "incorrect": sum(pair[side].get("correct") is not True
                         for pair in pairs),
        "failed": sum(pair[side].get("failed", 0) for pair in pairs),
        "attempted": sum(pair[side].get("attempted", 0) for pair in pairs),
    } for side in sides}}
    if not valid:
        return out
    for metric, direction in better.items():
        values = {side: [pair[side]["metrics"][metric]["value"]
                         for pair in valid] for side in sides}
        entry = {}
        for side in sides:
            q1, _, q3 = (statistics.quantiles(values[side], n=4)
                         if len(valid) > 1 else (values[side][0],) * 3)
            entry[side] = {"median": statistics.median(values[side]),
                           "q1": q1, "q3": q3}
        sign = 1.0 if direction == "higher" else -1.0
        entry["change_wins"] = sum(
            sign * (c - p) > 0 for p, c in zip(values["parent"],
                                                values["change"]))
        entry["pairs"] = len(valid)
        entry["median_ratio_change_over_parent"] = (
            entry["change"]["median"] / entry["parent"]["median"])
        # a gain counts when the medians differ by more than the spread
        # of the parent's own runs
        gap = entry["change"]["median"] - entry["parent"]["median"]
        spread = entry["parent"]["q3"] - entry["parent"]["q1"]
        entry["median_gap_exceeds_parent_iqr"] = abs(gap) > spread
        entry["claim_met"] = (10 * entry["change_wins"] >= 9 * len(valid)
                              and sign * gap > spread)
        if all(values["parent"]):
            ratios = [c / p for p, c in zip(values["parent"],
                                            values["change"])]
            entry["pair_ratio"] = {"median": statistics.median(ratios),
                                   "ci95": list(bootstrap_median(ratios))}
        if bounds and metric in bounds:
            entry["within_bound"] = (
                -sign * gap <= bounds[metric] * abs(entry["parent"]["median"]))
        out[metric] = entry
    return out


def ratio_report(record: dict) -> list[str]:
    """One line per workload and metric that has a pair ratio: its median,
    interval and claim_met, with the control workload marked."""
    lines = []
    for name, workload in record["workloads"].items():
        tag = " (control)" if name == record.get("control") else ""
        for metric, entry in workload.get("summary", {}).items():
            if "pair_ratio" not in entry:
                continue
            ratio = entry["pair_ratio"]
            lo, hi = ratio["ci95"]
            lines.append(f"{name}{tag} {metric}: {ratio['median']:.3f} "
                         f"({lo:.3f}-{hi:.3f}) over {entry['pairs']} pairs, "
                         f"claim_met={entry['claim_met']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", action="append", required=True,
                        metavar="WORKLOAD=N")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--control", metavar="WORKLOAD",
                        help="a workload that runs none of the changed code")
    args = parser.parse_args(argv)
    plan = [(name, int(n)) for name, n in
            (item.split("=", 1) for item in args.pairs)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    trees = {"parent": checkout(args.parent), "change": checkout(args.change)}
    record = {"machine": machine(),
              "revisions": {side: sha for side, (sha, _) in trees.items()},
              "seconds": args.seconds, "control": args.control,
              "workloads": {}}
    for name, n_pairs in plan:
        pairs: list[dict] = []
        record["workloads"][name] = {"pairs": pairs}
        for k in range(n_pairs):
            seed = args.seed + k
            order = ("parent", "change") if k % 2 == 0 else \
                ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side][1], name, seed,
                                      args.seconds)
            pairs.append(pair)
            record["workloads"][name]["summary"] = summarize(pairs, better,
                                                             bounds)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
            print(f"{name} pair {k + 1}/{n_pairs} seed {seed}: " + ", ".join(
                f"{side} correct={pair[side]['correct']}"
                for side in ("parent", "change")), file=sys.stderr)
    for line in ratio_report(record):
        print(line, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
