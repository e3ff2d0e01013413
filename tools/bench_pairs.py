"""Alternating parent/change pairs of the benchmark, recorded as BENCH_*.json.

Run from anywhere inside a checkout, with both revisions committed:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --pairs simulate_embedded_snap=10 --pairs backtest_walkforward=4 \\
        --seconds 30 --out BENCH_example.json

Each revision is exported with ``git archive`` into ``.bench_build/<sha>``
(git-ignored), and each side runs its own, unchanged ``perfbench/run.py``
there, one workload run per process, with ``--trace 0``.  Pair k uses
workload seed ``--seed + k`` on both sides, and the side that runs first
alternates from pair to pair.  The output records the machine, both
revisions, every pair's result line, and per end-to-end metric each side's
median and quartiles and the number of pairs the change won.  It is
rewritten after every pair, so an interrupted series keeps what it has.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
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
    return {"cpu": model, "nproc": os.cpu_count(),
            "machine": platform.machine(), "system": platform.system(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins
    (ties count for neither side)."""
    out = {}
    for metric, direction in better.items():
        sides = {side: [pair[side]["metrics"][metric]["value"]
                        for pair in pairs if "metrics" in pair[side]]
                 for side in ("parent", "change")}
        if not all(sides.values()):
            continue
        entry = {}
        for side, values in sides.items():
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (values[0],) * 3)
            entry[side] = {"median": statistics.median(values),
                           "q1": q1, "q3": q3}
        sign = 1.0 if direction == "higher" else -1.0
        entry["change_wins"] = sum(
            sign * (c - p) > 0 for p, c in zip(sides["parent"],
                                                sides["change"]))
        entry["pairs"] = len(sides["parent"])
        entry["median_ratio_change_over_parent"] = (
            entry["change"]["median"] / entry["parent"]["median"])
        # a gain counts when the medians differ by more than the spread
        # of the parent's own runs
        entry["median_gap_exceeds_parent_iqr"] = (
            abs(entry["change"]["median"] - entry["parent"]["median"])
            > entry["parent"]["q3"] - entry["parent"]["q1"])
        out[metric] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", action="append", required=True,
                        metavar="WORKLOAD=N")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    plan = [(name, int(n)) for name, n in
            (item.split("=", 1) for item in args.pairs)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"parent": checkout(args.parent), "change": checkout(args.change)}
    record = {"machine": machine(),
              "revisions": {side: sha for side, (sha, _) in trees.items()},
              "seconds": args.seconds, "workloads": {}}
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
            record["workloads"][name]["summary"] = summarize(pairs, better)
            args.out.write_text(json.dumps(record, indent=1) + "\n")
            print(f"{name} pair {k + 1}/{n_pairs} seed {seed}: " + ", ".join(
                f"{side} correct={pair[side]['correct']}"
                for side in ("parent", "change")), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
