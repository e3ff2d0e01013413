"""Benchmark of the statarb CLI: one workload, one run, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate_embedded_snap --seed 1 \\
        --seconds 20 --trace 0

Jobs are ``statarb`` invocations run in process through
``statarb.cli.main(argv)``.  A run repeats a fixed round of jobs until
``--seconds`` of job time have been measured and keeps each job's best time;
the outputs of every execution are checked (checks.py).  With ``--trace 0``
the last stdout line carries the end-to-end metrics named in BENCHMARK.json,
with ``--trace 1`` the per-layer metrics of one more round, traced
(spans.py).  A readable report goes to stderr, and a record of the run (with
the spans, when traced) to ``.perfbench_work/``.
``--workload all`` runs every workload in turn and prints only the reports.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from checks import digest
from workloads import REFERENCE_SEED, WORKLOADS, Job, Workload

HERE = Path(__file__).resolve().parent
SETUP_REPS = 15
SETUP_CODE = """\
import contextlib, io, json, time
t0 = time.perf_counter()
import statarb.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = statarb.cli.main(["check-model", "sec34"])
t1 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    rc2 = statarb.cli.main(["check-model", "bondarenko-counterexample"])
print(json.dumps([t1 - t0, rc, rc2]))
"""


def host_probe() -> float:
    """Median seconds of a fixed pure-Python loop: a host-speed diagnostic."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def time_setup(root: Path) -> tuple[float, list[str]]:
    """Fresh interpreter: import statarb.cli and run `check-model sec34`."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        return float("nan"), [f"setup process failed: {proc.stderr[-500:]}"]
    seconds, rc_sec34, rc_bondarenko = json.loads(proc.stdout)
    problems = []
    if rc_sec34 != 2:
        problems.append(f"check-model sec34 exited {rc_sec34}, expected 2")
    if rc_bondarenko != 0:
        problems.append(f"check-model bondarenko-counterexample exited "
                        f"{rc_bondarenko}, expected 0")
    return seconds, problems


class Runner:
    """Runs and checks the jobs of one workload, keeping their records."""

    def __init__(self, cli, workload: Workload) -> None:
        self.cli = cli
        self.workload = workload
        self.records: list[dict] = []

    def run(self, job: Job) -> tuple[dict, str, str | None]:
        """Time one job, check its outputs; returns its record and outputs."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                # looked up per call, so that a traced wrapper is used
                rc = self.cli.main(job.argv)
            except Exception:  # noqa: BLE001 - a crashing job is a failure
                rc = None
                err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        problems = [] if rc == 0 else \
            [f"exit code {rc}: {err.getvalue()[-500:]}"]
        out_text = None
        if not problems:
            try:
                if job.out is not None:
                    out_text = Path(job.out).read_text(encoding="utf-8")
                problems = self.workload.check(out.getvalue(), out_text)
            except (OSError, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        record = {"job": job.index, "argv": job.argv, "seconds": seconds,
                  "work": job.work, "problems": problems}
        self.records.append(record)
        return record, out.getvalue(), out_text


def run_reference(cli, name: str, workdir: Path) -> dict:
    """Job 0 at the reference seed, untimed: warm-up and digest check."""
    workload = WORKLOADS[name](workdir / "reference", REFERENCE_SEED)
    workload.workdir.mkdir()
    record, stdout, out_text = Runner(cli, workload).run(workload.job(0))
    pinned = json.loads((HERE / "reference.json").read_text())[name]
    seen = digest(stdout, out_text)
    if not record["problems"] and seen != pinned:
        record["problems"].append(
            f"reference digest {seen} differs from reference.json {pinned}")
    return record


def measure(runner: Runner, seconds: float, root: Path,
            setups: list) -> tuple[list[Job], list[float]]:
    """Rounds of the workload's jobs until ``seconds`` of job time is
    measured; returns the jobs and each one's best time over the rounds.

    The host's speed swings by up to 2x within seconds as other tenants
    load it, so a job's best time, its cost when the host was least
    contended, repeats far better than a sum or median of times.  The
    SETUP_REPS set-up samples are taken between jobs, spread evenly over the
    measured time, for the same reason.
    """
    jobs = [runner.workload.job(k)
            for k in range(runner.workload.jobs_per_round)]
    best = [math.inf] * len(jobs)
    spent = 0.0
    while spent < seconds:
        for i, job in enumerate(jobs):
            if len(setups) <= SETUP_REPS * spent / seconds:
                setups.append(time_setup(root))
            took = runner.run(job)[0]["seconds"]
            best[i] = min(best[i], took)
            spent += took
    while len(setups) < SETUP_REPS:
        setups.append(time_setup(root))
    return jobs, best


def trace_round(runner: Runner, jobs: list[Job],
                record: dict) -> tuple[float, spans.Tracer]:
    """One more round of ``jobs``, traced; returns its time and the spans."""
    tracer = spans.Tracer()
    record["missing_trace_targets"] = tracer.install()
    took = 0.0
    try:
        for job in jobs:
            tracer.job = job.index
            took += runner.run(job)[0]["seconds"]
    finally:
        tracer.uninstall()
    return took, tracer


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    """One benchmark run: the result, also written as a run record."""
    base = root / ".perfbench_work"
    workdir = base / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    record: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "probe_before_s": host_probe()}
    setups: list[tuple[float, list[str]]] = []
    try:
        reference = run_reference(cli, name, workdir)
        runner = Runner(cli, WORKLOADS[name](workdir, seed))
        jobs, best = measure(runner, seconds, root, setups)
        if trace:
            took, tracer = trace_round(runner, jobs, record)
            metrics = spans.summarize(tracer.spans)
            metrics["trace.overhead_frac"] = took / sum(best) - 1.0
            tracer.dump(base / f"{name}-spans.json")
        else:
            metrics = {
                "throughput_per_s": sum(j.work for j in jobs) / sum(best),
                "setup_s": min(s for s, _ in setups),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        done = runner.records
        record["throughput_all_jobs_per_s"] = \
            sum(r["work"] for r in done) / sum(r["seconds"] for r in done)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["probe_after_s"] = host_probe()
    executions = [reference] + runner.records
    problems = [p for _, ps in setups for p in ps] + \
        [p for r in executions for p in r["problems"]]
    record.update(
        setup_s=[s for s, _ in setups],
        jobs=[{k: r[k] for k in ("job", "seconds", "work", "problems")}
              for r in executions],
        machine=machine_info(), metrics=metrics)
    (base / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return {"correct": not problems, "attempted": len(executions),
            "failed": sum(bool(r["problems"]) for r in executions),
            "metrics": metrics, "problems": problems,
            "probe": (record["probe_before_s"], record["probe_after_s"])}


def machine_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def report(name: str, result: dict, units: dict[str, str]) -> None:
    """Readable summary on stderr: every published metric with its unit."""
    err = sys.stderr
    print(f"[{name}] correct={result['correct']} attempted="
          f"{result['attempted']} failed={result['failed']} failed_frac="
          f"{result['failed'] / result['attempted']:.4g}", file=err)
    for metric, unit in units.items():
        if metric == "throughput_per_s":
            unit += f" ({WORKLOADS[name].unit}/s)"
        print(f"[{name}]   {metric} = {result['metrics'][metric]:.6g} {unit}",
              file=err)
    before, after = result["probe"]
    print(f"[{name}] host probe: {before * 1e3:.2f} ms before, "
          f"{after * 1e3:.2f} ms after", file=err)
    for problem in result["problems"][:20]:
        print(f"[{name}] FAIL {problem}", file=err)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        # one process per workload, so that each has its own peak RSS
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], stdout=subprocess.DEVNULL).returncode
            for name in WORKLOADS]
        return max(codes)

    root = Path.cwd()
    src = root / "src"
    if not (src / "statarb" / "__init__.py").is_file() or \
            not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a statarb checkout "
              "(src/statarb and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from statarb import cli
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        print(f"perfbench: imported {cli.__file__}, not the checkout's",
              file=sys.stderr)
        return 2

    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = run_workload(cli, args.workload, args.seed, args.seconds,
                          bool(args.trace), root)
    # a layer the workload never calls has no spans: its counts are 0
    measured = {m: result["metrics"].get(m, 0.0) for m in units}
    result["metrics"] = measured
    report(args.workload, result, units)
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in measured.items()}}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
