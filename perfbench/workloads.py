"""The benchmark's workloads: the CLI jobs each one runs and the inputs they get.

Every input is made here from the workload seed with the benchmark's own
numpy code, never with the package under test, so a change under ``src/``
cannot change what it is measured on.  A job is one ``statarb`` invocation,
given as its argv; ``work`` is what one job accomplishes, in the unit of the
workload's throughput (runs for the Monte Carlo workloads, series-days for
the backtest).
"""
from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# The seed whose outputs are pinned by digest in reference.json.  Every run
# executes the reference job once, untimed, as its warm-up.
REFERENCE_SEED = 0

SIM_RUNS = 500           # runs per `simulate` job (0.2 to 0.4 s)
SWEEP_RUNS = 100         # runs per sweep cell; five cells per job
SWEEP_VALUES = "0.5,0.75,1.0,1.25,2.0"
SWEEP_MU = 0.1
BACKTEST_DAYS = 100_000  # rows per generated CSV
BACKTEST_CSVS = 6        # generated CSVs per run, one job each
BACKTEST_MU = 0.12
BACKTEST_SIGMA = 0.08
BACKTEST_BOUNDARY = 0.02
BACKTEST_WINDOW = 756    # the CLI default, checked in the outputs
_FIRST_DAY = datetime.date(1800, 1, 1).toordinal()


def job_seed(seed: int, k: int) -> int:
    """The CLI ``--seed`` of job ``k`` of a run with workload seed ``seed``."""
    state = np.random.SeedSequence([seed, k]).generate_state(1, np.uint32)
    return int(state[0])


def write_gbm_csv(path: Path, seed: int, k: int) -> None:
    """Daily GBM closes on consecutive calendar dates as a date,close CSV."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
    dt = 1.0 / 252.0
    steps = (BACKTEST_MU - 0.5 * BACKTEST_SIGMA ** 2) * dt \
        + BACKTEST_SIGMA * np.sqrt(dt) * rng.standard_normal(BACKTEST_DAYS - 1)
    closes = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
    lines = ["date,close"]
    for i, close in enumerate(closes.tolist()):
        day = datetime.date.fromordinal(_FIRST_DAY + i).isoformat()
        lines.append(f"{day},{close!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class Job:
    """One CLI invocation: its argv, its --out file (or None) and its work."""

    index: int
    argv: list[str]
    out: str | None
    work: float


class Workload:
    """Base: ``job(k)`` builds job k, writing any input file it reads;
    ``check`` lists what is wrong with a job's outputs."""

    name = ""
    unit = ""  # what one unit of ``Job.work`` is
    jobs_per_round = 1  # jobs 0..jobs_per_round-1 make one round

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed

    def job(self, k: int) -> Job:
        raise NotImplementedError

    def check(self, stdout: str, out_text: str | None) -> list[str]:
        raise NotImplementedError


class SimulateEmbeddedSnap(Workload):
    """`simulate` at the CLI defaults (embedded, snap): the paper's headline
    table.  Runs are short (2.7 cycles on average); the time goes to barrier
    scanning and path generation, and no lattice solve runs."""

    name = "simulate_embedded_snap"
    unit = "runs"
    jobs_per_round = 8

    def job(self, k: int) -> Job:
        out = str(self.workdir / f"job{k}.runs.csv")
        argv = ["simulate", "--runs", str(SIM_RUNS),
                "--seed", str(job_seed(self.seed, k)), "--out", out]
        return Job(k, argv, out, float(SIM_RUNS))

    def check(self, stdout: str, out_text: str | None) -> list[str]:
        return checks.check_simulate(stdout, out_text or "", SIM_RUNS)


class SweepTrendObserved(Workload):
    """An eta sweep of the trend strategy at observed prices: one lattice
    solve per cycle, and barrier widths varying four-fold across cells, so
    that cycles per run range from about 1 to 13 with a long tail."""

    name = "sweep_trend_observed"
    unit = "runs"
    jobs_per_round = 8

    def job(self, k: int) -> Job:
        argv = ["sweep", "--strategy", "trend", "--mode", "observed",
                "--mu", repr(SWEEP_MU), "--axis", "eta",
                "--values", SWEEP_VALUES, "--runs", str(SWEEP_RUNS),
                "--seed", str(job_seed(self.seed, k))]
        n_cells = len(SWEEP_VALUES.split(","))
        return Job(k, argv, None, float(SWEEP_RUNS * n_cells))

    def check(self, stdout: str, out_text: str | None) -> list[str]:
        values = [float(v) for v in SWEEP_VALUES.split(",")]
        return checks.check_sweep(stdout, values)


class BacktestWalkforward(Workload):
    """Walk-forward backtests of generated 1e5-day CSVs: the shared cycle
    code driven without stop-at-first-gain, with CSV parsing, a rolling MLE
    and a lattice solve per cycle, and no path generation or seeding."""

    name = "backtest_walkforward"
    unit = "series-days"
    jobs_per_round = BACKTEST_CSVS

    def job(self, k: int) -> Job:
        data = self.workdir / f"series{k}.csv"
        if not data.exists():
            write_gbm_csv(data, self.seed, k)
        out = str(self.workdir / f"job{k}.cycles.csv")
        argv = ["backtest", "--data", str(data),
                "--boundary", repr(BACKTEST_BOUNDARY), "--out", out]
        return Job(k, argv, out, float(BACKTEST_DAYS))

    def check(self, stdout: str, out_text: str | None) -> list[str]:
        return checks.check_backtest(stdout, out_text or "", BACKTEST_WINDOW,
                                     BACKTEST_BOUNDARY)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (SimulateEmbeddedSnap, SweepTrendObserved,
                        BacktestWalkforward)
}
