"""Output checks for the benchmark's jobs, independent of the package.

``summary_oracle`` recomputes a `simulate` summary row from its per-run
table with the definitions in the README: the lower-median order statistic,
var95 as minus the order statistic at 1-based index ceil(0.05 n), the loss
fraction and loss mean, the average and maximum cycle count.  Means use
``np.mean`` so that their rounding matches the printed ``repr`` digits; the
order statistics and counts use plain Python.

Each ``check_*`` returns a list of problems; an empty list means the job's
outputs are correct.
"""
from __future__ import annotations

import datetime
import hashlib
import json
import math

import numpy as np

SWEEP_HEADER = "param,gain_pa,median,var95,gain_pt,losses,loss_mean,avg_n,max_n"
RUNS_HEADER = "run,pnl,n,trades,ended_by"
CYCLES_HEADER = ("cycle_start,cycle_end,mu_hat,sigma_hat,orientation,pnl,"
                 "traded_qty")
ENDINGS = ("PositivePnl", "Horizon")
# CLI defaults of `simulate`, documented in the README
DEFAULT_MU, DEFAULT_SIGMA, DEFAULT_C_MULT = 0.1241, 0.0837, 0.01


def data_lines(text: str) -> list[str]:
    """The lines that are not `#` metadata."""
    return [line for line in text.splitlines() if not line.startswith("#")]


def summary_oracle(pnl: list[float], n: list[int]) -> dict[str, float]:
    """The summary statistics of one experiment, by their definitions."""
    size = len(pnl)
    ordered = sorted(pnl)
    losses = [p for p in pnl if p < 0.0]
    mean_gain = float(np.mean(pnl))
    avg_n = float(np.mean([float(k) for k in n]))
    return {
        "gain_pa": mean_gain,
        "median": ordered[(size - 1) // 2],
        "var95": -ordered[(size + 19) // 20 - 1],
        "gain_pt": mean_gain / avg_n if avg_n > 0.0 else 0.0,
        "losses": len(losses) / size,
        "loss_mean": float(np.mean(losses)) if losses else 0.0,
        "avg_n": avg_n,
        "max_n": max(n),
    }


def _csv_rows(lines: list[str], header: str, what: str,
              problems: list[str]) -> list[list[str]]:
    if not lines or lines[0] != header:
        problems.append(f"{what}: expected header {header!r}")
        return []
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != width for r in rows):
        problems.append(f"{what}: rows without {width} fields")
        return []
    return rows


def check_simulate(stdout: str, out_text: str, runs: int) -> list[str]:
    """The printed row must equal the oracle applied to the --out table."""
    problems: list[str] = []
    summary = _csv_rows(data_lines(stdout), SWEEP_HEADER, "stdout", problems)
    table = _csv_rows(data_lines(out_text), RUNS_HEADER, "--out", problems)
    if problems:
        return problems
    if len(summary) != 1 or len(table) != runs:
        return [f"expected 1 summary row and {runs} runs, got "
                f"{len(summary)} and {len(table)}"]
    if [r[0] for r in table] != [str(i) for i in range(runs)]:
        problems.append("run column is not 0..runs-1")
    pnl = [float(r[1]) for r in table]
    n = [int(r[2]) for r in table]
    for r, p in zip(table, pnl):
        if r[4] not in ENDINGS or (r[4] == "PositivePnl" and not p > 0.0):
            problems.append(f"run {r[0]}: ended_by {r[4]} with pnl {p!r}")
            break
    expect = summary_oracle(pnl, n)
    expect["param"] = DEFAULT_C_MULT * abs(DEFAULT_MU) / DEFAULT_SIGMA
    for name, cell in zip(SWEEP_HEADER.split(","), summary[0]):
        want = repr(expect[name]) if name == "max_n" \
            else repr(float(expect[name]))
        if cell != want:
            problems.append(f"{name}: printed {cell}, oracle {want}")
    return problems


def check_sweep(stdout: str, values: list[float]) -> list[str]:
    """Row per axis value, finite cells and the identities between them."""
    problems: list[str] = []
    rows = _csv_rows(data_lines(stdout), SWEEP_HEADER, "stdout", problems)
    if problems:
        return problems
    if [float(r[0]) for r in rows] != values:
        return [f"param column {[r[0] for r in rows]} != {values}"]
    for r in rows:
        gain, median, var95, gain_pt, losses, loss_mean, avg_n = \
            (float(v) for v in r[1:8])
        max_n = int(r[8])
        cells = (gain, median, var95, gain_pt, losses, loss_mean, avg_n)
        if not all(math.isfinite(v) for v in cells):
            problems.append(f"param {r[0]}: non-finite cell")
        if not (0.0 <= losses <= 1.0 and max_n >= avg_n >= 0.0):
            problems.append(f"param {r[0]}: losses or cycle counts invalid")
        if gain_pt != (gain / avg_n if avg_n > 0.0 else 0.0):
            problems.append(f"param {r[0]}: gain_pt != gain_pa / avg_n")
        if -var95 > median or loss_mean > 0.0 or \
                (losses > 0.0) != (loss_mean < 0.0):
            problems.append(f"param {r[0]}: quantiles or loss mean invalid")
    return problems


def _backtest_summary(stdout: str) -> dict:
    payload = json.loads(stdout)
    payload.pop("_meta", None)
    return payload


def check_backtest(stdout: str, out_text: str, window: int,
                   boundary: float) -> list[str]:
    """n_cycles matches the cycle log, gpta its definition, all finite."""
    problems: list[str] = []
    try:
        s = _backtest_summary(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    rows = _csv_rows(data_lines(out_text), CYCLES_HEADER, "--out", problems)
    if problems:
        return problems
    numbers = [s["gpta"], s["total_pnl"], s["traded_qty"],
               s["traded_notional"]]
    numbers += [float(v) for r in rows for v in (r[2], r[3], r[5], r[6])]
    if not all(math.isfinite(v) for v in numbers):
        problems.append("non-finite value")
    if s["n_cycles"] != len(rows) or s["n_cycles"] < 1:
        problems.append(f"n_cycles {s['n_cycles']} but {len(rows)} rows")
    notional = s["traded_notional"]
    if s["gpta"] != (s["total_pnl"] / notional if notional > 0.0 else 0.0):
        problems.append("gpta != total_pnl / traded_notional")
    if s["window_days"] != window or s["boundary_fraction"] != boundary:
        problems.append("window or boundary not echoed")
    for r in rows:
        start, end = (datetime.date.fromisoformat(d) for d in r[:2])
        if not start < end or r[4] not in ("positive", "negative"):
            problems.append(f"bad cycle row {','.join(r)}")
            break
    return problems


def digest(stdout: str, out_text: str | None) -> str:
    """SHA-256 of the outputs without their metadata: `#` lines and the
    backtest summary's ``_meta`` object are left out."""
    text = stdout
    if stdout.lstrip().startswith("{"):
        text = json.dumps(_backtest_summary(stdout), sort_keys=True)
    parts = data_lines(text) + ["\0"] + data_lines(out_text or "")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
