"""Golden CLI outputs: every case's stdout and --out file, byte for byte.

The files under tests/golden/ were written by the package itself and are
the reproducibility contract made concrete: an engine change that moves a
single printed digit fails here.  A twin case (TWINS) has no files of its
own: it must reproduce another case's files byte for byte.  After a
deliberate output change, regenerate them from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md why the outputs moved.
"""
from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from statarb.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# backtest inputs: seeded GBM closes, one CSV per drift sign (each file's
# header says how it was generated)
DATA = Path(__file__).resolve().parent / "data"

SMALL = ["--runs", "60", "--steps", "250"]

# case name -> CLI argv without --out; simulate and backtest cases also
# write --out
CASES: dict[str, list[str]] = {
    f"simulate_{kind}_{mode}_s{seed}": [
        "simulate", *SMALL, "--seed", str(seed), "--strategy", kind,
        "--mode", mode]
    for kind in ("embedded", "trend")
    for mode in ("snap", "observed")
    for seed in (3, 11)
}
CASES.update({
    "simulate_trend_observed_alpha05": [
        "simulate", *SMALL, "--seed", "3", "--strategy", "trend",
        "--mode", "observed", "--alpha", "0.5"],
    "simulate_trend_snap_negative_drift": [
        "simulate", *SMALL, "--seed", "3", "--strategy", "trend",
        "--mu", "-0.1241"],
    # CLI defaults apart from the run count: several chunks of runs
    "simulate_defaults_s5": ["simulate", "--runs", "200", "--seed", "5"],
    "sweep_eta_trend_observed": [
        "sweep", "--strategy", "trend", "--mode", "observed", "--mu", "0.1",
        "--axis", "eta", "--values", "0.5,1.0,2.0", "--runs", "30",
        "--steps", "300", "--seed", "2"],
})
CASES.update({
    f"backtest_{series}_alpha{tag}": [
        "backtest", "--data", str(DATA / f"gbm_{series}.csv"),
        "--boundary", "0.02", "--alpha", alpha]
    for series in ("up", "down")
    for tag, alpha in (("0", "0.0"), ("05", "0.5"))
})
CASES.update({
    f"check_model_{fixture.replace('-', '_')}": ["check-model", fixture]
    for fixture in ("sec34", "bondarenko-counterexample")
})

# exit codes other than 0: sec34 admits a statistical arbitrage
EXIT_CODES = {"check_model_sec34": 2}

# twin case name -> (CLI argv, the case whose golden files it must
# reproduce byte for byte): --strategy gfin, the CLI's name for the
# dichotomy strategy, writes the trend outputs, and trend at alpha = 1 runs
# the embedded cycle
TWINS: dict[str, tuple[list[str], str]] = {
    name.replace("trend", "gfin"): (
        ["gfin" if arg == "trend" else arg for arg in CASES[name]], name)
    for name in (*(f"simulate_trend_{mode}_s{seed}"
                   for mode in ("snap", "observed") for seed in (3, 11)),
                 "simulate_trend_observed_alpha05")
}
TWINS.update({
    f"simulate_trend_{mode}_alpha1": (
        ["simulate", *SMALL, "--seed", "3", "--strategy", "trend",
         "--mode", mode, "--alpha", "1.0"], f"simulate_embedded_{mode}_s3")
    for mode in ("snap", "observed")
})


def run_case(argv: list[str], out: Path | None) -> tuple[int, bytes]:
    """Run the CLI in process; returns its exit code and stdout bytes."""
    if out is not None:
        argv = [*argv, "--out", str(out)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode("utf-8")


def _out_path(directory: Path, name: str, argv: list[str]) -> Path | None:
    if argv[0] in ("simulate", "backtest"):
        return directory / f"{name}.out.csv"
    return None


@pytest.mark.parametrize("name", sorted([*CASES, *TWINS]))
def test_golden_output(name, tmp_path):
    argv, golden = TWINS.get(name) or (CASES[name], name)
    out = _out_path(tmp_path, name, argv)
    code, stdout = run_case(argv, out)
    assert code == EXIT_CODES.get(name, 0)
    assert stdout == (GOLDEN / f"{golden}.stdout").read_bytes()
    if out is not None:
        assert out.read_bytes() == (
            GOLDEN / f"{golden}.out.csv").read_bytes()


def test_golden_directory_holds_exactly_the_cases():
    expected = set()
    for name, argv in CASES.items():
        expected.add(f"{name}.stdout")
        if _out_path(GOLDEN, name, argv) is not None:
            expected.add(f"{name}.out.csv")
    assert len(expected) == 33
    assert {p.name for p in GOLDEN.iterdir()} == expected


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    for name, argv in sorted(CASES.items()):
        code, stdout = run_case(argv, _out_path(GOLDEN, name, argv))
        if code != EXIT_CODES.get(name, 0):
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.stdout").write_bytes(stdout)


if __name__ == "__main__":
    regenerate()
    print(f"wrote {len(list(GOLDEN.iterdir()))} files to {GOLDEN}",
          file=sys.stderr)
