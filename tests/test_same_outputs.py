"""The engine's output fingerprints, line for line.

tools/same_outputs.py prints one sha256 per case of run_experiment runs,
run_path results, ledgers and cycle traces, run_backtest results and
ledgers, and lattice certificates, strategies and gains;
tests/same_outputs.txt holds the lines it printed when those
outputs last changed on purpose.  A change that moves a single bit of them
fails here, and the failure names the cases that moved, were added or are
missing.  After a deliberate output change, regenerate the file from
the repository root with

    python3 tools/same_outputs.py > tests/same_outputs.txt

and say in CHANGES.md why the outputs moved.
"""
from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def changed_cases(printed: list[str], expected: list[str]) -> str:
    """The names of the cases whose digest moved, was added or is missing,
    from `name digest` lines."""
    now = dict(line.rpartition(" ")[::2] for line in printed)
    then = dict(line.rpartition(" ")[::2] for line in expected)
    moved = sorted(name for name in now.keys() & then.keys()
                   if now[name] != then[name])
    return (f"moved: {moved}; added: {sorted(now.keys() - then.keys())}; "
            f"missing: {sorted(then.keys() - now.keys())}")


def printed_digests(env: dict[str, str] | None = None) -> list[str]:
    """The lines tools/same_outputs.py prints, run in ``env``."""
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_outputs.py")],
        capture_output=True, text=True, check=True,
        env=env).stdout.splitlines()


def test_same_outputs_prints_the_committed_digests():
    printed = printed_digests()
    expected = (ROOT / "tests" / "same_outputs.txt").read_text().splitlines()
    assert printed == expected, changed_cases(printed, expected)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="X86_V2 is an x86-64 dispatch target")
def test_snap_digests_do_not_depend_on_numpy_simd_dispatch():
    # numpy's exp and log kernels may round the last bit differently on
    # each SIMD target.  A snap run only compares path prices with barrier
    # levels and trades at the levels, so its digests hold on the x86-64
    # baseline too.  An observed run trades at path prices and the backtest
    # estimates from log returns: their digests may move, and this test
    # asserts nothing about them.
    printed = printed_digests({**os.environ,
                               "NPY_ENABLE_CPU_FEATURES": "X86_V2"})
    expected = (ROOT / "tests" / "same_outputs.txt").read_text().splitlines()
    snap = [line for line in printed if "/snap/" in line]
    expected_snap = [line for line in expected if "/snap/" in line]
    assert len(expected_snap) == 49
    assert snap == expected_snap, changed_cases(snap, expected_snap)


def test_changed_cases_names_moved_added_and_missing_cases():
    expected = ["a 1", "b 2", "c 3"]
    printed = ["a 1", "b 9", "d 4"]
    assert changed_cases(printed, expected) == \
        "moved: ['b']; added: ['d']; missing: ['c']"
