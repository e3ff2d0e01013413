"""The engine's output fingerprints, line for line.

tools/same_outputs.py prints one sha256 per case of run_experiment runs,
run_path results, ledgers and cycle traces, and run_backtest results and
ledgers; tests/same_outputs.txt holds the lines it printed when those
outputs last changed on purpose.  A change that moves a single bit of them
fails here.  After a deliberate output change, regenerate the file from
the repository root with

    python3 tools/same_outputs.py > tests/same_outputs.txt

and say in CHANGES.md why the outputs moved.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_same_outputs_prints_the_committed_digests():
    printed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_outputs.py")],
        capture_output=True, text=True, check=True).stdout
    expected = (ROOT / "tests" / "same_outputs.txt").read_text()
    assert printed.splitlines() == expected.splitlines()
