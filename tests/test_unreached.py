"""The package's definitions that no command enters, name for name.

tools/unreached.py runs a fixed matrix of CLI calls under sys.setprofile
and prints each function or method of src/statarb that none of them
entered; tests/unreached.txt holds the names it printed when that set last
changed on purpose.  A definition that stops being reached, or a new one
that no command runs, fails here, so each decision to reach or retire code
shows up in a reviewed diff.  After such a change, regenerate the file
from the repository root with

    python3 tools/unreached.py > tests/unreached.txt

and say in CHANGES.md why each added name stays.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_unreached_prints_the_committed_names():
    # a fresh process: an lru_cache that earlier tests filled would keep
    # _q_grid and leg_table from being entered
    printed = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "unreached.py")],
        capture_output=True, text=True, check=True).stdout.splitlines()
    expected = (ROOT / "tests" / "unreached.txt").read_text().splitlines()
    assert printed == expected, (
        f"no longer listed: {sorted(set(expected) - set(printed))}; "
        f"newly listed: {sorted(set(printed) - set(expected))}")
