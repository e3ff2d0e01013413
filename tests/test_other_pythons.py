"""The numpy-free layer under the other installed interpreters (>= 3.10):
``check-model sec34`` prints its golden bytes, and a negative flag value in
exponent form parses.

Interpreters are found from STATARB_TEST_PYTHONS, a list of interpreter
paths separated by os.pathsep, and as ``$(pyenv root)/versions/*/bin/python``
when pyenv is on PATH.  The one running the tests is left out, and the
tests skip when no other is found.  Each case id names the version.
"""
from __future__ import annotations

import glob
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
VERSION_CODE = "import sys; print('%d.%d.%d' % tuple(sys.version_info[:3]))"


def _candidates() -> list[str]:
    paths = [p for p in os.environ.get("STATARB_TEST_PYTHONS", "")
             .split(os.pathsep) if p]
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        root = subprocess.run([pyenv, "root"], capture_output=True,
                              text=True, timeout=60).stdout.strip()
        if root:
            paths += sorted(glob.glob(os.path.join(root, "versions", "*",
                                                   "bin", "python")))
    return paths


def _interpreters() -> list[tuple[str, str]]:
    """(version, path) of each other interpreter >= 3.10 that runs."""
    seen = {os.path.realpath(sys.executable)}
    found = []
    for path in _candidates():
        real = os.path.realpath(path)
        if real in seen:
            continue
        seen.add(real)
        try:
            proc = subprocess.run([path, "-S", "-c", VERSION_CODE],
                                  capture_output=True, text=True, timeout=60)
        except OSError:
            continue
        if proc.returncode != 0:
            continue
        version = proc.stdout.strip()
        if tuple(int(part) for part in version.split(".")) >= (3, 10):
            found.append((version, path))
    return found


PYTHONS = [pytest.param(path, id=version)
           for version, path in _interpreters()] or [
    pytest.param(None, marks=pytest.mark.skip(
        reason="no other Python >= 3.10 found"))]


@pytest.mark.parametrize("python", PYTHONS)
def test_check_model_sec34_prints_its_golden(python):
    proc = subprocess.run([python, "-m", "statarb", "check-model", "sec34"],
                          capture_output=True, env=ENV, cwd=ROOT, timeout=120)
    assert proc.returncode == 2, proc.stderr.decode()
    assert proc.stdout == \
        (ROOT / "tests" / "golden" / "check_model_sec34.stdout").read_bytes()


# numpy is blocked, so the parser must build without it
PARSE_CODE = """\
import sys
sys.modules["numpy"] = None
from statarb.cli import build_parser
print(repr(build_parser().parse_args(["simulate", "--mu", "-1e-3"]).mu))
"""


@pytest.mark.parametrize("python", PYTHONS)
def test_negative_value_in_exponent_form_parses(python):
    proc = subprocess.run([python, "-c", PARSE_CODE], capture_output=True,
                          text=True, env=ENV, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "-0.001\n"
