"""A generative guard over the command line: whatever the flags, each
command fails by name or succeeds with finite numbers.

The float flags draw from values at the edges of float range and of each
flag's domain, and the check-model files also from JSON values of the
wrong shape.  Every invocation must exit with a documented code, print one
`statarb:` line when it fails (argparse's usage block before a usage
error's one line included) that quotes no Python type error, raise no
Python warning, and on success write only finite numbers to stdout and
`--out`.
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from statarb.cli import main
from statarb.lattice import KINDS, MODES, SWEEP_AXES

DATA = Path(__file__).resolve().parent / "data"

EDGES = ("0", "-0.0", "1e-300", "1e-170", "1e-16", "0.3", "729", "1e200",
         "1e308", "inf", "nan", "-1")
GUARD = settings(max_examples=60, deadline=None, derandomize=True,
                 database=None)
NON_FINITE = re.compile(r"(?i)\b(?:nan|inf|infinity)\b")
# the lines argparse prints before a usage error's one line
USAGE = re.compile(r"usage: |\s")
# Python's own messages for a value of the wrong type: a failure names the
# input at fault instead
PYTHON_ERROR = re.compile(r"indices must be|not iterable|not subscriptable|"
                          r"argument must be|NoneType|has no attribute|"
                          r"too large to convert")

edge = st.sampled_from(EDGES)
# values inside most flags' domains, so that a share of the runs succeeds
TYPICAL = ("0.02", "0.2", "2")

FLOAT_FLAGS = ("--mu", "--sigma", "--s0", "--horizon", "--alpha", "--c",
               "--c-mult")


def guarded(argv: list[str], out: Path | None = None) -> int:
    """Run the CLI on argv in-process and check the guard's contract;
    return the exit code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main(argv)
    err = stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code == 1:
        lines = err.splitlines()
        named = [ln for ln in lines if ln.startswith("statarb")]
        assert len(named) == 1 and lines[-1] == named[0], err
        assert named[0].startswith("statarb:") or all(
            USAGE.match(ln) for ln in lines[:-1]), err
        assert not PYTHON_ERROR.search(err), err
    if code == 0:
        texts = [stdout.getvalue()]
        if out is not None:
            texts.append(out.read_text(encoding="utf-8"))
        for text in texts:
            assert not NON_FINITE.search(text), text
            if text.startswith("{"):
                json.loads(text, parse_constant=_reject)
    return code


def _reject(name: str) -> None:
    raise AssertionError(f"non-finite JSON number {name}")


def simulation_flags(draw) -> list[str]:
    """Small runs of a drawn kind and mode, with up to three of the float
    flags set to edge values."""
    argv = ["--runs", str(draw(st.integers(1, 3))),
            "--steps", str(draw(st.integers(1, 50))),
            "--seed", str(draw(st.integers(0, 3))),
            "--strategy", draw(st.sampled_from((*KINDS, "gfin"))),
            "--mode", draw(st.sampled_from(MODES))]
    flags = draw(st.lists(st.sampled_from(FLOAT_FLAGS), max_size=3,
                          unique=True))
    if "--c" in flags and "--c-mult" in flags:
        flags.remove("--c-mult")  # a usage error that test_cli pins
    for flag in flags:
        argv += [flag, draw(edge)]
    return argv


@st.composite
def simulate_argv(draw) -> list[str]:
    return ["simulate", *simulation_flags(draw)]


@st.composite
def sweep_argv(draw) -> list[str]:
    values = draw(st.lists(st.one_of(edge, st.sampled_from(TYPICAL)),
                           min_size=1, max_size=2))
    return ["sweep", *simulation_flags(draw),
            "--axis", draw(st.sampled_from(SWEEP_AXES)),
            "--values", ",".join(values)]


@st.composite
def backtest_argv(draw) -> list[str]:
    argv = ["backtest", "--data",
            str(DATA / draw(st.sampled_from(("gbm_up.csv", "gbm_down.csv")))),
            "--boundary", draw(st.one_of(edge, st.sampled_from(TYPICAL)))]
    if draw(st.booleans()):
        argv += ["--window", draw(st.sampled_from(("60", "756", "2999")))]
    if draw(st.booleans()):
        argv += ["--alpha", draw(edge)]
    return argv


SEC34 = {"s0": 100.0, "s_up": 105.0, "s_down": 95.0, "s_uu": 110.0,
         "s_ud": 100.0, "s_dd": 90.0}
# SaExists (q = 1.2), and NsaCertified (q = tilde_q = 1)
SEC34_WEIGHTS = ((0.225, 0.3, 0.25, 0.225), (0.225, 0.275, 0.275, 0.225))


BONDARENKO = {"s0": 10.0, "s1_up": 12.0, "s1_down": 8.0, "s2_circ": 14.0,
              "s2_uu": 13.0, "s2_ud": 10.0, "s2_dd": 6.0}
# NsaCertified (nu1 = nu2 = 3), and NotCertified (nu1 = 1.5 != nu2 = 6)
BONDARENKO_WEIGHTS = ((0.15, 0.2, 0.3, 0.05, 0.1, 0.2),
                      (0.15, 0.2, 0.3, 0.1, 0.05, 0.2))


# JSON values of a shape that no part of a model takes
MALFORMED = st.sampled_from(([1], [1, 2, 3, 4, 5, 6], 0.25, "x", None, True,
                             {"s0": 1}, 10**400))


@st.composite
def model_payload(draw, kind: str, base: dict, weight_sets: tuple):
    """A model of ``kind`` at the prices ``base`` and one of
    ``weight_sets``, with its prices scaled by an edge value, or one price
    or one weight replaced by one; or with the model, its prices, its
    weights, one price or one weight replaced by a malformed value."""
    prices = dict(base)
    weights = list(draw(st.sampled_from(weight_sets)))
    change = draw(st.sampled_from(("scale", "price", "weight", "shape")))
    if change == "shape":
        value = draw(MALFORMED)
        change = draw(st.sampled_from(("model", "prices", "weights", "price",
                                       "weight")))
    else:
        value = float(draw(edge))
    if change == "scale":
        prices = {name: price * value for name, price in prices.items()}
    elif change == "price":
        prices[draw(st.sampled_from(tuple(base)))] = value
    elif change == "weight":
        weights[draw(st.integers(0, len(weights) - 1))] = value
    payload = {"kind": kind, "prices": prices, "weights": weights}
    if change in ("prices", "weights"):
        payload[change] = value
    return value if change == "model" else payload


@GUARD
@given(simulate_argv())
@example(["simulate", "--strategy", "trend", "--alpha", "1e308", "--runs",
          "3", "--steps", "50"])
def test_simulate_fails_by_name_or_writes_finite_numbers(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs.csv"
        guarded([*argv, "--out", str(out)], out)


@GUARD
@given(sweep_argv())
@example(["sweep", "--strategy", "trend", "--alpha", "1e307", "--runs", "3",
          "--steps", "50", "--axis", "c", "--values", "0.02"])
def test_sweep_fails_by_name_or_writes_finite_numbers(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "table.csv"
        guarded([*argv, "--out", str(out)], out)


@GUARD
@given(backtest_argv())
@example(["backtest", "--data", str(DATA / "gbm_up.csv"), "--boundary",
          "0.2", "--alpha", "1e308"])
def test_backtest_fails_by_name_or_writes_finite_numbers(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cycles.csv"
        guarded([*argv, "--out", str(out)], out)


def check_model_guarded(payload) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(payload), encoding="utf-8")
        guarded(["check-model", str(model)])


@GUARD
@given(model_payload("binomial", SEC34, SEC34_WEIGHTS))
@example({"kind": "binomial", "prices": {**SEC34, "s_dd": -6.0},
          "weights": [0.25] * 4})
def test_check_model_fails_by_name_or_prints_finite_numbers(payload):
    check_model_guarded(payload)


@GUARD
@given(model_payload("trinomial", BONDARENKO, BONDARENKO_WEIGHTS))
@example({"kind": "trinomial", "prices": {**BONDARENKO, "s2_dd": -6.0},
          "weights": list(BONDARENKO_WEIGHTS[0])})
def test_check_model_trinomial_fails_by_name_or_prints_finite_numbers(
        payload):
    check_model_guarded(payload)
