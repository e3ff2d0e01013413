"""Command-line front end tying the package into reproducible experiments.

Exit codes: 0 success / NsaCertified, 1 usage or parse failure, 2 SaExists,
3 NotCertified, 4 every run skipped.  Only ``errors`` and ``lattice`` load
with this module, so `check-model` on a binomial, `--help`, `--version` and
usage errors run without numpy.  A trinomial model loads ``trinomial``, and
`simulate`, `sweep` and `backtest` load ``commands``, which imports the
modules they run (and numpy with them).  Identical invocations produce
byte-identical outputs.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable

from . import __version__
from .errors import AllRunsSkipped, NoSolution, StatarbError
from .lattice import (
    KINDS,
    MODES,
    SWEEP_AXES,
    TwoPeriodBinomial,
    nsa_binomial,
    solve_binomial_sa,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SA_EXISTS = 2
EXIT_NOT_CERTIFIED = 3
EXIT_ALL_SKIPPED = 4


def _bondarenko_counterexample():
    from .trinomial import TrinomialTopModel

    return TrinomialTopModel(10.0, 12.0, 8.0, 14.0, 13.0, 10.0, 6.0,
                             (0.15, 0.2, 0.3, 0.05, 0.1, 0.2))


# builtin fixtures for `check-model`
FIXTURES: dict[str, Callable] = {
    "sec34": lambda: TwoPeriodBinomial(
        100.0, 105.0, 95.0, 110.0, 100.0, 90.0,
        (0.225, 0.3, 0.25, 0.225)),
    "bondarenko-counterexample": _bondarenko_counterexample,
}


class _NegativeNumber:
    """argparse's test of whether an argument that starts with '-' is a
    negative number, and so a flag's value rather than an option: any text
    that float() reads, where argparse's own pattern takes only -1 and -1.5
    forms and so reads -1e-3 as an unknown option."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI reserves 2 for
    SaExists, so usage failures exit 1 instead.  Subparsers are built by
    this class too, so each takes negative numbers in every float form."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber

    def error(self, message: str):  # noqa: A003 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer >= low, rejected at parse time so that
    the message names the flag rather than a library field."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's name for a non-integer value
    return parse


def _boundary(text: str) -> float:
    """An argparse type: a barrier step in (0, 1/2), NaN rejected."""
    value = float(text)
    if not 0.0 < value < 0.5:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1/2), got {text}")
    return value


_boundary.__name__ = "float"  # argparse's name for a non-float value


def _add_simulation_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--mu", type=float, default=0.1241,
                    help="drift per year (default %(default)s)")
    sp.add_argument("--sigma", type=float, default=0.0837,
                    help="volatility per sqrt-year (default %(default)s)")
    sp.add_argument("--s0", type=float, default=2186.0,
                    help="start price (default %(default)s)")
    sp.add_argument("--horizon", type=float, default=1.0,
                    help="years simulated per run (default %(default)s)")
    sp.add_argument("--steps", type=_int_at_least(1), default=1000,
                    help="grid steps per run (default %(default)s)")
    sp.add_argument("--runs", type=_int_at_least(1), default=10000,
                    help="independent runs (default %(default)s)")
    sp.add_argument("--seed", type=_int_at_least(0), default=None,
                    help="master seed (default: $STATARB_SEED, then 0)")
    sp.add_argument("--strategy", choices=(*KINDS, "gfin"),
                    default="embedded",
                    help="strategy kind; gfin (the dichotomy strategy) is an "
                         "alias of trend, which it equals on the barrier "
                         "grid (default %(default)s)")
    # rejected together at parse time, so the message names both flags
    step = sp.add_mutually_exclusive_group()
    step.add_argument("--c-mult", type=float, default=None, dest="c_mult",
                      help="barrier step as a multiple of mu/sigma "
                           "(default 0.01 when --c is absent)")
    step.add_argument("--c", type=float, default=None,
                      help="fixed relative barrier step (excludes --c-mult)")
    sp.add_argument("--alpha", type=float, default=0.0,
                    help="trend-reversal target gain (default %(default)s)")
    sp.add_argument("--mode", choices=MODES, default="snap",
                    help="execution mode (default %(default)s)")
    sp.add_argument("--out", type=Path, default=None,
                    help="also write the per-run CSV table here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="statarb",
                     description="Statistical arbitrage on lattice models "
                                 "and simulated or historical price paths.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check-model",
        help="certify a lattice model (builtin fixture or JSON file)")
    check.add_argument("model",
                       help=f"fixture name {tuple(FIXTURES)} or JSON path")

    simulate = sub.add_parser("simulate",
                              help="run one Monte Carlo experiment")
    _add_simulation_flags(simulate)

    swp = sub.add_parser("sweep",
                         help="run one experiment per axis value")
    _add_simulation_flags(swp)
    swp.add_argument("--axis", choices=SWEEP_AXES, required=True)
    swp.add_argument("--values", required=True,
                     help="comma-separated axis values")

    back = sub.add_parser("backtest",
                          help="walk-forward backtest on a date,close CSV")
    back.add_argument("--data", type=Path, required=True)
    back.add_argument("--window", type=_int_at_least(60), default=756,
                      help="estimation window in observations "
                           "(default %(default)s)")
    back.add_argument("--boundary", type=_boundary, required=True,
                      help="barrier step as a fraction of the cycle anchor")
    back.add_argument("--alpha", type=float, default=0.0)
    back.add_argument("--out", type=Path, default=None,
                      help="also write the per-cycle CSV log here")
    return parser


# ------------------------------------------------------------- check-model


# the JSON name of each type that json.loads(parse_int=float) returns
_JSON_TYPES = {dict: "an object", list: "an array", str: "a string",
               bool: "a boolean", float: "a number", type(None): "null"}


def _part(value, kind: type, name: str, shape: str):
    """value if its type is kind; else ValueError naming the part and the
    shape it needs."""
    if type(value) is not kind:
        raise ValueError(f"{name} must be {shape}, got "
                         f"{_JSON_TYPES[type(value)]}")
    return value


def _key(obj: dict, key: str, name: str):
    """obj[key]; else ValueError naming the part and the missing key."""
    if key not in obj:
        raise ValueError(f"{name} has no key {key}")
    return obj[key]


def _load_model(source: str):
    if source in FIXTURES:
        return FIXTURES[source]()
    import json

    # an integer beyond float range reads as inf, as 1e400 does
    payload = _part(json.loads(Path(source).read_text(encoding="utf-8"),
                               parse_int=float), dict, "the model",
                    "an object with keys kind, prices and weights")
    kind = _key(payload, "kind", "the model")
    # == so that an unhashable kind is unknown; price keys: fields before p
    if kind == "binomial":
        model = TwoPeriodBinomial
    elif kind == "trinomial":
        from .trinomial import TrinomialTopModel as model
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    keys = model._fields[:-1]
    prices = _part(_key(payload, "prices", "the model"), dict, "prices",
                   f"an object of numbers with keys {', '.join(keys)}")
    weights = _part(_key(payload, "weights", "the model"), list, "weights",
                    f"an array of {model.n_paths} numbers")
    return model(*(_part(_key(prices, k, "prices"), float, f"prices.{k}",
                         "a number")
                   for k in keys),
                 [_part(w, float, f"weights[{i}]", "a number")
                  for i, w in enumerate(weights)])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def cmd_check_model(args: argparse.Namespace) -> int:
    try:
        model = _load_model(args.model)
    except (OSError, TypeError, ValueError, RecursionError,
            StatarbError) as exc:  # RecursionError: deeply nested JSON
        print(f"statarb: cannot load model {args.model!r}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    binomial = isinstance(model, TwoPeriodBinomial)
    if binomial:
        cert = nsa_binomial(model)
    else:
        from .trinomial import counterexample_pid_check, trinomial_nsa

        cert = trinomial_nsa(model)
    print(f"status={cert.status}")
    for key, value in cert.diagnostics.items():
        print(f"{key}={_fmt(value)}")
    if binomial:
        if cert.status == "SaExists":
            phi = solve_binomial_sa(model)
            print(f"phi=({_fmt(phi.phi1)},{_fmt(phi.phi2_up)},"
                  f"{_fmt(phi.phi2_down)})")
            return EXIT_SA_EXISTS
        return EXIT_OK
    try:
        report = counterexample_pid_check(model)
    except NoSolution as exc:
        print(f"pid_candidate=none ({exc})")
    else:
        candidate = ",".join(_fmt(w) for w in report.unique_candidate)
        print(f"pid_candidate=({candidate})")
        print(f"pid_is_valid_emm={str(report.is_valid_emm).lower()}")
    return EXIT_OK if cert.status == "NsaCertified" else EXIT_NOT_CERTIFIED


# -------------------------------------------------------------- dispatcher

# check-model runs here; a string names a function of `commands`, which
# main imports when that command starts
_COMMANDS = {
    "check-model": cmd_check_model,
    "simulate": "cmd_simulate",
    "sweep": "cmd_sweep",
    "backtest": "cmd_backtest",
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser that every main call reuses: building one takes about
    half of a one-run simulate."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = _COMMANDS[args.command]
    if isinstance(command, str):
        from . import commands

        command = getattr(commands, command)
    try:
        return command(args)
    except AllRunsSkipped as exc:
        print(f"statarb: {exc}", file=sys.stderr)
        return EXIT_ALL_SKIPPED
    except (StatarbError, ValueError, OSError) as exc:
        print(f"statarb: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
