"""Command-line front end tying the package into reproducible experiments.

Exit codes: 0 success / NsaCertified, 1 usage or parse failure, 2 SaExists,
3 NotCertified, 4 every run skipped.  Only ``errors`` and ``lattice`` load
with this module, so `check-model` on a binomial, `--help`, `--version` and
usage errors run without numpy; `simulate`, `sweep` and `backtest` import
the modules they run (and numpy with them) when they start.  When `--seed`
is absent the STATARB_SEED environment variable is consulted, then 0.
Identical invocations produce byte-identical outputs: metadata headers carry
the version, seed, quantile method and execution mode — never timestamps.
"""
from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable

from . import __version__
from .errors import AllRunsSkipped, NoSolution, StatarbError
from .lattice import (
    KINDS,
    MODES,
    SWEEP_AXES,
    TrinomialTopModel,
    TwoPeriodBinomial,
    counterexample_pid_check,
    nsa_binomial,
    solve_binomial_sa,
    trinomial_nsa,
)

if TYPE_CHECKING:
    from .harness import ExperimentConfig, SweepRow

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SA_EXISTS = 2
EXIT_NOT_CERTIFIED = 3
EXIT_ALL_SKIPPED = 4

QUANTILE_METHOD = "order-statistic"

# builtin fixtures for `check-model`
FIXTURES: dict[str, Callable] = {
    "sec34": lambda: TwoPeriodBinomial(
        100.0, 105.0, 95.0, 110.0, 100.0, 90.0,
        (0.225, 0.3, 0.25, 0.225)),
    "bondarenko-counterexample": lambda: TrinomialTopModel(
        10.0, 12.0, 8.0, 14.0, 13.0, 10.0, 6.0,
        (0.15, 0.2, 0.3, 0.05, 0.1, 0.2)),
}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this CLI reserves 2 for
    SaExists, so usage failures exit 1 instead."""

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


def _load_model(source: str):
    if source in FIXTURES:
        return FIXTURES[source]()
    import json

    payload = json.loads(Path(source).read_text(encoding="utf-8"))
    kind = payload["kind"]
    prices = payload["prices"]
    weights = tuple(float(w) for w in payload["weights"])
    # == so that an unhashable kind is unknown; price keys: fields before p
    model = (TwoPeriodBinomial if kind == "binomial" else
             TrinomialTopModel if kind == "trinomial" else None)
    if model is None:
        raise ValueError(f"unknown model kind {kind!r}")
    return model(*(float(prices[k]) for k in model._fields[:-1]), weights)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def cmd_check_model(args: argparse.Namespace) -> int:
    try:
        model = _load_model(args.model)
    except (OSError, KeyError, TypeError, ValueError, StatarbError) as exc:
        print(f"statarb: cannot load model {args.model!r}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE
    binomial = isinstance(model, TwoPeriodBinomial)
    cert = (nsa_binomial if binomial else trinomial_nsa)(model)
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


# ---------------------------------------------------- simulate and sweep


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("STATARB_SEED")
    if env is None:
        return 0
    try:
        seed = int(env)
    except ValueError:
        seed = -1  # reported below, as a negative value is
    if seed < 0:
        raise ValueError(
            f"STATARB_SEED must be a nonnegative integer, got {env!r}")
    return seed


def _experiment_config(args: argparse.Namespace) -> ExperimentConfig:
    """The flags' experiment; a bad STATARB_SEED fails before the rest."""
    seed = _resolve_seed(args)
    from .gbm import GbmParams
    from .harness import ExperimentConfig
    from .strategies import StrategyConfig

    params = GbmParams(mu=args.mu, sigma=args.sigma, s0=args.s0,
                       horizon=args.horizon, n_steps=args.steps)
    c, c_mult = args.c, args.c_mult
    if c is None and c_mult is None:
        c_mult = 0.01
    kind = "trend" if args.strategy == "gfin" else args.strategy
    strategy = StrategyConfig(kind=kind, c=c, c_mult=c_mult,
                              alpha=args.alpha,
                              execution_mode=args.mode)
    return ExperimentConfig(params=params, strategy=strategy,
                            n_runs=args.runs, master_seed=seed)


def _metadata(config: ExperimentConfig) -> dict[str, str]:
    return {
        "version": __version__,
        "seed": str(config.master_seed),
        "quantile_method": QUANTILE_METHOD,
        "execution_mode": config.strategy.execution_mode,
    }


def _report_runs(row: SweepRow, cell: str = "") -> None:
    """How the runs of one experiment ended and how many cycles they
    completed, on stderr."""
    ended = row.ended_by
    print(f"statarb: ended_by: {cell}PositivePnl={ended['PositivePnl']} "
          f"Horizon={ended['Horizon']}", file=sys.stderr)
    counts = " ".join(f"{n}={k}" for n, k in sorted(row.repetitions.items()))
    print(f"statarb: repetitions: {cell}{counts}", file=sys.stderr)


def _publish(text: str, out: Path | None,
             dump: Callable[[IO[str]], object]) -> None:
    """Write --out with ``dump`` first, so that a failed write prints
    nothing, then ``text`` to stdout; diagnostics go to stderr."""
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            dump(fh)
    sys.stdout.write(text)


def cmd_simulate(args: argparse.Namespace) -> int:
    from .harness import SweepRow, dump_runs_csv, dump_sweep_csv, \
        run_experiment

    config = _experiment_config(args)
    result = run_experiment(config)
    meta = _metadata(config)
    c = config.strategy.resolved_c(args.mu, args.sigma)
    row = SweepRow(c, result.summary, result.ended_by, result.repetitions)
    buf = io.StringIO()
    dump_sweep_csv([row], buf, metadata=meta)
    _publish(buf.getvalue(), args.out,
             lambda fh: dump_runs_csv(result, fh, metadata=meta))
    _report_runs(row)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import SweepAxis, dump_sweep_csv, sweep

    try:
        values = tuple(float(v) for v in args.values.split(","))
    except ValueError:
        print(f"statarb: bad --values list {args.values!r}",
              file=sys.stderr)
        return EXIT_USAGE
    config = _experiment_config(args)
    rows = sweep(config, SweepAxis(args.axis, values))
    buf = io.StringIO()
    dump_sweep_csv(rows, buf, metadata=_metadata(config))
    table = buf.getvalue()
    _publish(table, args.out, lambda fh: fh.write(table))
    for row in rows:
        _report_runs(row, f"{args.axis}={row.param!r} ")
    return EXIT_OK


# ---------------------------------------------------------------- backtest


def cmd_backtest(args: argparse.Namespace) -> int:
    from .backtest import BacktestConfig, dump_cycles_csv, \
        dump_summary_json, load_csv, run_backtest

    series = load_csv(args.data)
    config = BacktestConfig(boundary_fraction=args.boundary,
                            window_days=args.window, alpha=args.alpha)
    result = run_backtest(series, config)
    meta = {
        "version": __version__,
        "window": str(args.window),
        "boundary": repr(float(args.boundary)),
        "execution_mode": "observed",
    }
    buf = io.StringIO()
    dump_summary_json(result, buf, metadata=meta)
    _publish(buf.getvalue(), args.out,
             lambda fh: dump_cycles_csv(result, fh, metadata=meta))
    skipped = " ".join(f"{k}={v}" for k, v in result.skipped.items())
    print(f"statarb: skipped windows: {skipped}", file=sys.stderr)
    print(f"statarb: cut-off cycle pnl: {result.cutoff_pnl!r}",
          file=sys.stderr)
    return EXIT_OK


# -------------------------------------------------------------- dispatcher

_COMMANDS = {
    "check-model": cmd_check_model,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "backtest": cmd_backtest,
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
    try:
        return _COMMANDS[args.command](args)
    except AllRunsSkipped as exc:
        print(f"statarb: {exc}", file=sys.stderr)
        return EXIT_ALL_SKIPPED
    except (StatarbError, ValueError, OSError) as exc:
        print(f"statarb: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
