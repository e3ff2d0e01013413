"""Fingerprint the engine's outputs, to check that a change keeps them.

Run from anywhere, with no options:

    python3 tools/same_outputs.py > outputs.txt

It imports the ``src/`` of the checkout it lives in and prints one
``name sha256`` line per case, the sha256 of the ``repr`` of what the case
returns (or of the error it raises):

- ``run_experiment(...).runs`` over kinds x modes x alpha {0, 0.5, 1} x
  mu {+-0.1241} x steps {3, 50, 1000}, 200 runs each;
- ``run_path`` results, ledger events and cycle traces for seeds 0-19 of
  ``simulate_gbm`` per kind x mode x alpha x mu, at 300 steps;
- ``run_backtest`` results and ledger events on both ``tests/data`` CSVs
  at boundary 0.02 and alpha {0, 0.5, 1};
- the negative-drift trend cycle at c = 0.3, whose trend level
  a(1 - 4c) lies below 0: ``run_experiment`` at 50 steps in each mode,
  and ``run_backtest`` on both CSVs at boundary 0.3;
- the lattice layer: the certificate of each ``check-model`` fixture and
  ``solve_binomial_sa`` of the binomial one, ``gfin_strategy`` at alpha 0.5
  on a trend lattice of each orientation, and ``expected_gain`` and
  ``conditional_gains`` of those strategies on the terminal-state, trend
  and dichotomy partitions.

The other parameters are the CLI defaults.  Two checkouts whose outputs
print the same lines give the same results, bit for bit, on these cases.
"""
from __future__ import annotations

import hashlib
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from statarb.backtest import BacktestConfig, load_csv, run_backtest  # noqa: E402
from statarb.cli import FIXTURES  # noqa: E402
from statarb.errors import StatarbError  # noqa: E402
from statarb.gbm import GbmParams  # noqa: E402
from statarb.harness import ExperimentConfig, run_experiment  # noqa: E402
from statarb.lattice import (  # noqa: E402
    KINDS,
    MODES,
    nsa_binomial,
    solve_binomial_sa,
)
from statarb.paths import TradeLedger, simulate_gbm  # noqa: E402
from statarb.scenarios import (  # noqa: E402
    TrendLattice,
    conditional_gains,
    dichotomy_partition,
    expected_gain,
    gfin_strategy,
    terminal_state_partition,
    trend_partition,
)
from statarb.strategies import StrategyConfig, run_path  # noqa: E402
from statarb.trinomial import trinomial_nsa  # noqa: E402

ALPHAS = (0.0, 0.5, 1.0)
MUS = (0.1241, -0.1241)


def digest(compute) -> str:
    try:
        value = compute()
    except StatarbError as exc:
        value = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(repr(value).encode()).hexdigest()


def params(mu: float, n_steps: int) -> GbmParams:
    return GbmParams(mu=mu, sigma=0.0837, s0=2186.0, horizon=1.0,
                     n_steps=n_steps)


def experiment(strategy: StrategyConfig, mu: float, n_steps: int):
    config = ExperimentConfig(params(mu, n_steps), strategy, n_runs=200,
                              master_seed=0)
    return run_experiment(config).runs


def paths(strategy: StrategyConfig, mu: float):
    law = params(mu, 300)
    out = []
    for seed in range(20):
        ledger, trace = TradeLedger(), []
        result = run_path(simulate_gbm(law, seed), law, strategy,
                          ledger=ledger, cycle_trace=trace)
        out.append((result, ledger.events, trace))
    return out


def backtest(csv: Path, alpha: float, boundary: float = 0.02):
    ledger = TradeLedger()
    result = run_backtest(load_csv(csv),
                          BacktestConfig(boundary_fraction=boundary,
                                         alpha=alpha),
                          ledger=ledger)
    return result, ledger.events


def trend_lattice(orientation: str) -> TrendLattice:
    """A trend lattice on the barrier grid s0(1 + k*c), c = 0.05, whose
    third leg reaches s0(1 +- 4c) or returns to s0."""
    s0, c = 2186.0, 0.05
    sign = 1.0 if orientation == "positive" else -1.0
    return TrendLattice(orientation, s0, s0 * (1 + c), s0 * (1 - c),
                        s0 * (1 + 2 * c), s0, s0 * (1 - 2 * c),
                        s0 * (1 + sign * 4 * c), s0,
                        (0.25, 0.15, 0.1, 0.25, 0.25))


def lattice_cases():
    """(name, compute) pairs of the lattice layer's cases."""
    binomial = FIXTURES["sec34"]()
    phi = solve_binomial_sa(binomial)
    yield "nsa_binomial/sec34", lambda: nsa_binomial(binomial)
    yield ("trinomial_nsa/bondarenko-counterexample",
           lambda: trinomial_nsa(FIXTURES["bondarenko-counterexample"]()))
    yield "solve_binomial_sa/sec34", lambda: phi
    yield "expected_gain/sec34", lambda: expected_gain(binomial, phi)
    yield ("conditional_gains/sec34/terminal_state",
           lambda: conditional_gains(binomial, phi,
                                     terminal_state_partition(binomial)))
    for orientation in ("positive", "negative"):
        model = trend_lattice(orientation)
        psi = gfin_strategy(model, 0.5)
        yield f"gfin_strategy/{orientation}/alpha=0.5", lambda: psi
        yield (f"expected_gain/{orientation}",
               lambda: expected_gain(model, psi))
        for part in (trend_partition, dichotomy_partition):
            yield (f"conditional_gains/{orientation}/{part.__name__}",
                   lambda: conditional_gains(model, psi, part(model)))


def main() -> None:
    for kind, mode, alpha, mu in product(KINDS, MODES, ALPHAS, MUS):
        strategy = StrategyConfig(kind=kind, c_mult=0.01, alpha=alpha,
                                  execution_mode=mode)
        name = f"{kind}/{mode}/alpha={alpha}/mu={mu}"
        for n_steps in (3, 50, 1000):
            print(f"run_experiment/{name}/steps={n_steps}",
                  digest(lambda: experiment(strategy, mu, n_steps)))
        print(f"run_path/{name}", digest(lambda: paths(strategy, mu)))
    for csv, alpha in product(sorted((ROOT / "tests" / "data").glob("*.csv")),
                              ALPHAS):
        print(f"run_backtest/{csv.name}/alpha={alpha}",
              digest(lambda: backtest(csv, alpha)))
    mu = MUS[1]
    for mode in MODES:
        strategy = StrategyConfig(kind="trend", c=0.3, execution_mode=mode)
        print(f"run_experiment/trend/{mode}/alpha=0.0/mu={mu}/c=0.3/steps=50",
              digest(lambda: experiment(strategy, mu, 50)))
    for csv in sorted((ROOT / "tests" / "data").glob("*.csv")):
        print(f"run_backtest/{csv.name}/alpha=0.0/boundary=0.3",
              digest(lambda: backtest(csv, 0.0, 0.3)))
    for name, compute in lattice_cases():
        print(name, digest(compute))


if __name__ == "__main__":
    main()
