"""Scenario partitions on the lattice models, and the three-period trend
lattice with its strategies.

``TrendLattice`` is a two-period binomial extended by a third leg after two
same-direction moves (up-up for the positive orientation, down-down for the
negative one).  It carries the trend-following and dichotomy-scenario
strategies with a free parameter ``alpha``, which ``strategies`` trades
along price paths.

A *statistical arbitrage* for a scenario partition is a zero-cost strategy
whose conditional expected gain is >= 0 on every cell and whose unconditional
expected gain is > 0.  Equality-like tests use ``lattice.EPS_TOL``.

The two-period models and their certificates are in ``lattice``, which the
CLI loads when it starts, and ``trinomial``; this module loads with the
commands that trade.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import DegenerateModel, InvalidBase, NoSaExists
from .lattice import (
    EPS_TOL,
    StrategyVector,
    TwoPeriodBinomial,
    _Checked,
    _probs,
    _scale,
    _solve_embedded,
    _tilde_q,
    binomial_A_matrix,
    total,
)
from .trinomial import TrinomialTopModel

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TrendLattice",
    "ScenarioPartition",
    "payoff",
    "expected_gain",
    "conditional_gains",
    "is_statistical_arbitrage",
    "terminal_state_partition",
    "trend_partition",
    "dichotomy_partition",
    "trend_A_matrix",
    "check_alpha_input",
    "check_alpha",
    "solve_three_leg",
    "trend_strategy",
    "gfin_strategy",
    "gfin_psi_bounds",
]


# ---------------------------------------------------------------- model types


class _TrendFields(NamedTuple):
    orientation: str
    s0: float
    s_up: float
    s_down: float
    s_uu: float
    s_ud: float
    s_dd: float
    s3_continue: float
    s3_reverse: float
    p: tuple[float, ...]


class TrendLattice(_Checked, _TrendFields):
    """Two-period binomial extended by a third leg after two same-direction
    moves.

    Paths 0..3 are the embedded binomial's (uu, ud, du, dd), and the third
    leg extends path ``extended``: 0 = uu in the positive orientation, 3 = dd
    in the negative one.  That path goes on to ``s3_continue``, which extends
    the trend, and path 4 makes the same two moves and then reverses to
    ``s3_reverse``, back toward the start.  Positive: 0 = up,up,continue;
    1 = ud; 2 = du; 3 = dd; 4 = up,up,reverse.  Negative: 0 = uu; 1 = ud;
    2 = du; 3 = down,down,continue; 4 = down,down,reverse.
    """

    __slots__ = ()

    def __new__(cls, orientation: str, s0: float, s_up: float,
                s_down: float, s_uu: float, s_ud: float, s_dd: float,
                s3_continue: float, s3_reverse: float,
                p: Iterable[float]) -> TrendLattice:
        self = tuple.__new__(cls, (orientation, s0, s_up, s_down, s_uu, s_ud,
                                   s_dd, s3_continue, s3_reverse,
                                   _probs(p, 5)))
        if orientation not in ("positive", "negative"):
            raise ValueError("orientation must be 'positive' or 'negative'")
        self.embedded_binomial()  # the two-period prices' checks
        if self.extended == 0:
            if not (s3_reverse < s_uu < s3_continue):
                raise ValueError("need s3_reverse < s_uu < s3_continue")
        elif not (s3_continue < s_dd < s3_reverse):
            raise ValueError("need s3_continue < s_dd < s3_reverse")
        return self

    n_paths = 5

    @property
    def extended(self) -> int:
        """The two-period path that the third leg extends: 0 (uu) in the
        positive orientation, 3 (dd) in the negative one."""
        return 0 if self.orientation == "positive" else 3

    @property
    def q(self) -> float:
        """Probability ratio of the two middle paths, p(ud)/p(du)."""
        return self.embedded_binomial().q

    @property
    def ds1(self) -> tuple[float, ...]:
        ds1 = self.embedded_binomial().ds1
        return ds1 + (ds1[self.extended],)

    @property
    def ds2(self) -> tuple[float, ...]:
        ds2 = self.embedded_binomial().ds2
        return ds2 + (ds2[self.extended],)

    @property
    def ds3(self) -> tuple[float, ...]:
        end = (self.s_uu, self.s_ud, self.s_ud, self.s_dd)[self.extended]
        ds3 = [0.0] * 5
        ds3[self.extended] = self.s3_continue - end
        ds3[4] = self.s3_reverse - end
        return tuple(ds3)

    @property
    def first_up(self) -> tuple[bool, ...]:
        first_up = TwoPeriodBinomial.first_up
        return first_up + (first_up[self.extended],)

    def embedded_binomial(self) -> TwoPeriodBinomial:
        """The two-period sub-model obtained by merging the third leg; the
        merged same-direction probability is the sum of continue + reverse."""
        p = list(self.p[:4])
        p[self.extended] += self.p[4]
        return TwoPeriodBinomial(self.s0, self.s_up, self.s_down,
                                 self.s_uu, self.s_ud, self.s_dd, tuple(p))


class _PartitionFields(NamedTuple):
    cells: tuple[frozenset[int], ...]


class ScenarioPartition(_Checked, _PartitionFields):
    """A finite partition of a model's path indices into scenario cells."""

    __slots__ = ()

    def __new__(cls, cells: Iterable[Iterable[int]]) -> ScenarioPartition:
        cells = tuple(frozenset(c) for c in cells)
        seen: set[int] = set()
        for cell in cells:
            if not cell:
                raise ValueError("partition cells must be nonempty")
            if seen & cell:
                raise ValueError("partition cells must be disjoint")
            seen |= cell
        return tuple.__new__(cls, (cells,))

    def validate(self, n_paths: int) -> None:
        union = set().union(*self.cells) if self.cells else set()
        if union != set(range(n_paths)):
            raise ValueError(
                f"partition must cover exactly paths 0..{n_paths - 1}")


# ------------------------------------------------------- payoffs, partitions


def payoff(model, strategy: StrategyVector, path: int) -> float:
    """Gain of ``strategy`` along one path: sum of position * price increment
    over the path's legs."""
    if not 0 <= path < model.n_paths:
        raise KeyError(f"unknown path id {path} for {type(model).__name__}")
    phi2 = strategy.phi2_up if model.first_up[path] else strategy.phi2_down
    gain = strategy.phi1 * model.ds1[path] + phi2 * model.ds2[path]
    if strategy.phi3 is not None:
        gain += strategy.phi3 * model.ds3[path]
    return gain


def expected_gain(model, strategy: StrategyVector) -> float:
    """Unconditional expected gain under the model's path probabilities."""
    return total(model.p[i] * payoff(model, strategy, i)
                 for i in range(model.n_paths))


def conditional_gains(model, strategy: StrategyVector,
                      partition: ScenarioPartition) -> list[float]:
    """Expected gain conditional on each partition cell:
    sum_{w in C} p(w) payoff(w) / sum_{w in C} p(w)."""
    partition.validate(model.n_paths)
    gains = []
    for cell in partition.cells:
        mass = total(model.p[i] for i in cell)
        acc = total(model.p[i] * payoff(model, strategy, i) for i in cell)
        gains.append(acc / mass)
    return gains


def is_statistical_arbitrage(model, strategy: StrategyVector,
                             partition: ScenarioPartition) -> bool:
    """True iff every cell's conditional gain is >= -EPS_TOL and the
    unconditional mean gain is > EPS_TOL."""
    cond = conditional_gains(model, strategy, partition)
    if any(g < -EPS_TOL for g in cond):
        return False
    return expected_gain(model, strategy) > EPS_TOL


def terminal_state_partition(model) -> ScenarioPartition:
    """Partition by terminal price state (structural recombination cells)."""
    if isinstance(model, TwoPeriodBinomial):
        return ScenarioPartition((frozenset({0}), frozenset({1, 2}),
                                  frozenset({3})))
    if isinstance(model, TrinomialTopModel):
        return ScenarioPartition((frozenset({0, 3}), frozenset({1}),
                                  frozenset({2, 4}), frozenset({5})))
    raise TypeError(
        "terminal-state partition is defined for the two-step models; "
        "use trend_partition / dichotomy_partition for TrendLattice")


def trend_partition(model: TrendLattice) -> ScenarioPartition:
    """Cells (trend-continue), (middle pair), (opposite extreme), (reverse):
    the partition certified by trend_strategy."""
    return ScenarioPartition((frozenset({0}), frozenset({1, 2}),
                              frozenset({3}), frozenset({4})))


def dichotomy_partition(model: TrendLattice) -> ScenarioPartition:
    """Two cells splitting the paths into terminal-above-start versus
    terminal-below-start scenarios; which paths land where depends on the
    orientation (the reverse path ends at/below start for positive drift,
    at/above start for negative drift)."""
    if model.orientation == "positive":
        return ScenarioPartition((frozenset({0, 1, 2}), frozenset({3, 4})))
    return ScenarioPartition((frozenset({0, 4}), frozenset({1, 2, 3})))


# ------------------------------------------------ three-period strategies


def trend_A_matrix(model: TrendLattice) -> np.ndarray:
    """4x4 constraint matrix for psi = (psi1, psi2_up, psi2_down, psi3).

    The embedded binomial's rows (the uu path, the dd path and the
    q-weighted middle cell) with the third-leg increments in column 4, and
    the extended path's row again with the trend-reverse increment.  The
    three-period strategies satisfy (matrix @ psi) = (1,1,1,alpha).
    """
    import numpy as np

    a = binomial_A_matrix(model.embedded_binomial())
    ds3 = model.ds3
    extended = a[(0, 3).index(model.extended)]
    return np.vstack([np.column_stack([a, (ds3[0], ds3[3], 0.0)]),
                      np.append(extended, ds3[4])])


def check_alpha_input(alpha: float) -> None:
    """Raise ValueError unless alpha, a strategy input, is finite and >= 0."""
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")


def check_alpha(alpha: float, what: str, *values: float) -> None:
    """Raise ValueError naming alpha and ``what`` when a value is not
    finite: the values scale with 1 - alpha, so only a huge alpha does it."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"alpha={alpha!r} is too large: {what}")


def solve_three_leg(ds1, ds2, ds3_continue, ds3_reverse, alpha: float,
                    ratio: float, positive: bool) -> StrategyVector:
    """The three-leg strategy from plain increments: ds1, ds2 of the
    embedded two-period model (paths uu, ud, du, dd), ds3_continue and
    ds3_reverse of the third leg, and ratio = p(ud)/p(du).  It is the
    two-period phi plus psi3 = (1-alpha)/(ds3_continue - ds3_reverse), the
    early legs shifted by -ds3_continue*psi3*gamma, where A gamma = e1
    (positive: third leg after up-up) or e2 (negative: after down-down).
    Positions that overflow raise check_alpha's ValueError."""
    scale = _scale(ds1, ds2)
    if abs(ratio - _tilde_q(ds1, ds2, scale)) <= EPS_TOL:
        raise NoSaExists("embedded two-period model admits no arbitrage")
    denom3 = ds3_continue - ds3_reverse
    if abs(denom3) <= EPS_TOL * scale:
        raise DegenerateModel("third-leg increments coincide")
    psi3 = (1.0 - alpha) / denom3
    phi1, phi2_up, phi2_down, d = _solve_embedded(ds1, ds2, ratio)
    if positive:
        gamma = (
            ratio * ds2[1] * ds2[3] / d,
            (ds1[3] * ds2[2] - (ratio * ds1[1] + ds1[2]) * ds2[3]) / d,
            -ratio * ds2[1] * ds1[3] / d,
        )
    else:
        gamma = (
            ds2[0] * ds2[2] / d,
            -ds1[0] * ds2[2] / d,
            (-ds2[0] * (ratio * ds1[1] + ds1[2]) + ratio * ds1[0] * ds2[1])
            / d,
        )
    shift = ds3_continue * psi3
    psi = (phi1 - shift * gamma[0], phi2_up - shift * gamma[1],
           phi2_down - shift * gamma[2], psi3)
    check_alpha(alpha, "the three-leg positions overflow", *psi)
    return StrategyVector(*psi)


def _three_leg(model: TrendLattice, alpha: float) -> StrategyVector:
    """solve_three_leg on the increments of a trend lattice, whose
    third-leg prices must be positive: GBM never reaches a level <= 0."""
    price = min(model.s3_continue, model.s3_reverse)
    if price <= 0.0:
        raise DegenerateModel(f"third-leg price {price!r} is not positive")
    binomial, ds3 = model.embedded_binomial(), model.ds3
    return solve_three_leg(binomial.ds1, binomial.ds2, ds3[model.extended],
                           ds3[4], alpha, binomial.q, model.extended == 0)


def trend_strategy(model: TrendLattice,
                   alpha: float = 0.0) -> StrategyVector:
    """Three-period trend-following strategy for the positive orientation.

    Extends the embedded two-period strategy phi with a third-leg position
    psi3 = (1-alpha)/(ds3(continue) - ds3(reverse)) and shifts the early legs
    by -ds3(continue)*psi3*gamma, where gamma solves A gamma = e1.  Satisfies
    trend_A_matrix(model) @ psi = (1, 1, 1, alpha).
    """
    if model.orientation != "positive":
        raise ValueError("trend_strategy requires the positive orientation")
    return _three_leg(model, alpha)


def gfin_strategy(model: TrendLattice,
                  alpha: float = 0.0) -> StrategyVector:
    """Three-period strategy certifying the dichotomy partition (terminal
    above/below start), for either orientation.

    Positive orientation: identical construction to trend_strategy (the
    dichotomy cells aggregate the same constraint rows).  Negative
    orientation: third leg after down-down with psi3 = (1-alpha)/(ds3(continue)
    - ds3(reverse)) and early-leg shift along gamma solving A gamma = e2.
    Requires the reverse price not to cross the start (s3_reverse <= s0 for
    positive, >= s0 for negative).
    """
    if model.orientation == "positive":
        if model.s3_reverse > model.s0:
            raise ValueError(
                "positive dichotomy strategy needs s3_reverse <= s0")
    elif model.s3_reverse < model.s0:
        raise ValueError("negative dichotomy strategy needs s3_reverse >= s0")
    return _three_leg(model, alpha)


def gfin_psi_bounds(model: TrendLattice,
                    base_strategy: StrategyVector) -> tuple[float, float]:
    """Interval of admissible third-leg positions for a given two-period base
    strategy on a positive-orientation lattice.

    With B = base gain along the up-up prefix (phi1*ds1(uu) + phi2_up*ds2(uu)),
    any psi3 in [-B/ds3(continue), -B/ds3(reverse)] keeps both third-leg
    scenarios' gains nonnegative.  The positive orientation's price checks
    give ds3(continue) > 0 > ds3(reverse).
    """
    if model.orientation != "positive":
        raise ValueError("gfin_psi_bounds requires the positive orientation")
    ds3 = model.ds3
    b = (base_strategy.phi1 * model.ds1[0]
         + base_strategy.phi2_up * model.ds2[0])
    if b < -EPS_TOL:
        raise InvalidBase("base strategy loses on the up-up prefix")
    b = max(b, 0.0)
    return (-b / ds3[0], -b / ds3[4])
