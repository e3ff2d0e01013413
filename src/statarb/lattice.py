"""Finite lattice market models and statistical-arbitrage certificates.

Three model families are covered:

* ``TwoPeriodBinomial`` -- recombining two-period binomial tree with paths
  (uu, ud, du, dd).  Admits a complete theory: a determinant certificate for
  absence of statistical arbitrage, the unique equivalent martingale measure,
  and a closed-form strategy ``phi = A^-1 (1,1,1)`` when arbitrage exists.
* ``TrinomialTopModel`` -- a two-step tree whose second step is binomial plus
  one shared top state reachable from both period-1 nodes.  Incomplete; only a
  sufficient certificate (Gamma bounds) is available, so the certificate is
  three-valued.
* ``TrendLattice`` -- a two-period binomial extended by a third leg after two
  same-direction moves (up-up for the positive orientation, down-down for the
  negative one).  Carries the trend-following and dichotomy-scenario
  strategies with a free parameter ``alpha``.

A *statistical arbitrage* for a scenario partition is a zero-cost strategy
whose conditional expected gain is >= 0 on every cell and whose unconditional
expected gain is > 0.  Equality-like tests use the module tolerance
``EPS_TOL``.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import DegenerateModel, NoSaExists, NoSolution, InvalidBase

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EPS_TOL",
    "TwoPeriodBinomial",
    "TrinomialTopModel",
    "TrendLattice",
    "ScenarioPartition",
    "StrategyVector",
    "NsaCertificate",
    "PidCheckReport",
    "payoff",
    "expected_gain",
    "conditional_gains",
    "is_statistical_arbitrage",
    "terminal_state_partition",
    "trend_partition",
    "dichotomy_partition",
    "binomial_A_matrix",
    "tilde_q",
    "nsa_binomial",
    "emm_binomial",
    "solve_binomial_sa",
    "trinomial_nsa",
    "counterexample_pid_check",
    "trend_A_matrix",
    "check_alpha_input",
    "check_alpha",
    "solve_three_leg",
    "trend_strategy",
    "gfin_strategy",
    "gfin_psi_bounds",
]

# The command-line choices, defined here because the CLI parser needs them
# and this module loads without numpy; strategies and harness import them.
KINDS = ("embedded", "trend")
MODES = ("snap", "observed")
SWEEP_AXES = ("c", "c_mult", "mu", "sigma", "eta")

EPS_TOL = 1e-10


def total(values: Iterable[float]) -> float:
    """values added left to right from 0.0 (sum() compensates on 3.12+)."""
    return functools.reduce(operator.add, values, 0.0)


def _probs(p: Iterable[float], n: int) -> tuple[float, ...]:
    p = tuple(float(x) for x in p)
    if len(p) != n:
        raise ValueError(f"expected {n} path probabilities, got {len(p)}")
    if any(not math.isfinite(x) or x <= 0.0 for x in p):
        raise ValueError("path probabilities must be finite and > 0")
    mass = total(p)
    if abs(mass - 1.0) > 1e-9:
        raise ValueError(f"path probabilities must sum to 1, got {mass!r}")
    return p


# ---------------------------------------------------------------- model types


class _Checked:
    """Mixin of the checked records.  Each is a NamedTuple of its fields
    under a subclass whose __new__ normalises and checks them, a form that
    needs no dataclasses import, so the CLI starts without it.  _make, and
    so _replace, build the new record through that __new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _BinomialFields(NamedTuple):
    s0: float
    s_up: float
    s_down: float
    s_uu: float
    s_ud: float
    s_dd: float
    p: tuple[float, float, float, float]


class TwoPeriodBinomial(_Checked, _BinomialFields):
    """Recombining two-period binomial model.

    Paths are indexed 0..3 = (uu, ud, du, dd); the middle terminal price
    ``s_ud`` is shared by ud and du.  ``p`` holds one probability per path.
    """

    __slots__ = ()

    def __new__(cls, s0: float, s_up: float, s_down: float, s_uu: float,
                s_ud: float, s_dd: float,
                p: Iterable[float]) -> TwoPeriodBinomial:
        p = _probs(p, 4)
        if not (s_up > s0 > s_down):
            raise ValueError("need s_up > s0 > s_down")
        if not (s_uu > s_up):
            raise ValueError("need s_uu > s_up")
        if not (s_down < s_ud < s_up):
            raise ValueError("need s_down < s_ud < s_up")
        if not (s_dd < s_down):
            raise ValueError("need s_dd < s_down")
        if not (s_dd > 0.0):  # the smallest price: GBM stays above 0
            raise ValueError("need s_dd > 0")
        return tuple.__new__(cls, (s0, s_up, s_down, s_uu, s_ud, s_dd, p))

    n_paths = 4

    @property
    def q(self) -> float:
        """Probability ratio of the two middle paths, p(ud)/p(du)."""
        return self.p[1] / self.p[2]

    @property
    def ds1(self) -> tuple[float, ...]:
        u, d = self.s_up - self.s0, self.s_down - self.s0
        return (u, u, d, d)

    @property
    def ds2(self) -> tuple[float, ...]:
        return (
            self.s_uu - self.s_up,
            self.s_ud - self.s_up,
            self.s_ud - self.s_down,
            self.s_dd - self.s_down,
        )

    first_up = (True, True, False, False)
    ds3 = (0.0, 0.0, 0.0, 0.0)


class _TrinomialFields(NamedTuple):
    s0: float
    s1_up: float
    s1_down: float
    s2_circ: float
    s2_uu: float
    s2_ud: float
    s2_dd: float
    p: tuple[float, ...]


class TrinomialTopModel(_Checked, _TrinomialFields):
    """Two-step model: binomial first step, recombining-binomial second step
    plus a shared top state reachable from both period-1 nodes.

    Paths 0..5: first move up for 0..2, down for 3..5, with terminal prices
    (s2_circ, s2_uu, s2_ud, s2_circ, s2_ud, s2_dd).
    """

    __slots__ = ()

    def __new__(cls, s0: float, s1_up: float, s1_down: float,
                s2_circ: float, s2_uu: float, s2_ud: float, s2_dd: float,
                p: Iterable[float]) -> TrinomialTopModel:
        p = _probs(p, 6)
        if not (s2_circ > s2_uu > s2_ud > s2_dd > 0.0):
            raise ValueError("need s2_circ > s2_uu > s2_ud > s2_dd > 0")
        if not (s1_up > s0 > s1_down):
            raise ValueError("need s1_up > s0 > s1_down")
        if not (s2_uu > s1_up):
            raise ValueError("need s2_uu > s1_up")
        if not (s1_down < s2_ud < s1_up):
            raise ValueError("need s1_down < s2_ud < s1_up")
        if not (s2_dd < s1_down):
            raise ValueError("need s2_dd < s1_down")
        return tuple.__new__(
            cls, (s0, s1_up, s1_down, s2_circ, s2_uu, s2_ud, s2_dd, p))

    n_paths = 6

    @property
    def nu1(self) -> float:
        """p(up to top) / p(down to top)."""
        return self.p[0] / self.p[3]

    @property
    def nu2(self) -> float:
        """p(up to middle) / p(down to middle)."""
        return self.p[2] / self.p[4]

    @property
    def ds1(self) -> tuple[float, ...]:
        u, d = self.s1_up - self.s0, self.s1_down - self.s0
        return (u, u, u, d, d, d)

    @property
    def ds2(self) -> tuple[float, ...]:
        return (
            self.s2_circ - self.s1_up,
            self.s2_uu - self.s1_up,
            self.s2_ud - self.s1_up,
            self.s2_circ - self.s1_down,
            self.s2_ud - self.s1_down,
            self.s2_dd - self.s1_down,
        )

    first_up = (True, True, True, False, False, False)
    ds3 = (0.0,) * 6


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


class _Positions(NamedTuple):
    phi1: float
    phi2_up: float
    phi2_down: float
    phi3: float | None = None


class StrategyVector(_Checked, _Positions):
    """Predictable positions per lattice node: phi1 held over the first
    period, phi2_up / phi2_down over the second depending on the first move,
    and optionally phi3 over the third leg of a TrendLattice.  Field k is
    the position of leg k of a strategies.leg_table cycle."""

    __slots__ = ()

    def __new__(cls, phi1: float, phi2_up: float, phi2_down: float,
                phi3: float | None = None) -> StrategyVector:
        if not (math.isfinite(phi1) and math.isfinite(phi2_up)
                and math.isfinite(phi2_down)
                and (phi3 is None or math.isfinite(phi3))):
            raise ValueError("strategy components must be finite")
        return tuple.__new__(cls, (phi1, phi2_up, phi2_down, phi3))


class NsaCertificate(NamedTuple):
    """Outcome of a no-statistical-arbitrage check.

    ``status`` is one of 'NsaCertified', 'SaExists', 'NotCertified';
    ``diagnostics`` holds the scalars the decision was based on.
    """

    status: str
    diagnostics: dict[str, float]


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


# ------------------------------------- binomial certificates and solver


def _binomial_rows(model: TwoPeriodBinomial) -> tuple[tuple, tuple, tuple]:
    """The rows of binomial_A_matrix as tuples of floats."""
    q = model.q
    ds1, ds2 = model.ds1, model.ds2
    return ((ds1[0], ds2[0], 0.0),
            (ds1[3], 0.0, ds2[3]),
            (q * ds1[1] + ds1[2], q * ds2[1], ds2[2]))


def binomial_A_matrix(model: TwoPeriodBinomial) -> np.ndarray:
    """3x3 constraint matrix for phi = (phi1, phi2_up, phi2_down): rows are
    the uu-path gain, the dd-path gain, and the q-weighted middle-cell gain,
    with q = p(ud)/p(du)."""
    import numpy as np

    return np.array(_binomial_rows(model))


def _scale(ds1, ds2) -> float:
    return max(map(abs, ds1 + ds2))


def _scale_cubed(scale: float) -> float:
    """The scale of a product of three increments of the given scale; an
    increment whose cube overflows raises DegenerateModel."""
    try:
        return scale ** 3
    except OverflowError:
        raise DegenerateModel(f"increment {scale!r} is too large: its cube "
                              "overflows") from None


def tilde_q(model: TwoPeriodBinomial) -> float:
    """Critical value of q = p(ud)/p(du) at which the model admits no
    statistical arbitrage (equivalently, at which det(A) vanishes)."""
    ds1, ds2 = model.ds1, model.ds2
    return _tilde_q(ds1, ds2, _scale(ds1, ds2))


def _tilde_q(ds1, ds2, scale: float) -> float:
    k1 = ds1[2] * ds2[3] - ds1[3] * ds2[2]
    k2 = ds1[0] * ds2[1] - ds1[1] * ds2[0]
    den = ds2[3] * k2
    if abs(den) <= EPS_TOL * _scale_cubed(scale):
        raise DegenerateModel("critical-ratio denominator vanishes")
    return ds2[0] * k1 / den


def _det3(a) -> float:
    """Cofactor determinant of a 3x3 matrix given as nested rows (tuples or
    an ndarray alike)."""
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def nsa_binomial(model: TwoPeriodBinomial) -> NsaCertificate:
    """Certify the two-period binomial model: NsaCertified iff q equals the
    critical ratio (within EPS_TOL), else SaExists.  Diagnostics carry q,
    the critical ratio, and det(A)."""
    q = model.q
    qt = tilde_q(model)
    status = "NsaCertified" if abs(q - qt) <= EPS_TOL else "SaExists"
    return NsaCertificate(status, {"q": q, "tilde_q": qt,
                                   "det_A": _det3(_binomial_rows(model))})


def emm_binomial(model: TwoPeriodBinomial) -> np.ndarray:
    """The unique equivalent martingale measure of the two-period binomial
    model, as path weights (w_uu, w_ud, w_du, w_dd)."""
    import numpy as np

    ds1, ds2 = model.ds1, model.ds2
    k1 = ds1[2] * ds2[3] - ds1[3] * ds2[2]
    k2 = ds1[0] * ds2[1] - ds1[1] * ds2[0]
    raw = np.array([ds2[1] * k1, -ds2[0] * k1, -ds2[3] * k2, ds2[2] * k2])
    b = (ds2[1] * ((ds1[2] - ds1[0]) * ds2[3] + (ds1[0] - ds1[3]) * ds2[2])
         + ds2[0] * ((ds1[1] - ds1[2]) * ds2[3] + (ds1[3] - ds1[1]) * ds2[2]))
    if abs(b) <= EPS_TOL * _scale_cubed(_scale(ds1, ds2)):
        raise DegenerateModel("martingale-measure normalizer vanishes")
    weights = raw / b
    if np.any(weights <= 0.0):
        raise DegenerateModel("martingale measure has a non-positive weight")
    return weights


def solve_binomial_sa(model: TwoPeriodBinomial) -> StrategyVector:
    """Closed-form statistical arbitrage phi = A^-1 (1,1,1) for the
    two-period binomial model; raises NoSaExists when q equals the critical
    ratio (the system is singular exactly there)."""
    q = model.q
    if abs(q - tilde_q(model)) <= EPS_TOL:
        raise NoSaExists("q equals the critical ratio; no arbitrage exists")
    return StrategyVector(*_solve_embedded(model.ds1, model.ds2, q)[:3])


# ------------------------------------------------- trinomial certificates


def trinomial_nsa(model: TrinomialTopModel) -> NsaCertificate:
    """Sufficient certificate for the trinomial-top model: NsaCertified iff
    nu1 equals -ds2(mid-up)/ds2(top-up) * nu2 and Gamma1 < nu2 <= Gamma2
    (both comparisons padded by EPS_TOL); otherwise NotCertified.  The
    criterion is one-directional, so 'SaExists' is never reported."""
    ds1, ds2 = model.ds1, model.ds2
    scale = _scale(ds1, ds2)
    gamma1_den = ds1[2] - ds2[2] * (ds1[1] / ds2[1])
    gamma2_den = ds1[2] - ds1[0] * (ds2[2] / ds2[0])
    for name, val in (("ds2(dd)", ds2[5]), ("ds2(uu)", ds2[1]),
                      ("ds2(top-up)", ds2[0]),
                      ("gamma1 denominator", gamma1_den),
                      ("gamma2 denominator", gamma2_den)):
        if abs(val) <= EPS_TOL * scale:
            raise DegenerateModel(f"{name} vanishes")
    gamma1 = (-ds1[4] + ds2[4] * (ds1[5] / ds2[5])) / gamma1_den
    gamma2 = ((ds1[5] / ds2[5]) * (ds2[3] + ds2[4]) - ds1[3] - ds1[4]) \
        / gamma2_den
    nu1, nu2 = model.nu1, model.nu2
    linked = abs(nu1 - (-ds2[2] / ds2[0]) * nu2) <= EPS_TOL
    in_band = (gamma1 - EPS_TOL) < nu2 <= (gamma2 + EPS_TOL)
    status = "NsaCertified" if (linked and in_band) else "NotCertified"
    return NsaCertificate(status, {"gamma1": gamma1, "gamma2": gamma2,
                                   "nu1": nu1, "nu2": nu2})


class PidCheckReport(NamedTuple):
    """Result of the path-independent-density check: the unique candidate
    measure matching the model's conditional path ratios, and whether it is a
    valid (strictly positive) equivalent martingale measure."""

    unique_candidate: tuple[float, ...]
    is_valid_emm: bool


def counterexample_pid_check(model: TrinomialTopModel) -> PidCheckReport:
    """Solve for the unique measure that is simultaneously a martingale
    measure and path-independent (same density on paths sharing a terminal
    state: w1/w4 = p1/p4 and w3/w5 = p3/p5).  Nonnegative-screens the
    solution; a strictly positive solution would be an equivalent martingale
    measure."""
    import numpy as np

    ds1, ds2, p = model.ds1, model.ds2, model.p
    m = np.array([
        [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        [ds1[0], ds1[0], ds1[0], ds1[3], ds1[3], ds1[3]],
        [ds2[0], ds2[1], ds2[2], 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, ds2[3], ds2[4], ds2[5]],
        [p[3], 0.0, 0.0, -p[0], 0.0, 0.0],
        [0.0, 0.0, p[4], 0.0, -p[2], 0.0],
    ])
    rhs = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    try:
        w = np.linalg.solve(m, rhs)
    except np.linalg.LinAlgError:
        raise NoSolution("path-independence constraint system is singular")
    if np.min(w) < -1e-9:
        raise NoSolution("no nonnegative measure satisfies the constraints")
    w = np.where(np.abs(w) <= 1e-12, 0.0, w)
    return PidCheckReport(tuple(float(x) for x in w),
                          bool(np.min(w) > EPS_TOL))


# ------------------------------------------------ three-period strategies


def _solve_embedded(ds1, ds2,
                    ratio: float) -> tuple[float, float, float, float]:
    """Closed-form solve (phi1, phi2_up, phi2_down) of the two-period model
    with increments ds1, ds2 (paths uu, ud, du, dd) and an explicit
    probability ratio p(ud)/p(du), and the determinant d it divides by."""
    xi1 = (ratio * ds2[1] - ds2[0]) * ds2[3] + ds2[0] * ds2[2]
    xi2 = (-(ds1[2] + ratio * ds1[1] - ds1[0]) * ds2[3]
           - (ds1[0] - ds1[3]) * ds2[2])
    xi3 = (-(ratio * ds1[3] - ratio * ds1[0]) * ds2[1]
           - (-ds1[3] + ds1[2] + ratio * ds1[1]) * ds2[0])
    d = ((ratio * ds1[0] * ds2[1] + (-ds1[2] - ratio * ds1[1]) * ds2[0])
         * ds2[3] + ds1[3] * ds2[0] * ds2[2])
    return xi1 / d, xi2 / d, xi3 / d, d


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
    scenarios' gains nonnegative.  Requires ds3(continue) > 0 > ds3(reverse).
    """
    ds3 = model.ds3
    if not (ds3[0] > 0.0 > ds3[4]):
        raise ValueError("bounds need ds3(continue) > 0 > ds3(reverse)")
    b = (base_strategy.phi1 * model.ds1[0]
         + base_strategy.phi2_up * model.ds2[0])
    if b < -EPS_TOL:
        raise InvalidBase("base strategy loses on the up-up prefix")
    b = max(b, 0.0)
    return (-b / ds3[0], -b / ds3[4])
