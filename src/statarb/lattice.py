"""Finite lattice market models and their no-statistical-arbitrage
certificates.

Two model families are covered:

* ``TwoPeriodBinomial`` -- recombining two-period binomial tree with paths
  (uu, ud, du, dd).  Admits a complete theory: a determinant certificate for
  absence of statistical arbitrage, the unique equivalent martingale measure,
  and a closed-form strategy ``phi = A^-1 (1,1,1)`` when arbitrage exists.
* ``TrinomialTopModel`` -- a two-step tree whose second step is binomial plus
  one shared top state reachable from both period-1 nodes.  Incomplete; only a
  sufficient certificate (Gamma bounds) is available, so the certificate is
  three-valued.

This is what ``statarb check-model`` runs, so the CLI loads this module
when it starts.  The three-period trend lattice, scenario partitions and
three-leg strategies are in ``scenarios``.  Equality-like tests use the
module tolerance ``EPS_TOL``.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import DegenerateModel, NoSaExists, NoSolution

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EPS_TOL",
    "TwoPeriodBinomial",
    "TrinomialTopModel",
    "StrategyVector",
    "NsaCertificate",
    "PidCheckReport",
    "binomial_A_matrix",
    "tilde_q",
    "nsa_binomial",
    "emm_binomial",
    "solve_binomial_sa",
    "trinomial_nsa",
    "counterexample_pid_check",
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
