"""The two-period binomial lattice model and its no-statistical-arbitrage
certificate.

``TwoPeriodBinomial`` is a recombining two-period binomial tree with paths
(uu, ud, du, dd).  It admits a complete theory: a determinant certificate
for absence of statistical arbitrage, the unique equivalent martingale
measure, and a closed-form strategy ``phi = A^-1 (1,1,1)`` when arbitrage
exists.

This is what ``statarb check-model`` runs on a binomial, so the CLI loads
this module when it starts.  The trinomial-top counterexample and its
certificates are in ``trinomial``; the three-period trend lattice, scenario
partitions and three-leg strategies are in ``scenarios``.  Equality-like
tests use the module tolerance ``EPS_TOL``.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import DegenerateModel, NoSaExists

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EPS_TOL",
    "TwoPeriodBinomial",
    "StrategyVector",
    "NsaCertificate",
    "binomial_A_matrix",
    "tilde_q",
    "nsa_binomial",
    "emm_binomial",
    "solve_binomial_sa",
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

