"""The trinomial-top model and its certificates: Bondarenko's (2003)
counterexample, which admits no statistical arbitrage and yet no
path-independent equivalent martingale measure.

``TrinomialTopModel`` is a two-step tree whose second step is binomial plus
one shared top state reachable from both period-1 nodes.  It is incomplete;
only a sufficient certificate (Gamma bounds) is available, so the
certificate is three-valued.

``statarb check-model`` loads this module only for a trinomial model, so a
binomial check starts without compiling it.  The two-period binomial and
the shared record forms are in ``lattice``.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import DegenerateModel, NoSolution
from .lattice import EPS_TOL, NsaCertificate, _Checked, _probs, _scale

__all__ = [
    "TrinomialTopModel",
    "PidCheckReport",
    "trinomial_nsa",
    "counterexample_pid_check",
]


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
