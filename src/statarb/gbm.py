"""Closed-form geometric-Brownian-motion quantities.

Exit probabilities for two-sided barriers, the probability ratio q of the
binomial model embedded at barrier hitting times, the closed-form embedded
strategy, and maximum-likelihood drift/volatility estimation.

Each closed form is written once: _exit_prob is the exit-probability
formula that exit_prob_lower, exit_prob_upper and embedded_q's four
probabilities evaluate; embedded_phi, like the trend solve, raises
DegenerateModel for collapsed grid levels and a cube out of float range.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (DegenerateModel, DegenerateSeries, InvalidInterval,
                     NoSaExists)
from .lattice import EPS_TOL, StrategyVector

# switch to the nu -> 0 limit of the exit-probability formula below this
NU_EPS = 1e-9

__all__ = [
    "NU_EPS",
    "GbmParams",
    "exit_prob_lower",
    "exit_prob_upper",
    "embedded_q",
    "embedded_phi",
    "mle_from_returns",
]


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GbmParams:
    """Parameters of dS = mu*S dt + sigma*S dB on [0, horizon].

    `n_steps` is the number of equally spaced observation intervals, an
    integer (numpy integers included).
    """

    mu: float
    sigma: float
    s0: float
    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        for name in ("mu", "sigma", "s0", "horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.sigma > 0):
            raise ValueError("sigma must be positive")
        if not (self.s0 > 0):
            raise ValueError("s0 must be positive")
        if not (self.horizon > 0):
            raise ValueError("horizon must be positive")
        try:
            operator.index(self.n_steps)
        except TypeError:
            raise ValueError(f"n_steps must be an integer, got "
                             f"{self.n_steps!r}") from None
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    @property
    def dt(self) -> float:
        """Years per observation interval."""
        return self.horizon / self.n_steps


# ---------------------------------------------------------------------------
# exit probabilities
# ---------------------------------------------------------------------------


def _logsinh(x: float) -> float:
    """log(sinh(x)) for x > 0, stable for both tiny and large x."""
    return x + math.log(-math.expm1(-2.0 * x)) - math.log(2.0)


def _check_interval(s0: float, a: float, b: float,
                    sigma: float) -> tuple[float, float]:
    """The log-barriers ln(a/s0) and ln(b/s0) of a checked interval: finite
    levels whose ratios a/s0 and b/s0 neither underflow to 0 nor overflow."""
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    got = f"a={a}, s0={s0}, b={b}"
    if not all(map(math.isfinite, (a, s0, b))):
        raise InvalidInterval(f"require finite a, s0 and b, got {got}")
    if not (0 < a <= s0 <= b) or a >= b:
        raise InvalidInterval(f"require 0 < a <= s0 <= b, got {got}")
    low, high = a / s0, b / s0
    if low == 0.0:
        raise InvalidInterval(f"a/s0 underflows to 0, got {got}")
    if high == math.inf:
        raise InvalidInterval(f"b/s0 overflows, got {got}")
    return math.log(low), math.log(high)


def _nu(mu: float, sigma: float) -> float:
    """nu = mu/sigma^2 - 1/2 for a positive sigma; a sigma whose square
    underflows to 0 raises DegenerateModel."""
    var = sigma * sigma
    if var == 0.0:
        raise DegenerateModel(f"sigma={sigma!r} is too small: sigma^2 "
                              "underflows to 0")
    return mu / var - 0.5


def _exit_prob(near: float, far: float, width: float, nu: float) -> float:
    """exp(nu*near) * sinh(|nu|*far) / sinh(|nu|*width), evaluated in log
    space, or its driftless limit far / width for |nu| <= NU_EPS; clipped
    to [0, 1].  The one exit-probability formula: exit_prob_lower,
    exit_prob_upper and embedded_q all evaluate it."""
    if abs(nu) <= NU_EPS:
        p = far / width
    else:
        w = abs(nu)
        p = math.exp(nu * near + _logsinh(w * far) - _logsinh(w * width))
    return min(1.0, max(0.0, p))


def exit_prob_lower(s0: float, a: float, b: float, mu: float,
                    sigma: float) -> float:
    """Probability that GBM started at s0 leaves (a, b) through a.

    With nu = mu/sigma^2 - 1/2 and log-barriers A = ln(a/s0) < 0 < B =
    ln(b/s0) the probability is exp(nu*A) * sinh(|nu|B) / sinh(|nu|(B-A)),
    evaluated in log space; for |nu| <= NU_EPS the driftless limit
    B / (B - A) = ln(b/s0)/ln(b/a) is used.
    """
    big_a, big_b = _check_interval(s0, a, b, sigma)
    if a == s0:
        return 1.0
    if b == s0:
        return 0.0
    return _exit_prob(big_a, big_b, big_b - big_a, _nu(mu, sigma))


def exit_prob_upper(s0: float, a: float, b: float, mu: float,
                    sigma: float) -> float:
    """Probability that GBM started at s0 leaves (a, b) through b.

    Mirror of exit_prob_lower (1/S is GBM with drift sigma^2 - mu and the
    barriers swap roles): exp(nu*B) * sinh(|nu||A|) / sinh(|nu|(B-A)).
    Evaluating it directly instead of as 1 - exit_prob_lower keeps full
    precision when the complement is within rounding of 1.
    """
    big_a, big_b = _check_interval(s0, a, b, sigma)
    if a == s0:
        return 0.0
    if b == s0:
        return 1.0
    return _exit_prob(big_b, -big_a, big_b - big_a, _nu(mu, sigma))


# ---------------------------------------------------------------------------
# embedded binomial model
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _q_grid(c: float) -> tuple[tuple[float, float, float], ...]:
    """The (near, far, width) _exit_prob arguments of embedded_q's four
    exit probabilities at c, in the order p_down1, p_up1, p_mid_up,
    p_mid_down: the logs exit_prob_lower / exit_prob_upper take of the same
    normalized levels, after the same checks on c.  They depend on c alone,
    so they are cached per c."""
    if not (0 < c < 0.5):
        raise ValueError("c must lie in (0, 1/2)")
    levels = [1.0 + k * c for k in (-4, -2, -1, 0, 1, 2, 4)]
    if not all(lo < hi for lo, hi in zip(levels, levels[1:])):
        raise ValueError(f"c={c!r} is too small: the grid levels 1 + k*c "
                         "are not distinct floats")
    a1, b1 = math.log(1.0 - c), math.log(1.0 + c)
    a2, b2 = math.log(1.0 / (1.0 + c)), math.log((1.0 + 2.0 * c) / (1.0 + c))
    a3, b3 = math.log((1.0 - 2.0 * c) / (1.0 - c)), math.log(1.0 / (1.0 - c))
    return ((a1, b1, b1 - a1), (b1, -a1, b1 - a1), (a2, b2, b2 - a2),
            (b3, -a3, b3 - a3))


def embedded_q(c: float, mu: float, sigma: float) -> float:
    """Probability ratio q = P(up-then-back) / P(down-then-back) of the
    binomial model embedded at hitting times of the levels s0*(1 +- c).

    The first step resolves at the barriers s0*(1 +- c); conditional on its
    outcome the second step resolves at (s0, s0*(1+2c)) respectively
    (s0*(1-2c), s0).  The anchor price cancels, so everything is computed
    on the normalized grid 1 + k*c, whose levels must be distinct floats.
    When a probability product underflows (at c = 0.4, from |mu|/sigma^2
    of about 730 on), so that q is 0 or not finite, DegenerateModel is
    raised.

    The four probabilities are exit_prob_lower(1, 1-c, 1+c),
    exit_prob_upper(1, 1-c, 1+c), exit_prob_lower(1+c, 1, 1+2c) and
    exit_prob_upper(1-c, 1-2c, 1), bit for bit, with the same errors in
    the same order: _exit_prob on the log-barriers that _q_grid caches per
    c with the checks on c, and one nu.
    """
    (n1, f1, w1), (n2, f2, w2), (n3, f3, w3), (n4, f4, w4) = _q_grid(c)
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    nu = _nu(mu, sigma)
    up = _exit_prob(n2, f2, w2, nu) * _exit_prob(n3, f3, w3, nu)
    down = _exit_prob(n1, f1, w1, nu) * _exit_prob(n4, f4, w4, nu)
    q = up / down if up > 0.0 and down > 0.0 else 0.0
    if not 0.0 < q < math.inf:
        raise DegenerateModel(f"q = {up!r} / {down!r} at c={c!r}, "
                              f"mu={mu!r}, sigma={sigma!r}: an exit "
                              "probability product underflows")
    return q


def _collapsed(c: float, anchor: float) -> DegenerateModel:
    """The error of grid levels a(1 + k*c) that are not distinct floats."""
    return DegenerateModel(f"grid levels collapse at c={c!r}, "
                           f"anchor={anchor!r}")


def embedded_phi(c: float, s0_anchor: float, q: float) -> StrategyVector:
    """Closed-form zero-cost strategy for the embedded binomial model.

    On the multiplicative grid the increments collapse to +-c*s0 steps and
    the general solver reduces to

        phi1 = (2+q)(c s0)^2 / D,  phi2+ = (q-4)(c s0)^2 / D,
        phi2- = -3q(c s0)^2 / D,   D = 2(q-1)(c s0)^3.

    Raises, in this order: ValueError for a c outside (0, 1/2) or an
    anchor s0 <= 0; DegenerateModel naming c and the anchor for levels
    s0(1-2c) < s0(1-c) < s0 < s0(1+c) < s0(1+2c) that are not distinct
    floats; NoSaExists when q is (numerically) 1, where no such strategy
    exists; DegenerateModel naming s0 and c when (c s0)^3 underflows to 0
    or overflows.
    """
    if not (0 < c < 0.5):
        raise ValueError("c must lie in (0, 1/2)")
    if not (s0_anchor > 0):
        raise ValueError("s0_anchor must be positive")
    if not (s0_anchor * (1 - 2 * c) < s0_anchor * (1 - c) < s0_anchor
            < s0_anchor * (1 + c) < s0_anchor * (1 + 2 * c)):
        raise _collapsed(c, s0_anchor)
    if abs(q - 1.0) <= EPS_TOL:
        raise NoSaExists(f"embedded model admits no strategy at q={q!r}")
    step = c * s0_anchor
    try:
        d = 2.0 * (q - 1.0) * step ** 3
    except OverflowError:
        raise DegenerateModel(f"s0={s0_anchor!r} is too large for c={c!r}: "
                              "(c*s0)^3 overflows") from None
    if d == 0.0:
        raise DegenerateModel(f"s0={s0_anchor!r} is too small for c={c!r}: "
                              "(c*s0)^3 underflows to 0")
    s2 = step * step
    return StrategyVector((2.0 + q) * s2 / d, (q - 4.0) * s2 / d,
                          -3.0 * q * s2 / d)


# ---------------------------------------------------------------------------
# parameter estimation
# ---------------------------------------------------------------------------


def mle_from_returns(r: np.ndarray, dt: float) -> tuple[float, float]:
    """Maximum-likelihood (mu, sigma) from log-returns r sampled every dt
    years: sigma^2 = Var(r)/dt (n-1 denominator) and
    mu = mean(r)/dt + sigma^2/2.  Fewer than 2 returns, or (numerically)
    zero return variance, raise DegenerateSeries.

    One sum gives the mean and one sum of squared deviations the variance.
    These are the same pairwise add.reduce calls, elementwise subtraction
    and squaring, and IEEE divisions by n and n - 1 that np.mean and
    np.var(ddof=1) perform, so the estimate equals theirs bit for bit.
    """
    n = r.size
    if n < 2:
        raise DegenerateSeries("need at least 2 returns")
    mean = r.sum() / n
    dev = r - mean
    dev *= dev
    var = float(dev.sum() / (n - 1))
    if var <= 1e-24:
        raise DegenerateSeries("return variance is zero")
    sigma_sq = var / dt
    mu = float(mean) / dt + sigma_sq / 2.0
    return mu, math.sqrt(sigma_sq)
