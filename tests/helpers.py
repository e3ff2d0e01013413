"""Shared fixtures and random-model generators for the test suite."""
from __future__ import annotations

import datetime
import math
from pathlib import Path
from typing import IO

import numpy as np

from statarb.backtest import MARKET_HEADER, MarketSeries
from statarb.errors import DegenerateModel, DegenerateSeries, ParseError
from statarb.gbm import embedded_q, exit_prob_lower, exit_prob_upper
from statarb.lattice import TwoPeriodBinomial
from statarb.paths import HitEvent
from statarb.scenarios import TrendLattice
from statarb.trinomial import TrinomialTopModel


def first_exit(prices, from_index, lo, hi):
    """Brute-force oracle for next_hit: the first j >= from_index with
    prices[j] <= lo or prices[j] >= hi, and the level on that side."""
    for j in range(from_index, len(prices)):
        if prices[j] <= lo:
            return HitEvent(j, lo)
        if prices[j] >= hi:
            return HitEvent(j, hi)
    return None


def reference_next_hit(prices, from_index, levels, ref_price=None):
    """Pairwise-segment oracle of the level-set scan that next_hit was
    first written as: the first touch or crossing of any of `levels` by
    the segments after from_index, touches counted at the right endpoint,
    several levels in one segment resolved to the one nearest its start;
    `ref_price` prepends the segment ref_price -> prices[from_index]."""

    def crossed(p0, p1):
        best, best_dist = None, math.inf
        for lv in levels:
            if (p0 - lv) * (p1 - lv) < 0 or p1 == lv:
                if abs(lv - p0) < best_dist:
                    best, best_dist = lv, abs(lv - p0)
        return best

    if ref_price is not None:
        lv = crossed(ref_price, prices[from_index])
        if lv is not None:
            return HitEvent(from_index, lv)
    for k in range(from_index, len(prices) - 1):
        lv = crossed(prices[k], prices[k + 1])
        if lv is not None:
            return HitEvent(k + 1, lv)
    return None


def find_no_sa_mu(c: float, sigma: float) -> float:
    """Bisect the drift at which the embedded grid ratio q crosses 1.

    The grid's log-asymmetry pushes q below 1 at small nu = mu/sigma^2 - 1/2
    while strong drift pushes it above, so a root exists in between.
    """

    def gap(nu: float) -> float:
        return embedded_q(c, (nu + 0.5) * sigma**2, sigma) - 1.0

    lo, hi = 0.0, 2.0
    assert gap(lo) < 0 < gap(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (0.5 * (lo + hi) + 0.5) * sigma**2


def sec34_binomial() -> TwoPeriodBinomial:
    """The worked +-5 example: every increment is +-5 and q = 0.3/0.25 = 1.2."""
    return TwoPeriodBinomial(100.0, 105.0, 95.0, 110.0, 100.0, 90.0,
                             (0.225, 0.3, 0.25, 0.225))


def counterexample_trinomial() -> TrinomialTopModel:
    """The trinomial fixture with the shared top state at 14."""
    return TrinomialTopModel(10.0, 12.0, 8.0, 14.0, 13.0, 10.0, 6.0,
                             (0.15, 0.2, 0.3, 0.05, 0.1, 0.2))


def random_probs(rng: np.random.Generator, n: int) -> tuple[float, ...]:
    """Strictly positive probabilities bounded away from zero, summing to 1."""
    raw = 0.05 + rng.random(n)
    return tuple(raw / raw.sum())


def random_binomial(rng: np.random.Generator,
                    p: tuple[float, ...] | None = None) -> TwoPeriodBinomial:
    """A non-degenerate two-period binomial model with comfortable margins."""
    s0 = float(rng.uniform(20.0, 2000.0))
    up = float(rng.uniform(0.02, 0.3))
    down = float(rng.uniform(0.02, 0.3))
    s_up = s0 * (1.0 + up)
    s_down = s0 * (1.0 - down)
    s_uu = s_up * (1.0 + rng.uniform(0.02, 0.3))
    s_ud = float(s_down + (s_up - s_down) * rng.uniform(0.1, 0.9))
    s_dd = s_down * (1.0 - rng.uniform(0.02, 0.3))
    if p is None:
        p = random_probs(rng, 4)
    return TwoPeriodBinomial(s0, s_up, s_down, s_uu, s_ud, s_dd, p)


def random_trinomial(rng: np.random.Generator) -> TrinomialTopModel:
    """A non-degenerate trinomial-top model."""
    s0 = float(rng.uniform(20.0, 2000.0))
    s1_up = s0 * (1.0 + rng.uniform(0.02, 0.3))
    s1_down = s0 * (1.0 - rng.uniform(0.02, 0.3))
    s2_uu = s1_up * (1.0 + rng.uniform(0.02, 0.3))
    s2_circ = s2_uu * (1.0 + rng.uniform(0.02, 0.3))
    s2_ud = float(s1_down + (s1_up - s1_down) * rng.uniform(0.1, 0.9))
    s2_dd = s1_down * (1.0 - rng.uniform(0.02, 0.3))
    return TrinomialTopModel(s0, s1_up, s1_down, s2_circ, s2_uu, s2_ud, s2_dd,
                             random_probs(rng, 6))


def random_trend_lattice(rng: np.random.Generator, orientation: str,
                         for_dichotomy: bool = False) -> TrendLattice:
    """A non-degenerate trend lattice.  With ``for_dichotomy`` the reverse
    price stays on the start's side (<= s0 positive, >= s0 negative)."""
    s0 = float(rng.uniform(20.0, 2000.0))
    s_up = s0 * (1.0 + rng.uniform(0.02, 0.3))
    s_down = s0 * (1.0 - rng.uniform(0.02, 0.3))
    s_uu = s_up * (1.0 + rng.uniform(0.02, 0.3))
    s_ud = float(s_down + (s_up - s_down) * rng.uniform(0.1, 0.9))
    s_dd = s_down * (1.0 - rng.uniform(0.02, 0.3))
    if orientation == "positive":
        s3_continue = s_uu * (1.0 + rng.uniform(0.02, 0.3))
        hi = min(s_uu, s0) if for_dichotomy else s_uu
        s3_reverse = float(hi * rng.uniform(0.5, 0.999))
    else:
        s3_continue = s_dd * (1.0 - rng.uniform(0.02, 0.3))
        lo = max(s_dd, s0) if for_dichotomy else s_dd
        s3_reverse = float(lo * rng.uniform(1.001, 1.5))
    return TrendLattice(orientation, s0, s_up, s_down, s_uu, s_ud, s_dd,
                        s3_continue, s3_reverse, random_probs(rng, 5))


def grid_binomial(s0: float, c: float, q: float) -> TwoPeriodBinomial:
    """Two-period binomial on the multiplicative barrier grid s0(1 +- kc)
    with the middle-path probability ratio equal to ``q``.

    The middle weights are q/16 and 1/16 so that p[1]/p[2] reproduces ``q``
    bit-for-bit (scaling by a power of two is exact); requires q < 15.
    """
    t = 0.0625
    rest = (1.0 - (1.0 + q) * t) / 2.0
    p = (rest, q * t, t, rest)
    return TwoPeriodBinomial(s0, s0 * (1 + c), s0 * (1 - c),
                             s0 * (1 + 2 * c), s0, s0 * (1 - 2 * c), p)


def random_exact_grid(rng: np.random.Generator,
                      q_gap: float = 1e-3) -> tuple[float, float, float]:
    """Random (s0, c, q) whose multiplicative grid prices and increments are
    exactly representable: integral s0 and dyadic c keep every product below
    53 significand bits, so cross-route comparisons see identical inputs.
    q is kept ``q_gap`` away from the no-strategy point 1."""
    s0 = float(rng.integers(8, 4097))
    c = float(rng.integers(41, 1024)) / 4096.0
    while True:
        q = float(rng.uniform(0.3, 3.0))
        if abs(q - 1.0) >= q_gap:
            return s0, c, q


def grid_trend_lattice(s0: float, c: float, orientation: str,
                       q: float = 1.2) -> TrendLattice:
    """Trend lattice on the multiplicative barrier grid: third leg runs from
    s0(1+2c) to {s0(1+4c), s0} (positive) or from s0(1-2c) to
    {s0(1-4c), s0} (negative)."""
    t = 0.0625
    rest = (1.0 - (1.0 + q) * t) / 3.0
    p = (rest, q * t, t, rest, rest)
    if orientation == "positive":
        return TrendLattice(orientation, s0, s0 * (1 + c), s0 * (1 - c),
                            s0 * (1 + 2 * c), s0, s0 * (1 - 2 * c),
                            s0 * (1 + 4 * c), s0, p)
    return TrendLattice(orientation, s0, s0 * (1 + c), s0 * (1 - c),
                        s0 * (1 + 2 * c), s0, s0 * (1 - 2 * c),
                        s0 * (1 - 4 * c), s0, p)


def reference_load_csv(source: str | Path | IO[str]) -> MarketSeries:
    """The straightforward line loop that backtest.load_csv was first
    written as, kept verbatim as the oracle of its parse results and
    errors."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return reference_load_csv(fh)
    dates: list[datetime.date] = []
    closes: list[float] = []
    saw_header = False
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != MARKET_HEADER:
                raise ParseError(f"expected header {MARKET_HEADER!r}, "
                                 f"got {line!r}", lineno)
            saw_header = True
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ParseError(f"expected 2 fields, got {len(fields)}", lineno)
        try:
            day = datetime.date.fromisoformat(fields[0])
        except ValueError:
            raise ParseError(f"bad ISO date {fields[0]!r}", lineno) from None
        try:
            close = float(fields[1])
        except ValueError:
            raise ParseError(f"bad price {fields[1]!r}", lineno) from None
        if not np.isfinite(close) or close <= 0.0:
            raise ParseError(f"non-positive price {fields[1]!r}", lineno)
        dates.append(day)
        closes.append(close)
    if not saw_header:
        raise ParseError(f"missing header {MARKET_HEADER!r}", 1)
    if not dates:
        raise ParseError("no data rows", 2)
    return MarketSeries(tuple(dates), np.array(closes))


def reference_mle_from_returns(r: np.ndarray,
                               dt: float) -> tuple[float, float]:
    """The np.var / np.mean body that gbm.mle_from_returns was first
    written as, kept verbatim as the oracle of its estimates and errors."""
    var = float(np.var(r, ddof=1))
    if var <= 1e-24:
        raise DegenerateSeries("return variance is zero")
    sigma_sq = var / dt
    mu = float(np.mean(r)) / dt + sigma_sq / 2.0
    return mu, math.sqrt(sigma_sq)


def reference_embedded_q(c: float, mu: float, sigma: float) -> float:
    """The four exit_prob_* calls that gbm.embedded_q was first written
    as, kept verbatim as the oracle of its ratios and errors."""
    if not (0 < c < 0.5):
        raise ValueError("c must lie in (0, 1/2)")
    levels = [1.0 + k * c for k in (-4, -2, -1, 0, 1, 2, 4)]
    if not all(lo < hi for lo, hi in zip(levels, levels[1:])):
        raise ValueError(f"c={c!r} is too small: the grid levels 1 + k*c "
                         "are not distinct floats")
    p_down1 = exit_prob_lower(1.0, 1.0 - c, 1.0 + c, mu, sigma)
    p_up1 = exit_prob_upper(1.0, 1.0 - c, 1.0 + c, mu, sigma)
    p_mid_up = exit_prob_lower(1.0 + c, 1.0, 1.0 + 2.0 * c, mu, sigma)
    p_mid_down = exit_prob_upper(1.0 - c, 1.0 - 2.0 * c, 1.0, mu, sigma)
    up, down = p_up1 * p_mid_up, p_down1 * p_mid_down
    q = up / down if up > 0.0 and down > 0.0 else 0.0
    if not 0.0 < q < math.inf:
        raise DegenerateModel(f"q = {up!r} / {down!r} at c={c!r}, "
                              f"mu={mu!r}, sigma={sigma!r}: an exit "
                              "probability product underflows")
    return q
