"""Tests for closed-form GBM exit probabilities and the embedded model."""
from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (grid_binomial, random_exact_grid, reference_embedded_q,
                     reference_mle_from_returns)
from statarb.errors import (
    DegenerateModel,
    DegenerateSeries,
    InvalidInterval,
    NoSaExists,
)
from statarb.gbm import (
    NU_EPS,
    GbmParams,
    embedded_phi,
    embedded_q,
    exit_prob_lower,
    exit_prob_upper,
    mle_estimate,
    mle_from_returns,
)
from statarb.lattice import solve_binomial_sa


def outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except Exception as exc:  # the oracles compare any error
        return type(exc), str(exc)


def scale_function_oracle(s0, a, b, mu, sigma):
    """Independent route: P = (e^{-tB} - 1)/(e^{-tB} - e^{-tA}) with
    t = 2 nu, the classic scale-function form."""
    nu = mu / sigma**2 - 0.5
    theta = 2.0 * nu
    big_a, big_b = math.log(a / s0), math.log(b / s0)
    return ((math.exp(-theta * big_b) - 1.0)
            / (math.exp(-theta * big_b) - math.exp(-theta * big_a)))


def display_q_oracle(c, mu, sigma):
    """Independent transcription of the single closed-form ratio display
    in raw power form (no log-space rearrangement)."""
    nu = mu / sigma**2 - 0.5
    w = abs(nu)
    p_down1 = ((1 - c) ** nu
               * ((1 + c) ** w - (1 + c) ** -w)
               / (((1 + c) / (1 - c)) ** w - ((1 - c) / (1 + c)) ** w))
    up_back = ((1 + c) ** -nu
               * (((1 + 2 * c) / (1 + c)) ** w
                  - ((1 + c) / (1 + 2 * c)) ** w)
               / ((1 + 2 * c) ** w - (1 + 2 * c) ** -w))
    down_back = 1 - (((1 - 2 * c) / (1 - c)) ** nu
                     * ((1 - c) ** -w - (1 - c) ** w)
                     / ((1 - 2 * c) ** -w - (1 - 2 * c) ** w))
    return (1 - p_down1) * up_back / (p_down1 * down_back)


# ------------------------------------------------------------- exit probs


def test_exit_prob_boundary_cases():
    assert exit_prob_lower(90.0, 90.0, 110.0, 0.1, 0.2) == 1.0
    assert exit_prob_lower(110.0, 90.0, 110.0, 0.1, 0.2) == 0.0


def test_exit_prob_invalid_intervals():
    for s0, a, b in [(100, 110, 120), (100, 90, 95), (100, -1, 110),
                     (100, 0.0, 110), (100, 110, 90)]:
        with pytest.raises(InvalidInterval):
            exit_prob_lower(s0, a, b, 0.1, 0.2)
    with pytest.raises(ValueError):
        exit_prob_lower(100, 90, 110, 0.1, 0.0)


@pytest.mark.parametrize("s0, a, b, reason", [
    (1.0, 0.5, math.inf, "require finite a, s0 and b"),
    (math.inf, 1.0, math.inf, "require finite a, s0 and b"),
    (1.0, -math.inf, 2.0, "require finite a, s0 and b"),
    (math.nan, 1.0, 2.0, "require finite a, s0 and b"),
    (1e300, 1e-100, 1e301, "a/s0 underflows to 0"),
    (1e300, 1e-100, 1e300, "a/s0 underflows to 0"),
    (1e-300, 1e-301, 1e300, "b/s0 overflows"),
])
def test_exit_prob_rejects_levels_out_of_float_range(s0, a, b, reason):
    # unchecked, the logs of these levels raise an unnamed math domain
    # error or give exit probabilities that do not sum to 1
    message = f"^{re.escape(f'{reason}, got a={a}, s0={s0}, b={b}')}$"
    for prob in (exit_prob_lower, exit_prob_upper):
        with pytest.raises(InvalidInterval, match=message):
            prob(s0, a, b, 0.1, 0.2)


def test_exit_prob_driftless_limit():
    # mu = sigma^2/2 makes the log-price driftless
    p = exit_prob_lower(100.0, 90.0, 110.0, 0.02, 0.2)
    assert p == pytest.approx(math.log(1.1) / math.log(11 / 9), abs=1e-14)
    assert p == pytest.approx(0.47496, abs=1e-5)
    # continuity: tiny nu on either side agrees with the limit
    for mu in (0.02 + 1e-12, 0.02 - 1e-12):
        assert exit_prob_lower(100.0, 90.0, 110.0, mu, 0.2) == pytest.approx(
            p, abs=1e-9)


def test_exit_prob_matches_scale_function():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        s0 = float(rng.uniform(10.0, 500.0))
        a = s0 * float(rng.uniform(0.6, 0.99))
        b = s0 * float(rng.uniform(1.01, 1.5))
        mu = float(rng.uniform(-0.5, 0.5))
        sigma = float(rng.uniform(0.05, 0.5))
        if abs(mu / sigma**2 - 0.5) <= 1e-6:
            continue
        p = exit_prob_lower(s0, a, b, mu, sigma)
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(scale_function_oracle(s0, a, b, mu, sigma),
                                  rel=1e-12)


def test_exit_prob_monotone_in_start():
    rng = np.random.default_rng(32)
    for _ in range(200):
        a, b = 80.0, 125.0
        mu = float(rng.uniform(-0.3, 0.3))
        sigma = float(rng.uniform(0.1, 0.4))
        grid = np.linspace(81.0, 124.0, 9)
        probs = [exit_prob_lower(float(s), a, b, mu, sigma) for s in grid]
        assert all(x > y for x, y in zip(probs, probs[1:]))


def test_exit_prob_complementarity():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        s0 = float(rng.uniform(10.0, 500.0))
        a = s0 * float(rng.uniform(0.6, 0.99))
        b = s0 * float(rng.uniform(1.01, 1.5))
        mu = float(rng.uniform(-0.5, 0.5))
        sigma = float(rng.uniform(0.05, 0.5))
        lower = exit_prob_lower(s0, a, b, mu, sigma)
        upper = exit_prob_upper(s0, a, b, mu, sigma)
        assert lower + upper == pytest.approx(1.0, abs=1e-12)
        # second independent route: 1/S is GBM with drift sigma^2 - mu and
        # hitting b from above maps to hitting 1/b from below
        mirrored = exit_prob_lower(1.0 / s0, 1.0 / b, 1.0 / a,
                                   sigma * sigma - mu, sigma)
        assert upper == pytest.approx(mirrored, rel=1e-11)


def test_exit_prob_upper_boundaries():
    assert exit_prob_upper(90.0, 90.0, 110.0, 0.1, 0.2) == 0.0
    assert exit_prob_upper(110.0, 90.0, 110.0, 0.1, 0.2) == 1.0


def test_exit_prob_extreme_drift_is_stable():
    # |nu| ~ 2000: raw power evaluation would overflow
    p_up_drift = exit_prob_lower(100.0, 90.0, 110.0, 5.0, 0.05)
    assert 0.0 <= p_up_drift < 1e-10
    p_down_drift = exit_prob_lower(100.0, 90.0, 110.0, -5.0, 0.05)
    assert 1.0 - 1e-10 < p_down_drift <= 1.0


@pytest.mark.parametrize("exit_prob", [exit_prob_lower, exit_prob_upper])
def test_exit_prob_names_a_sigma_whose_square_underflows(exit_prob):
    # sigma > 0, but sigma * sigma is 0.0 and nu has no value
    with pytest.raises(DegenerateModel, match=(
            r"^sigma=1e-170 is too small: sigma\^2 underflows to 0$")):
        exit_prob(1.0, 0.9, 1.1, 1.0, 1e-170)


# ------------------------------------------------------------- embedded q


def test_embedded_q_anchor_value():
    mu, sigma = 0.1241, 0.0837
    q = embedded_q(0.01 * mu / sigma, mu, sigma)
    assert q == pytest.approx(1.00189, abs=5e-6)


def test_embedded_q_small_c_limit():
    assert embedded_q(1e-6, 0.1241, 0.0837) == pytest.approx(1.0, abs=1e-4)


def test_embedded_q_matches_display_transcription():
    # the raw power-form oracle loses digits near nu = 0 (cancelling power
    # differences) and at large |nu|*c (a complement factor collapses to
    # 1 - (1 - tiny)), so nu is drawn where the oracle carries full precision
    rng = np.random.default_rng(34)
    for _ in range(1000):
        c = float(rng.uniform(0.01, 0.2))
        nu = float(rng.choice([-1.0, 1.0])
                   * rng.uniform(0.5, min(50.0, 1.5 / c)))
        sigma = float(rng.uniform(0.1, 0.4))
        mu = (nu + 0.5) * sigma**2
        assert embedded_q(c, mu, sigma) == pytest.approx(
            display_q_oracle(c, mu, sigma), rel=1e-12)


def test_embedded_q_exceeds_one_for_strong_drift():
    # the ratio is even in nu = mu/sigma^2 - 1/2 and exceeds 1 once |nu|
    # outweighs the log-asymmetry of the multiplicative grid
    for sigma in (0.05, 0.1, 0.3):
        for nu in (1.0, 5.0, 20.0):
            mu = (nu + 0.5) * sigma**2
            for c in (0.001, 0.01, 0.05):
                assert embedded_q(c, mu, sigma) > 1.0


def test_embedded_q_even_in_nu():
    # mu and sigma^2 - mu give opposite nu and must yield the same ratio
    rng = np.random.default_rng(37)
    for _ in range(500):
        sigma = float(rng.uniform(0.05, 0.5))
        mu = float(rng.uniform(-0.5, 0.5))
        c = float(rng.uniform(0.001, 0.2))
        assert embedded_q(c, mu, sigma) == pytest.approx(
            embedded_q(c, sigma * sigma - mu, sigma), rel=1e-12)


def test_embedded_q_rejects_bad_c():
    for c in (0.0, -0.01, 0.5, 0.7):
        with pytest.raises(ValueError):
            embedded_q(c, 0.1, 0.2)


@given(c=st.one_of(st.floats(1e-17, 1e-14),
                   st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)))
@example(c=1e-16)
@example(c=1.5e-16)
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_embedded_q_accepts_only_distinct_grid_levels(c):
    levels = [1.0 + k * c for k in (-4, -2, -1, 0, 1, 2, 4)]
    distinct = all(lo < hi for lo, hi in zip(levels, levels[1:]))
    try:
        q = embedded_q(c, 0.1241, 0.0837)
    except ValueError as exc:
        assert not distinct
        assert str(exc).startswith(f"c={c!r} is too small")
    else:
        assert distinct
        assert math.isfinite(q) and q > 0.0


@given(c=st.floats(0.01, 0.49), mu=st.floats(-2000.0, 2000.0),
       sigma=st.sampled_from([0.01, 0.0837, 1.0]))
@example(c=0.4, mu=1.0, sigma=0.01)
@example(c=0.4, mu=-1.0, sigma=0.01)
@example(c=0.4, mu=729.9, sigma=1.0)
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
def test_embedded_q_raises_by_name_where_a_product_underflows(c, mu, sigma):
    # every q with nonzero products and a finite ratio keeps its arithmetic
    up = (exit_prob_upper(1.0, 1.0 - c, 1.0 + c, mu, sigma)
          * exit_prob_lower(1.0 + c, 1.0, 1.0 + 2.0 * c, mu, sigma))
    down = (exit_prob_lower(1.0, 1.0 - c, 1.0 + c, mu, sigma)
            * exit_prob_upper(1.0 - c, 1.0 - 2.0 * c, 1.0, mu, sigma))
    if up > 0.0 and down > 0.0 and up / down < math.inf:
        assert embedded_q(c, mu, sigma) == up / down
    else:
        with pytest.raises(DegenerateModel) as info:
            embedded_q(c, mu, sigma)
        assert str(info.value) == (
            f"q = {up!r} / {down!r} at c={c!r}, mu={mu!r}, "
            f"sigma={sigma!r}: an exit probability product underflows")


# the smallest c whose grid levels 1 + k*c are distinct floats
C_MIN = 1.6653345369377348e-16

# c spread over (0, 1/2), and around the smallest c with distinct levels
CS = st.one_of(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
               st.floats(1e-16, 1e-14))
SIGMAS = st.floats(1e-3, 2.0)


def driftless(c, nu, sigma):
    """(c, mu, sigma) with mu/sigma^2 - 1/2 = nu up to rounding."""
    return c, (nu + 0.5) * sigma * sigma, sigma


@given(args=st.one_of(
    st.tuples(CS, st.floats(-5.0, 5.0), SIGMAS),
    st.builds(driftless, CS, st.floats(-NU_EPS, NU_EPS), SIGMAS),
    st.tuples(st.just(0.4), st.floats(-2000.0, 2000.0),
              st.sampled_from([0.01, 0.0837, 1.0])),
    st.tuples(CS, st.floats(-5.0, 5.0), st.floats(-1.0, 0.0)),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-5.0, 5.0), SIGMAS)))
@example(args=(C_MIN, 0.1241, 0.0837))
@example(args=(math.nextafter(C_MIN, 0.0), 0.1241, 0.0837))
@example(args=(0.05, 0.02, 0.2))
@example(args=(0.05, 0.02 + 1e-12, 0.2))
@example(args=(0.4, 729.9, 1.0))
@example(args=(0.4, -730.5, 1.0))
@example(args=(0.05, 0.1, 0.0))
@example(args=(0.05, 0.1, -0.0))
@example(args=(0.05, 0.1, math.nan))
@example(args=(0.05, math.nan, 0.2))
@example(args=(0.05, 1.0, 1e-170))
@example(args=(0.05, 0.1, math.inf))
@example(args=(1e-16, 0.1, 0.0))
@example(args=(0.5, 0.1, 0.0))
@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
def test_embedded_q_equals_the_four_exit_probability_calls(args):
    # the cached grid and shared log sinh keep every ratio and every error
    assert outcome(embedded_q, *args) == outcome(reference_embedded_q, *args)


# ----------------------------------------------------------- embedded phi


def test_embedded_phi_matches_lattice_solver():
    phi = embedded_phi(0.05, 100.0, 1.2)
    ref = solve_binomial_sa(grid_binomial(100.0, 0.05, 1.2))
    assert phi.phi1 == pytest.approx(ref.phi1, rel=1e-12)
    assert phi.phi2_up == pytest.approx(ref.phi2_up, rel=1e-12)
    assert phi.phi2_down == pytest.approx(ref.phi2_down, rel=1e-12)


def test_embedded_phi_matches_lattice_solver_randomized():
    rng = np.random.default_rng(35)
    for _ in range(1000):
        s0, c, q = random_exact_grid(rng)
        phi = embedded_phi(c, s0, q)
        ref = solve_binomial_sa(grid_binomial(s0, c, q))
        assert phi.phi1 == pytest.approx(ref.phi1, rel=1e-12)
        assert phi.phi2_up == pytest.approx(ref.phi2_up, rel=1e-12)
        assert phi.phi2_down == pytest.approx(ref.phi2_down, rel=1e-12)


@pytest.mark.parametrize("c", [0.0, -0.01, 0.5, 0.7])
def test_embedded_phi_rejects_bad_c(c):
    with pytest.raises(ValueError, match=r"^c must lie in \(0, 1/2\)$"):
        embedded_phi(c, 100.0, 1.2)


@pytest.mark.parametrize("s0", [0.0, -100.0, math.nan])
def test_embedded_phi_rejects_an_anchor_that_is_not_positive(s0):
    with pytest.raises(ValueError, match="^s0_anchor must be positive$"):
        embedded_phi(0.05, s0, 1.2)


def test_embedded_phi_degenerate_q():
    with pytest.raises(NoSaExists):
        embedded_phi(0.05, 100.0, 1.0)
    with pytest.raises(NoSaExists):
        embedded_phi(0.05, 100.0, 1.0 + 1e-12)


def test_embedded_phi_names_s0_and_c_when_the_cube_leaves_float_range():
    with pytest.raises(DegenerateModel,
                       match=r"^s0=1e-110 is too small for "
                             r"c=0\.05: \(c\*s0\)\^3 underflows"):
        embedded_phi(0.05, 1e-110, 1.2)
    with pytest.raises(DegenerateModel,
                       match=r"^s0=1e\+110 is too large for "
                             r"c=0\.05: \(c\*s0\)\^3 overflows"):
        embedded_phi(0.05, 1e110, 1.2)


def test_embedded_phi_simulation_parameters():
    phi = embedded_phi(0.0148268, 2186.0, 1.00189)
    assert phi.phi1 > 0
    assert all(math.isfinite(v) for v in (phi.phi1, phi.phi2_up,
                                          phi.phi2_down))


# ------------------------------------------------------------- estimation


def test_mle_estimate_degenerate_series():
    with pytest.raises(DegenerateSeries):
        mle_estimate(np.full(100, 50.0), dt=1 / 252)
    with pytest.raises(DegenerateSeries):
        mle_estimate(np.exp(0.001 * np.arange(100)), dt=1 / 252)
    with pytest.raises(DegenerateSeries):
        mle_estimate(np.linspace(100.0, 110.0, 10), dt=1 / 252)


@pytest.mark.parametrize("n", [0, 1])
def test_mle_from_returns_needs_two_returns(n):
    # the n - 1 denominator: one return used to give (nan, nan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSeries,
                           match="^need at least 2 returns$"):
            mle_from_returns(np.full(n, 0.01), 1 / 252)


@pytest.mark.parametrize("dt", [0.0, -1 / 252, math.nan])
def test_mle_estimate_rejects_a_dt_that_is_not_positive(dt):
    closes = 50.0 + np.sin(np.arange(40.0))
    with pytest.raises(ValueError, match="^dt must be positive$"):
        mle_estimate(closes, dt)


@pytest.mark.parametrize("bad", [0.0, -50.0])
def test_mle_estimate_rejects_prices_that_are_not_positive(bad):
    closes = 50.0 + np.sin(np.arange(40.0))
    closes[7] = bad
    with pytest.raises(ValueError, match="^prices must be positive$"):
        mle_estimate(closes, 1 / 252)


@st.composite
def return_arrays(draw):
    """Log-return arrays of 2-3000 points: random draws at one scale, with
    per-point magnitudes from 1e-12 to 1e2, constant (zero variance), or
    hypothesis floats up to 1e100."""
    n = draw(st.integers(2, 3000))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["scale", "mixed", "constant", "floats"]))
    if kind == "scale":
        loc = draw(st.floats(-1.0, 1.0))
        scale = 10.0 ** draw(st.floats(-13.0, 1.0))
        return rng.normal(loc * scale, scale, n)
    if kind == "mixed":
        return (rng.standard_normal(n)
                * 10.0 ** rng.integers(-12, 3, n).astype(float))
    if kind == "constant":
        return np.full(n, draw(st.floats(-1e100, 1e100)))
    return np.array(draw(st.lists(st.floats(-1e100, 1e100), min_size=2,
                                  max_size=40)))


@given(r=return_arrays(), dt=st.sampled_from([1 / 252, 1.0, 1e-3, 7.5]))
@example(r=np.full(756, 0.001), dt=1 / 252)
@example(r=np.zeros(2), dt=1 / 252)
@example(r=np.array([1e-13, -1e-13]), dt=1 / 252)
@settings(max_examples=1500, deadline=None, derandomize=True, database=None)
def test_mle_from_returns_equals_np_var_and_np_mean(r, dt):
    # one sum and one squared-deviation sum round as np.var / np.mean do
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcome(mle_from_returns, r, dt) == outcome(
            reference_mle_from_returns, r, dt)


def test_mle_estimate_rejects_a_2d_array():
    closes = 50 + np.sin(np.arange(100.0)).reshape(10, 10)
    with pytest.raises(ValueError, match="^closes must be 1-d$"):
        mle_estimate(closes, 1 / 252)


def test_mle_estimate_rejects_nan_prices():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^prices must be finite$"):
            mle_estimate(np.array([1.0, np.nan] * 20), 1 / 252)


def test_mle_estimate_rejects_inf_prices():
    closes = 50.0 + np.sin(np.arange(40.0))
    closes[-1] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^prices must be finite$"):
            mle_estimate(closes, 1 / 252)


def test_mle_estimate_recovers_gbm_parameters():
    mu, sigma, dt = 0.1, 0.2, 1 / 252
    n = 3 * 252
    horizon = n * dt
    rng = np.random.default_rng(36)
    mu_errs, sigma_errs = [], []
    mu_se = sigma / math.sqrt(horizon)
    sigma_se = sigma / math.sqrt(2 * (n - 1))
    mu_hits = sigma_hits = 0
    for _ in range(100):
        r = rng.normal((mu - sigma**2 / 2) * dt, sigma * math.sqrt(dt), n)
        closes = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(r))))
        mu_hat, sigma_hat = mle_estimate(closes, dt)
        mu_errs.append(mu_hat - mu)
        sigma_errs.append(sigma_hat - sigma)
        mu_hits += abs(mu_hat - mu) <= 3 * mu_se
        sigma_hits += abs(sigma_hat - sigma) <= 3 * sigma_se
    # aggregate bias bounded by 3 standard errors of the 100-seed mean
    assert abs(np.mean(mu_errs)) <= 3 * mu_se / 10
    assert abs(np.mean(sigma_errs)) <= 3 * sigma_se / 10
    # per-seed coverage of the 3-standard-error band
    assert mu_hits >= 95 and sigma_hits >= 95


# ---------------------------------------------------------------- params


@pytest.mark.parametrize("n_steps", [50.5, 50.0, "50"])
def test_gbm_params_rejects_an_n_steps_that_is_not_an_integer(n_steps):
    # 50.5 used to be accepted and a run then failed inside numpy
    with pytest.raises(ValueError, match=r"^n_steps must be an integer, "
                                         rf"got {re.escape(repr(n_steps))}$"):
        GbmParams(0.1, 0.2, 100.0, 1.0, n_steps)


def test_gbm_params_accepts_numpy_integer_steps():
    p = GbmParams(0.1, 0.2, 100.0, 1.0, np.int64(50))
    assert p.dt == 1.0 / 50


def test_gbm_params_validation_and_accessors():
    p = GbmParams(mu=0.1241, sigma=0.0837, s0=2186.0, horizon=1.0,
                  n_steps=1000)
    assert p.eta == pytest.approx(0.1241 / 0.0837)
    assert p.dt == pytest.approx(0.001)
    for bad in [dict(sigma=0.0), dict(s0=-1.0), dict(horizon=0.0),
                dict(n_steps=0)]:
        kwargs = dict(mu=0.1, sigma=0.2, s0=100.0, horizon=1.0, n_steps=10)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            GbmParams(**kwargs)

