"""Tests for the lattice models, certificates, and strategy solvers."""
from __future__ import annotations

import builtins
import math
import re

import numpy as np
import pytest

from helpers import (
    counterexample_trinomial,
    grid_binomial,
    grid_trend_lattice,
    random_binomial,
    random_trend_lattice,
    random_trinomial,
    sec34_binomial,
)
from statarb.errors import DegenerateModel, InvalidBase, NoSaExists, NoSolution
from statarb.lattice import (
    StrategyVector,
    TrinomialTopModel,
    TwoPeriodBinomial,
    binomial_A_matrix,
    counterexample_pid_check,
    emm_binomial,
    nsa_binomial,
    solve_binomial_sa,
    tilde_q,
    trinomial_nsa,
    _det3,
)
from statarb.scenarios import (
    ScenarioPartition,
    TrendLattice,
    conditional_gains,
    dichotomy_partition,
    expected_gain,
    gfin_psi_bounds,
    gfin_strategy,
    is_statistical_arbitrage,
    payoff,
    solve_three_leg,
    terminal_state_partition,
    trend_A_matrix,
    trend_partition,
    trend_strategy,
)


def emm_oracle(m: TwoPeriodBinomial) -> np.ndarray:
    """Independent martingale-measure route: per-node conditional
    up-probabilities, then path products."""
    pu0 = (m.s0 - m.s_down) / (m.s_up - m.s_down)
    pu_up = (m.s_up - m.s_ud) / (m.s_uu - m.s_ud)
    pu_down = (m.s_down - m.s_dd) / (m.s_ud - m.s_dd)
    return np.array([pu0 * pu_up, pu0 * (1 - pu_up),
                     (1 - pu0) * pu_down, (1 - pu0) * (1 - pu_down)])


def det_root_oracle(m: TwoPeriodBinomial) -> float:
    """The q at which det(A(q)) = 0, found from two determinant evaluations
    (the determinant is linear in q)."""
    ds1, ds2 = m.ds1, m.ds2

    def det_at(q):
        a = np.array([[ds1[0], ds2[0], 0.0],
                      [ds1[3], 0.0, ds2[3]],
                      [q * ds1[1] + ds1[2], q * ds2[1], ds2[2]]])
        return np.linalg.det(a)

    d0, d1 = det_at(0.0), det_at(1.0)
    return d0 / (d0 - d1)


# ---------------------------------------------------------------- payoffs


def test_payoff_worked_example():
    m = sec34_binomial()
    phi = StrategyVector(1.6, -1.4, -1.8)
    assert [payoff(m, phi, i) for i in range(4)] == [1.0, 15.0, -17.0, 1.0]


def test_payoff_zero_strategy_and_bad_path():
    m = sec34_binomial()
    zero = StrategyVector(0.0, 0.0, 0.0)
    assert all(payoff(m, zero, i) == 0.0 for i in range(4))
    with pytest.raises(KeyError):
        payoff(m, zero, 4)
    with pytest.raises(KeyError):
        payoff(m, zero, -1)


def test_conditional_gains_worked_example():
    m = sec34_binomial()
    phi = StrategyVector(1.6, -1.4, -1.8)
    part = ScenarioPartition((frozenset({0}), frozenset({1, 2}),
                              frozenset({3})))
    gains = conditional_gains(m, phi, part)
    assert gains[0] == 1.0 and gains[2] == 1.0
    assert math.isclose(gains[1], 0.25 / 0.55, rel_tol=1e-14)
    # unnormalized middle-cell sum is exactly 0.25
    assert 0.3 * payoff(m, phi, 1) + 0.25 * payoff(m, phi, 2) == 0.25


def test_conditional_gains_tower_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        m = random_binomial(rng)
        phi = StrategyVector(*rng.normal(size=3))
        part = terminal_state_partition(m)
        total = sum(sum(m.p[i] for i in cell) * g
                    for cell, g in zip(part.cells,
                                       conditional_gains(m, phi, part)))
        assert math.isclose(total, expected_gain(m, phi),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_lattice_gains_are_sequential_sums(monkeypatch):
    # the builtin sum compensates its float adds from Python 3.12 on; the
    # gains add left to right, so a compensated sum must not move them
    m = sec34_binomial()
    phi = solve_binomial_sa(m)
    part = terminal_state_partition(m)
    monkeypatch.setattr(builtins, "sum", math.fsum)
    assert expected_gain(m, phi) == 0.6999999999999996
    assert conditional_gains(m, phi, part) == [1.0, 0.45454545454545453, 1.0]


def test_partition_validation():
    with pytest.raises(ValueError):
        ScenarioPartition((frozenset(), frozenset({0})))
    with pytest.raises(ValueError):
        ScenarioPartition((frozenset({0, 1}), frozenset({1, 2})))
    part = ScenarioPartition((frozenset({0}), frozenset({1, 2})))
    with pytest.raises(ValueError):
        part.validate(4)


def test_partition_shapes_by_model():
    b = sec34_binomial()
    assert terminal_state_partition(b).cells == (
        frozenset({0}), frozenset({1, 2}), frozenset({3}))
    t = counterexample_trinomial()
    assert terminal_state_partition(t).cells == (
        frozenset({0, 3}), frozenset({1}), frozenset({2, 4}), frozenset({5}))
    pos = grid_trend_lattice(100.0, 0.05, "positive")
    neg = grid_trend_lattice(100.0, 0.05, "negative")
    with pytest.raises(TypeError):
        terminal_state_partition(pos)
    for m in (pos, neg):
        assert trend_partition(m).cells == (
            frozenset({0}), frozenset({1, 2}), frozenset({3}), frozenset({4}))
    assert dichotomy_partition(pos).cells == (
        frozenset({0, 1, 2}), frozenset({3, 4}))
    assert dichotomy_partition(neg).cells == (
        frozenset({0, 4}), frozenset({1, 2, 3}))


def test_is_statistical_arbitrage():
    m = sec34_binomial()
    part = terminal_state_partition(m)
    phi = StrategyVector(1.6, -1.4, -1.8)
    assert is_statistical_arbitrage(m, phi, part)
    assert not is_statistical_arbitrage(m, StrategyVector(0, 0, 0), part)
    neg = StrategyVector(-1.6, 1.4, 1.8)
    assert not is_statistical_arbitrage(m, neg, part)


# ----------------------------------------------------- binomial certificates


def test_binomial_A_matrix_worked_example():
    a = binomial_A_matrix(sec34_binomial())
    assert np.array_equal(a, np.array([[5.0, 5.0, 0.0],
                                       [-5.0, 0.0, -5.0],
                                       [1.0, -6.0, 5.0]]))


def test_binomial_A_matrix_symmetric_grid():
    m = grid_binomial(100.0, 0.03, 1.0)
    a = binomial_A_matrix(m)
    step = 0.03 * 100.0
    assert np.allclose(a / step, [[1, 1, 0], [-1, 0, -1], [0, -1, 1]],
                       atol=1e-12)


def test_binomial_A_matrix_homogeneity():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = random_binomial(rng)
        lam = float(rng.uniform(0.1, 10.0))
        scaled = TwoPeriodBinomial(lam * m.s0, lam * m.s_up, lam * m.s_down,
                                   lam * m.s_uu, lam * m.s_ud, lam * m.s_dd,
                                   m.p)
        assert np.allclose(binomial_A_matrix(scaled),
                           lam * binomial_A_matrix(m), rtol=1e-12)


def test_tilde_q_values():
    assert tilde_q(grid_binomial(250.0, 0.02, 1.7)) == pytest.approx(
        1.0, abs=1e-12)
    assert tilde_q(sec34_binomial()) == pytest.approx(1.0, abs=1e-12)
    asym = TwoPeriodBinomial(10.0, 12.0, 8.0, 13.0, 10.0, 6.0,
                             (0.25, 0.25, 0.25, 0.25))
    assert tilde_q(asym) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_tilde_q_matches_det_root():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        m = random_binomial(rng)
        assert tilde_q(m) == pytest.approx(det_root_oracle(m), rel=1e-9)


def test_tilde_q_rejects_a_vanishing_denominator():
    # s_dd a hair below s_down: ds2(dd) * k2 is below EPS_TOL * scale^3
    m = TwoPeriodBinomial(100.0, 110.0, 90.0, 121.0, 99.0, 90.0 - 1e-10,
                          (0.25,) * 4)
    with pytest.raises(DegenerateModel,
                       match="^critical-ratio denominator vanishes$"):
        tilde_q(m)


def test_nsa_binomial_worked_example():
    cert = nsa_binomial(sec34_binomial())
    assert cert.status == "SaExists"
    assert cert.diagnostics["q"] == 1.2
    assert cert.diagnostics["tilde_q"] == pytest.approx(1.0, abs=1e-12)


def test_nsa_binomial_forced_tie():
    m = sec34_binomial()
    tie = TwoPeriodBinomial(m.s0, m.s_up, m.s_down, m.s_uu, m.s_ud, m.s_dd,
                            (0.25, 0.25, 0.25, 0.25))
    assert nsa_binomial(tie).status == "NsaCertified"


def test_nsa_binomial_matches_determinant_oracle():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        m = random_binomial(rng)
        a = binomial_A_matrix(m)
        det_zero = abs(np.linalg.det(a)) <= 1e-10 * np.linalg.norm(a) ** 3
        assert (nsa_binomial(m).status == "NsaCertified") == det_zero


@pytest.mark.parametrize("model", [
    sec34_binomial(),
    grid_binomial(100.0, 0.03, 1.0),
    grid_binomial(2186.0, 0.0123, 1.37),
    TwoPeriodBinomial(10.0, 12.0, 8.0, 13.0, 10.0, 6.0,
                      (0.25, 0.25, 0.25, 0.25)),
    TwoPeriodBinomial(1.0, 1.1, 0.93, 1.27, 1.01, 0.85, (0.1, 0.2, 0.3, 0.4)),
])
def test_nsa_binomial_det_A_is_the_matrix_determinant_exactly(model):
    assert nsa_binomial(model).diagnostics["det_A"] == _det3(
        binomial_A_matrix(model))


def test_emm_binomial_symmetric_additive():
    m = TwoPeriodBinomial(100.0, 105.0, 95.0, 110.0, 100.0, 90.0,
                          (0.1, 0.2, 0.3, 0.4))
    assert np.allclose(emm_binomial(m), 0.25, atol=1e-14)


def test_emm_binomial_martingale_and_oracle():
    rng = np.random.default_rng(15)
    for _ in range(1000):
        m = random_binomial(rng)
        w = emm_binomial(m)
        assert np.all(w > 0) and np.all(w < 1)
        assert math.isclose(w.sum(), 1.0, abs_tol=1e-12)
        assert np.allclose(w, emm_oracle(m), atol=1e-12)
        # both conditional increments are centered
        scale = m.s0
        assert abs(float(w @ m.ds1)) <= 1e-12 * scale
        assert abs(w[0] * m.ds2[0] + w[1] * m.ds2[1]) <= 1e-12 * scale
        assert abs(w[2] * m.ds2[2] + w[3] * m.ds2[3]) <= 1e-12 * scale


def test_emm_binomial_rejects_a_vanishing_normalizer():
    # at prices near 1e-110 the normalizer, a product of three increments,
    # underflows to 0
    prices = (1e-110 * s for s in (100.0, 110.0, 90.0, 121.0, 99.0, 81.0))
    m = TwoPeriodBinomial(*prices, (0.25,) * 4)
    with pytest.raises(DegenerateModel,
                       match="^martingale-measure normalizer vanishes$"):
        emm_binomial(m)


def test_an_increment_whose_cube_overflows_is_named():
    # the determinant scale, a product of three increments, leaves float
    # range at prices near 1e110
    m = TwoPeriodBinomial(*(1e110 * s for s in (100.0, 110.0, 90.0, 121.0,
                                                 99.0, 81.0)), (0.25,) * 4)
    message = r"^increment 1\.1\d*e\+111 is too large: its cube overflows$"
    for certify in (tilde_q, emm_binomial):
        with pytest.raises(DegenerateModel, match=message):
            certify(m)


def test_emm_binomial_rejects_a_weight_that_underflows():
    # at prices near 2^-350, with s_ud an ulp below s_up, w_uu's numerator
    # underflows to 0 while the normalizer does not
    k = 2.0 ** -350
    m = TwoPeriodBinomial(100 * k, 110 * k, 90 * k, 121 * k,
                          math.nextafter(110 * k, 0.0), 81 * k, (0.25,) * 4)
    with pytest.raises(DegenerateModel, match=(
            "^martingale measure has a non-positive weight$")):
        emm_binomial(m)


def test_solve_binomial_sa_worked_example():
    phi = solve_binomial_sa(sec34_binomial())
    assert (phi.phi1, phi.phi2_up, phi.phi2_down) == (1.6, -1.4, -1.8)


def test_solve_binomial_sa_no_arbitrage_boundary():
    m = grid_binomial(100.0, 0.05, 1.0)  # q = tilde_q = 1
    with pytest.raises(NoSaExists):
        solve_binomial_sa(m)


def test_solve_binomial_sa_matches_linear_solve():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        m = random_binomial(rng)
        try:
            phi = solve_binomial_sa(m)
        except NoSaExists:
            continue
        ref = np.linalg.solve(binomial_A_matrix(m), np.ones(3))
        got = np.array([phi.phi1, phi.phi2_up, phi.phi2_down])
        assert np.allclose(got, ref, rtol=1e-10, atol=1e-12)
        assert is_statistical_arbitrage(m, phi, terminal_state_partition(m))


def test_solver_homogeneity():
    rng = np.random.default_rng(17)
    for _ in range(500):
        m = random_binomial(rng)
        lam = float(rng.uniform(0.1, 10.0))
        scaled = TwoPeriodBinomial(lam * m.s0, lam * m.s_up, lam * m.s_down,
                                   lam * m.s_uu, lam * m.s_ud, lam * m.s_dd,
                                   m.p)
        assert nsa_binomial(scaled).status == nsa_binomial(m).status
        try:
            phi = solve_binomial_sa(m)
        except NoSaExists:
            continue
        phi_s = solve_binomial_sa(scaled)
        assert phi_s.phi1 == pytest.approx(phi.phi1 / lam, rel=1e-9)
        assert phi_s.phi2_up == pytest.approx(phi.phi2_up / lam, rel=1e-9)
        assert phi_s.phi2_down == pytest.approx(phi.phi2_down / lam, rel=1e-9)


# ----------------------------------------------------- trinomial certificate


@pytest.mark.parametrize("field, value, message", [
    ("s2_circ", 12.5, "need s2_circ > s2_uu > s2_ud > s2_dd > 0"),
    ("s1_up", 9.0, "need s1_up > s0 > s1_down"),
    ("s1_up", 13.5, "need s2_uu > s1_up"),
    ("s2_ud", 7.0, "need s1_down < s2_ud < s1_up"),
    ("s2_dd", 9.0, "need s2_dd < s1_down"),
])
def test_trinomial_top_model_rejects_misordered_prices(field, value,
                                                       message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        counterexample_trinomial()._replace(**{field: value})


def test_trinomial_nsa_rejects_a_vanishing_increment():
    m = counterexample_trinomial()._replace(s2_dd=8.0 - 1e-12)
    with pytest.raises(DegenerateModel, match=r"^ds2\(dd\) vanishes$"):
        trinomial_nsa(m)


def test_trinomial_nsa_fixture():
    cert = trinomial_nsa(counterexample_trinomial())
    assert cert.status == "NsaCertified"
    assert cert.diagnostics["gamma1"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert cert.diagnostics["gamma2"] == pytest.approx(3.0, abs=1e-12)
    assert cert.diagnostics["nu1"] == pytest.approx(3.0, abs=1e-12)
    assert cert.diagnostics["nu2"] == pytest.approx(3.0, abs=1e-12)


def test_trinomial_nsa_band_violation():
    m = counterexample_trinomial()
    # same prices, nu1 = nu2 = 3.5 > Gamma2: linkage holds, band fails
    bad = TrinomialTopModel(m.s0, m.s1_up, m.s1_down, m.s2_circ, m.s2_uu,
                            m.s2_ud, m.s2_dd,
                            (0.175, 0.2, 0.35, 0.05, 0.1, 0.125))
    assert trinomial_nsa(bad).status == "NotCertified"


def test_trinomial_nsa_linkage_violation():
    m = counterexample_trinomial()
    # nu1 = 2 while the linkage demands nu1 = nu2 = 3
    bad = TrinomialTopModel(m.s0, m.s1_up, m.s1_down, m.s2_circ, m.s2_uu,
                            m.s2_ud, m.s2_dd,
                            (0.15, 0.2, 0.3, 0.075, 0.1, 0.175))
    assert trinomial_nsa(bad).status == "NotCertified"


def test_trinomial_nsa_never_claims_sa():
    rng = np.random.default_rng(18)
    for _ in range(500):
        cert = trinomial_nsa(random_trinomial(rng))
        assert cert.status in ("NsaCertified", "NotCertified")


def test_counterexample_pid_check_fixture():
    rep = counterexample_pid_check(counterexample_trinomial())
    expect = (0.25, 0.0, 0.25, 1 / 12, 1 / 12, 1 / 3)
    assert np.allclose(rep.unique_candidate, expect, atol=1e-12)
    assert rep.unique_candidate[1] == 0.0  # clamped exact zero
    assert rep.is_valid_emm is False


def test_counterexample_pid_check_emm_member():
    m = counterexample_trinomial()
    # a strictly positive martingale measure for these prices
    q = (1 / 16, 0.25, 3 / 16, 0.05, 0.15, 0.3)
    # oracle assertions: total mass, both conditional martingale constraints
    assert math.isclose(sum(q), 1.0, abs_tol=1e-15)
    assert abs(sum(qi * d for qi, d in zip(q, m.ds1))) < 1e-12
    assert abs(q[0] * m.ds2[0] + q[1] * m.ds2[1] + q[2] * m.ds2[2]) < 1e-12
    assert abs(q[3] * m.ds2[3] + q[4] * m.ds2[4] + q[5] * m.ds2[5]) < 1e-12
    probe = TrinomialTopModel(m.s0, m.s1_up, m.s1_down, m.s2_circ, m.s2_uu,
                              m.s2_ud, m.s2_dd, q)
    rep = counterexample_pid_check(probe)
    assert np.allclose(rep.unique_candidate, q, atol=1e-12)
    assert rep.is_valid_emm is True


def test_counterexample_pid_check_rejects_a_singular_system():
    # p0 = p3 = the smallest subnormal: the path-independence row
    # p3*w0 - p0*w3 = 0 vanishes in the elimination
    tiny = math.ulp(0.0)
    m = counterexample_trinomial()._replace(
        p=(tiny, 0.25, 0.25, tiny, 0.25, 0.25))
    with pytest.raises(NoSolution, match=(
            "^path-independence constraint system is singular$")):
        counterexample_pid_check(m)


# ------------------------------------------------- three-period strategies

# Hand-worked trend lattices: every price and probability is exact in
# binary, so each increment, q and matrix entry is an exact float.
PIN_P = (0.25, 0.125, 0.0625, 0.3125, 0.25)
PIN_LATTICES = {
    "positive": TrendLattice("positive", 100.0, 110.0, 90.0, 121.0, 99.0,
                             81.0, 133.0, 100.0, PIN_P),
    "negative": TrendLattice("negative", 100.0, 110.0, 90.0, 121.0, 99.0,
                             81.0, 72.0, 100.0, PIN_P),
}


def test_trend_lattice_pinned_values():
    pos, neg = PIN_LATTICES["positive"], PIN_LATTICES["negative"]
    assert pos.ds1 == (10.0, 10.0, -10.0, -10.0, 10.0)
    assert neg.ds1 == (10.0, 10.0, -10.0, -10.0, -10.0)
    assert pos.ds2 == (11.0, -11.0, 9.0, -9.0, 11.0)
    assert neg.ds2 == (11.0, -11.0, 9.0, -9.0, -9.0)
    assert pos.ds3 == (12.0, 0.0, 0.0, 0.0, -21.0)
    assert neg.ds3 == (0.0, 0.0, 0.0, -9.0, 19.0)
    assert pos.first_up == (True, True, False, False, True)
    assert neg.first_up == (True, True, False, False, False)
    assert pos.q == neg.q == 2.0
    assert pos.embedded_binomial().p == (0.5, 0.125, 0.0625, 0.3125)
    assert neg.embedded_binomial().p == (0.25, 0.125, 0.0625, 0.5625)
    assert trend_A_matrix(pos).tolist() == [
        [10.0, 11.0, 0.0, 12.0],
        [-10.0, 0.0, -9.0, 0.0],
        [10.0, -22.0, 9.0, 0.0],
        [10.0, 11.0, 0.0, -21.0],
    ]
    assert trend_A_matrix(neg).tolist() == [
        [10.0, 11.0, 0.0, 0.0],
        [-10.0, 0.0, -9.0, -9.0],
        [10.0, -22.0, 9.0, 0.0],
        [-10.0, 0.0, -9.0, 19.0],
    ]


@pytest.mark.parametrize("orientation", ["positive", "negative"])
@pytest.mark.parametrize("prices", [
    (100.0, 90.0, 110.0, 121.0, 99.0, 81.0),   # s_up < s0 < s_down
    (100.0, 110.0, 90.0, 105.0, 99.0, 81.0),   # s_uu below s_up
    (100.0, 110.0, 90.0, 121.0, 115.0, 81.0),  # s_ud above s_up
    (100.0, 110.0, 90.0, 121.0, 99.0, 95.0),   # s_dd above s_down
])
def test_trend_lattice_two_period_errors_are_the_binomials(orientation,
                                                           prices):
    with pytest.raises(ValueError) as binomial:
        TwoPeriodBinomial(*prices, PIN_P[:3] + (PIN_P[3] + PIN_P[4],))
    third = (133.0, 100.0) if orientation == "positive" else (72.0, 100.0)
    with pytest.raises(ValueError) as trend:
        TrendLattice(orientation, *prices, *third, PIN_P)
    assert str(trend.value) == str(binomial.value)


@pytest.mark.parametrize("orientation, s3_continue, message", [
    ("positive", 120.0, "need s3_reverse < s_uu < s3_continue"),
    ("negative", 85.0, "need s3_continue < s_dd < s3_reverse"),
])
def test_trend_lattice_rejects_a_misordered_third_leg(orientation,
                                                      s3_continue, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PIN_LATTICES[orientation]._replace(s3_continue=s3_continue)


@pytest.mark.parametrize("s_dd", [-6.0, 0.0, -0.0])
def test_binomial_rejects_an_s_dd_that_is_not_positive(s_dd):
    # the prices are ordered, so s_dd is the smallest; GBM stays above 0
    with pytest.raises(ValueError, match=r"^need s_dd > 0$"):
        TwoPeriodBinomial(10.0, 20.0, 2.0, 30.0, 12.0, s_dd, (0.25,) * 4)


@pytest.mark.parametrize("orientation, s3_continue, s3_reverse", [
    ("positive", 40.0, 5.0),
    ("negative", -9.0, 5.0),
])
def test_trend_lattice_rejects_an_s_dd_that_is_not_positive(
        orientation, s3_continue, s3_reverse):
    # through embedded_binomial(), before the third leg's own checks
    with pytest.raises(ValueError, match=r"^need s_dd > 0$"):
        TrendLattice(orientation, 10.0, 20.0, 2.0, 30.0, 12.0, -6.0,
                     s3_continue, s3_reverse, (0.2, 0.1, 0.2, 0.3, 0.2))


# ------------------------------------------------------- the checked records

CHECKED_RECORDS = {
    "binomial": sec34_binomial(),
    "trinomial": counterexample_trinomial(),
    "trend": PIN_LATTICES["positive"],
    "partition": terminal_state_partition(sec34_binomial()),
    "strategy": StrategyVector(1.0, 2.0, 3.0),
    "strategy3": StrategyVector(1.0, 2.0, 3.0, 4.0),
}


@pytest.mark.parametrize("name, field, value, message", [
    ("binomial", "s_dd", 0.0, "need s_dd > 0"),
    ("binomial", "p", (0.5, 0.5, 0.5, 0.5),
     "path probabilities must sum to 1, got 2.0"),
    ("trinomial", "s2_dd", 9.0, "need s2_dd < s1_down"),
    ("trend", "s3_continue", 120.0, "need s3_reverse < s_uu < s3_continue"),
    ("trend", "orientation", "up",
     "orientation must be 'positive' or 'negative'"),
    ("partition", "cells", (frozenset(), frozenset({0})),
     "partition cells must be nonempty"),
    ("strategy", "phi1", math.nan, "strategy components must be finite"),
    ("strategy3", "phi3", math.inf, "strategy components must be finite"),
])
def test_replace_and_make_rerun_the_checks(name, field, value, message):
    record = CHECKED_RECORDS[name]
    fields = dict(record._asdict(), **{field: value})
    for build in (lambda: type(record)(**fields),
                  lambda: record._replace(**{field: value}),
                  lambda: type(record)._make(fields.values())):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


def test_replace_normalises_like_the_constructor():
    m = sec34_binomial()._replace(p=[0.25, 0.25, 0.25, 0.25])
    assert type(m) is TwoPeriodBinomial and m.p == (0.25,) * 4
    part = terminal_state_partition(sec34_binomial())._replace(
        cells=[[0, 1], {2, 3}])
    assert part.cells == (frozenset({0, 1}), frozenset({2, 3}))


@pytest.mark.parametrize("name, text", [
    ("binomial", "TwoPeriodBinomial(s0=100.0, s_up=105.0, s_down=95.0, "
     "s_uu=110.0, s_ud=100.0, s_dd=90.0, p=(0.225, 0.3, 0.25, 0.225))"),
    ("trinomial", "TrinomialTopModel(s0=10.0, s1_up=12.0, s1_down=8.0, "
     "s2_circ=14.0, s2_uu=13.0, s2_ud=10.0, s2_dd=6.0, "
     "p=(0.15, 0.2, 0.3, 0.05, 0.1, 0.2))"),
    ("trend", "TrendLattice(orientation='positive', s0=100.0, s_up=110.0, "
     "s_down=90.0, s_uu=121.0, s_ud=99.0, s_dd=81.0, s3_continue=133.0, "
     "s3_reverse=100.0, p=(0.25, 0.125, 0.0625, 0.3125, 0.25))"),
    ("partition", "ScenarioPartition(cells=(frozenset({0}), "
     "frozenset({1, 2}), frozenset({3})))"),
])
def test_model_repr_and_frozen_fields(name, text):
    # the frozen-dataclass repr; __match_args__ names the fields of a
    # dataclass and of a named tuple alike
    record = CHECKED_RECORDS[name]
    assert repr(record) == text
    for field in record.__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1.0


def test_trend_strategy_grid_values():
    m = grid_trend_lattice(100.0, 0.05, "positive")
    psi = trend_strategy(m, alpha=0.0)
    assert psi.phi3 == pytest.approx(1.0 / (4 * 0.05 * 100.0), abs=1e-15)
    assert is_statistical_arbitrage(m, psi, trend_partition(m))


def test_trend_strategy_alpha_one_reduces():
    m = grid_trend_lattice(100.0, 0.05, "positive")
    psi = trend_strategy(m, alpha=1.0)
    base = solve_binomial_sa(m.embedded_binomial())
    assert psi.phi3 == 0.0
    assert (psi.phi1, psi.phi2_up, psi.phi2_down) == (
        base.phi1, base.phi2_up, base.phi2_down)


def test_trend_strategy_requires_positive_orientation():
    m = grid_trend_lattice(100.0, 0.05, "negative")
    with pytest.raises(ValueError):
        trend_strategy(m)


def test_trend_strategy_no_sa_boundary():
    m = grid_trend_lattice(100.0, 0.05, "positive", q=1.0)
    with pytest.raises(NoSaExists):
        trend_strategy(m)


def test_solve_three_leg_rejects_coinciding_third_leg_increments():
    m = PIN_LATTICES["positive"]
    with pytest.raises(DegenerateModel,
                       match="^third-leg increments coincide$"):
        solve_three_leg(m.ds1[:4], m.ds2[:4], 5.0, 5.0, 0.0, 2.0, True)


@pytest.mark.parametrize("positive", [True, False])
def test_solve_three_leg_names_an_alpha_whose_positions_overflow(positive):
    # psi3 = (1 - alpha) / (ds3_continue - ds3_reverse) overflows
    m = PIN_LATTICES["positive"]
    with pytest.raises(ValueError, match=r"^alpha=1e\+308 is too large: "
                                         r"the three-leg positions overflow$"):
        solve_three_leg(m.ds1[:4], m.ds2[:4], 0.25, -0.25, 1e308, 2.0,
                        positive)


def test_trend_strategy_solves_four_row_system():
    rng = np.random.default_rng(19)
    for _ in range(1000):
        m = random_trend_lattice(rng, "positive")
        alpha = float(rng.uniform(0.0, 1.5))
        try:
            psi = trend_strategy(m, alpha)
        except NoSaExists:
            continue
        a = trend_A_matrix(m)
        ref = np.linalg.solve(a, np.array([1.0, 1.0, 1.0, alpha]))
        got = np.array([psi.phi1, psi.phi2_up, psi.phi2_down, psi.phi3])
        assert np.allclose(got, ref, rtol=1e-9, atol=1e-12)
        assert np.allclose(a @ got, [1, 1, 1, alpha], atol=1e-10)


def test_gfin_strategy_both_orientations():
    rng = np.random.default_rng(20)
    for _ in range(1000):
        orient = "positive" if rng.random() < 0.5 else "negative"
        m = random_trend_lattice(rng, orient, for_dichotomy=True)
        alpha = float(rng.uniform(0.0, 1.0))
        try:
            psi = gfin_strategy(m, alpha)
        except NoSaExists:
            continue
        a = trend_A_matrix(m)
        got = np.array([psi.phi1, psi.phi2_up, psi.phi2_down, psi.phi3])
        assert np.allclose(a @ got, [1, 1, 1, alpha], atol=1e-10)
        assert is_statistical_arbitrage(m, psi, dichotomy_partition(m))


def test_gfin_strategy_gate():
    m = grid_trend_lattice(100.0, 0.05, "positive")
    above = TrendLattice("positive", m.s0, m.s_up, m.s_down, m.s_uu, m.s_ud,
                         m.s_dd, m.s3_continue, 101.0, m.p)
    with pytest.raises(ValueError):
        gfin_strategy(above)
    mn = grid_trend_lattice(100.0, 0.05, "negative")
    below = TrendLattice("negative", mn.s0, mn.s_up, mn.s_down, mn.s_uu,
                         mn.s_ud, mn.s_dd, mn.s3_continue, 99.0, mn.p)
    with pytest.raises(ValueError):
        gfin_strategy(below)


@pytest.mark.parametrize("s3_continue", [0.0, -5.0])
def test_gfin_strategy_rejects_a_third_leg_price_at_or_below_zero(
        s3_continue):
    # GBM never reaches a price <= 0, so no scenario ends there
    m = PIN_LATTICES["negative"]._replace(s3_continue=s3_continue)
    with pytest.raises(DegenerateModel, match=f"third-leg price "
                       f"{s3_continue!r} is not positive"):
        gfin_strategy(m)


def test_gfin_strategy_alpha_one_reduces():
    m = grid_trend_lattice(100.0, 0.05, "negative")
    psi = gfin_strategy(m, alpha=1.0)
    base = solve_binomial_sa(m.embedded_binomial())
    assert psi.phi3 == 0.0
    assert (psi.phi1, psi.phi2_up, psi.phi2_down) == (
        base.phi1, base.phi2_up, base.phi2_down)


def test_three_period_homogeneity():
    rng = np.random.default_rng(21)
    for _ in range(300):
        m = random_trend_lattice(rng, "positive", for_dichotomy=True)
        lam = float(rng.uniform(0.2, 5.0))
        scaled = TrendLattice(m.orientation, lam * m.s0, lam * m.s_up,
                              lam * m.s_down, lam * m.s_uu, lam * m.s_ud,
                              lam * m.s_dd, lam * m.s3_continue,
                              lam * m.s3_reverse, m.p)
        try:
            psi = gfin_strategy(m, 0.25)
        except NoSaExists:
            continue
        psi_s = gfin_strategy(scaled, 0.25)
        for a, b in ((psi_s.phi1, psi.phi1), (psi_s.phi2_up, psi.phi2_up),
                     (psi_s.phi2_down, psi.phi2_down),
                     (psi_s.phi3, psi.phi3)):
            assert a == pytest.approx(b / lam, rel=1e-9)


def test_gfin_psi_bounds():
    m = grid_trend_lattice(100.0, 0.05, "positive")
    base = solve_binomial_sa(m.embedded_binomial())
    lo, hi = gfin_psi_bounds(m, base)
    # base solves A phi = 1, so the up-up prefix gain is 1 and the interval
    # is [-1/(2 c s0), 1/(2 c s0)]
    assert lo == pytest.approx(-1.0 / (2 * 0.05 * 100.0), abs=1e-12)
    assert hi == pytest.approx(1.0 / (2 * 0.05 * 100.0), abs=1e-12)


def test_gfin_psi_bounds_degenerate_and_invalid():
    m = grid_trend_lattice(100.0, 0.05, "positive")
    zero = StrategyVector(0.0, 0.0, 0.0)
    assert gfin_psi_bounds(m, zero) == (0.0, 0.0)
    losing = StrategyVector(-1.0, 0.0, 0.0)
    with pytest.raises(InvalidBase):
        gfin_psi_bounds(m, losing)
    mn = grid_trend_lattice(100.0, 0.05, "negative")
    with pytest.raises(ValueError, match="requires the positive orientation"):
        gfin_psi_bounds(mn, zero)


# ------------------------------------------------------------- validation


def test_model_invariants_rejected():
    with pytest.raises(ValueError):
        TwoPeriodBinomial(100, 95, 105, 110, 100, 90,
                          (0.25, 0.25, 0.25, 0.25))
    with pytest.raises(ValueError):
        TwoPeriodBinomial(100, 105, 95, 104, 100, 90,
                          (0.25, 0.25, 0.25, 0.25))
    with pytest.raises(ValueError):
        TwoPeriodBinomial(100, 105, 95, 110, 100, 90, (0.5, 0.5, 0.25, 0.25))
    with pytest.raises(ValueError):
        TwoPeriodBinomial(100, 105, 95, 110, 100, 90, (0.5, 0.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        StrategyVector(float("nan"), 0.0, 0.0)
    with pytest.raises(ValueError):
        TrendLattice("sideways", 100, 105, 95, 110, 100, 90, 120, 100,
                     (0.2,) * 5)


def test_degenerate_strategy_vector_is_rejected_not_solver():
    # solver outputs are always finite on valid models
    rng = np.random.default_rng(22)
    for _ in range(200):
        m = random_binomial(rng)
        try:
            phi = solve_binomial_sa(m)
        except NoSaExists:
            continue
        assert all(math.isfinite(v) for v in
                   (phi.phi1, phi.phi2_up, phi.phi2_down))
