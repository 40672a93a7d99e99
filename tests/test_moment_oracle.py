"""A quadrature-free reference for the circle left sides: the weight's Fourier
moments as series (:func:`oracles.weight_moment`), contracted with the
coefficients of C_m C_n (:func:`oracles.circle_lhs_from_moments`).

It shares only ``big_c_coeffs`` with the checkers, so it checks the circle
rule and the closed sides against each other, not C_n.
"""

import cmath
import time

import numpy as np
import pytest

from oracles import circle_lhs_from_moments, weight_moment, weight_oracle
from qortho import (
    ParamSet4,
    big_c_coeffs,
    check_thm_1_1,
    check_thm_1_3,
    check_ultra_ortho,
    diag_rhs_thm11,
    h_norm,
)
from qortho.verify import IdentityId, draw_params


def thm_1_1_sides(p, q, m, n):
    """THM_1_1's full-period value from the moments, the check's report, and
    the scale max(|h_m|, |h_n|)."""
    moments = circle_lhs_from_moments(big_c_coeffs(m, p, q), big_c_coeffs(n, p, q), p, q)
    scale = max(abs(diag_rhs_thm11(m, p, q)), abs(diag_rhs_thm11(n, p, q)))
    return moments, check_thm_1_1(p, q, m, n), scale


def ultra_ortho_sides(beta, q, m, n):
    p = ParamSet4(beta, beta, 1.0, 1.0)
    # the half-period rule halves the full period
    moments = circle_lhs_from_moments(big_c_coeffs(m, p, q), big_c_coeffs(n, p, q), p, q) / 2
    scale = max(abs(1.0 / h_norm(m, beta, q)), abs(1.0 / h_norm(n, beta, q)))
    return moments, check_ultra_ortho(beta, q, m, n), scale


def thm_1_3_sides(r, gamma, delta, q, m, n):
    p_a = ParamSet4.from_reduced(r.a, gamma, delta)
    p_b = ParamSet4.from_reduced(r.b, gamma, delta)
    c_m, c_n = big_c_coeffs(m, p_b, q), big_c_coeffs(n, p_a, q)
    moments = circle_lhs_from_moments(c_m, c_n, p_a, q) / 2
    # the a-family's diagonal values (gamma delta)^k / h_k(a|q)
    scale = max(abs((gamma * delta) ** k / h_norm(k, r.a, q)) for k in (m, n))
    return moments, check_thm_1_3(r, gamma, delta, q, m, n), scale


def test_the_moments_sum_to_the_weight():
    # sum_J mu_J e^{2iJ theta}, |J| <= 60, against four scalar products;
    # the terms fall like max(|alpha/delta|, |beta/gamma|)^|J|
    p, q = ParamSet4(0.3, 0.2 + 0.1j, 0.8, 1.1), 0.6
    moments = {j: weight_moment(j, p, q) for j in range(-60, 61)}
    for theta in (0.0, 0.9, 2.5, 4.4):
        total = sum(mu * cmath.exp(2j * j * theta) for j, mu in moments.items())
        assert total == pytest.approx(weight_oracle(theta, p, q), rel=1e-13)


def test_an_odd_total_degree_is_exactly_zero():
    p = ParamSet4(0.2, 0.1, 0.8, 0.9)
    assert circle_lhs_from_moments(big_c_coeffs(3, p, 0.5), big_c_coeffs(2, p, 0.5), p, 0.5) == 0


@pytest.mark.parametrize("identity, draws, sides", [
    (IdentityId.THM_1_1, 1000, thm_1_1_sides),
    (IdentityId.ULTRA_ORTHO, 300, ultra_ortho_sides),
    (IdentityId.THM_1_3, 300, thm_1_3_sides),
])
def test_the_moments_agree_with_the_closed_side_and_the_rule(identity, draws, sides):
    # seed 3, default boxes (q <= 0.7), degrees <= 6.  Over 1000 draws each
    # the worst, of the scale, was 3.0e-14 against the closed side and
    # 3.5e-13 against the rule for THM_1_1, 5.5e-13 and 5.2e-13 for
    # ULTRA_ORTHO, 1.4e-13 and 1.4e-13 for THM_1_3
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    for _ in range(draws):
        args = draw_params(identity, rng, 6)
        moments, report, scale = sides(**args)
        assert report.passed, args
        assert abs(moments - report.rhs) <= 1e-12 * scale, args
        assert abs(moments - report.lhs) <= 1e-10 * scale, args
    assert time.perf_counter() - start < 5.0


def test_the_draw_where_the_rule_is_furthest_off():
    # the moments sit 3.7e-14 of h off the closed diagonal, the rule 1.4e-11
    gamma, delta = 0.518, 1.439
    p = ParamSet4(0.514 * gamma, 0.050 * delta, gamma, delta)
    moments, report, scale = thm_1_1_sides(p, 0.681, 6, 6)
    assert report.passed
    assert abs(moments - report.rhs) <= 1e-12 * scale
    assert abs(moments - report.lhs) <= 1e-10 * scale


def test_thm_1_3_below_the_diagonal_is_zero_by_the_moments_too():
    # same parity and m < n: the closed side is exactly 0, and the moments
    # find the integral 0 as well, independently of the rule
    rng = np.random.default_rng(3)
    for _ in range(50):
        args = draw_params(IdentityId.THM_1_3, rng, 6)
        for m, n in ((0, 2), (1, 3), (0, 6), (2, 4), (3, 5), (4, 6)):
            moments, report, scale = thm_1_3_sides(**args | {"m": m, "n": n})
            assert report.passed and report.rhs == 0, args
            assert abs(moments) <= 1e-12 * scale, args
