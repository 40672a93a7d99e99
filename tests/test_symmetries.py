"""References with a known answer for the circle checks and the diagonal
norms, at complex parameters: classical closed forms and exact symmetries.

- At alpha = beta = 0 the weight is (c w, 1/(c w); q)_oo with c = gamma/delta
  and w = e^{2i theta}.  By the Jacobi triple product (Gasper & Rahman,
  *Basic Hypergeometric Series*, (1.6.1)) its constant term in w is
  2 / (q;q)_oo, so its full-period integral is 4 pi / (q;q)_oo whatever the
  phases of gamma and delta are.
- The rotation (alpha e^{i phi}, beta e^{-i phi}, gamma e^{i phi},
  delta e^{-i phi}) turns C_n(e^{i theta}) into C_n(e^{i(theta + phi)}) and
  shifts the weight by phi, so no full-period integral changes: neither
  THM_1_1's nor THM_1_2's, whose extra symbols alpha t e^{i theta},
  beta t e^{-i theta}, ... shift the same way.
- Scaling all four parameters by lambda multiplies C_n by lambda^n and
  leaves the weight alone, so THM_1_1's integral scales by lambda^{m+n}.
- At (beta, beta, 1, 1) the weight is the Rogers weight, and 1/h_n is
  Gasper & Rahman (7.4.15):
  2 pi (beta, beta q; q)_oo (1 - beta) (beta^2; q)_n
  / ((q, beta^2; q)_oo (1 - beta q^n) (q; q)_n).
- At beta = 0 it is the continuous q-Hermite weight (e^{2i theta},
  e^{-2i theta}; q)_oo, and C_n = H_n / (q;q)_n, so over the half period
  C_n C_n integrates to 2 pi / ((q;q)_n (q;q)_oo) (Gasper & Rahman (7.4.15)
  at beta = 0) and C_m C_n, m != n, to 0.

Each reference is computed here with its own plain loop, not with ``qfun``'s
products."""

import cmath
import math

import numpy as np

from qortho import ParamSet4, check_thm_1_1, check_thm_1_2, check_ultra_ortho, h_norm
from qortho.qfun import diag_rhs_thm11
from qortho.verify import IdentityId, draw_params

DRAWS = 200


def poch(a, q, n=None):
    """(a;q)_n, or with n None (a;q)_oo, by multiplying its factors until
    they are 1 in double."""
    product, w, k = 1.0, a, 0
    while (k < n) if n is not None else abs(w) > 1e-18:
        product *= 1.0 - w
        w *= q
        k += 1
    return product


def test_the_weight_at_alpha_beta_zero_integrates_to_the_jacobi_triple_product():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(DRAWS):
        gamma = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
        delta = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
        q = rng.uniform(0.0, 0.7)
        report = check_thm_1_1(ParamSet4(0, 0, gamma, delta), q, 0, 0)
        reference = 4.0 * math.pi / poch(q, q)
        assert report.passed and not report.flags, (gamma, delta, q)
        worst = max(worst, abs(report.lhs - reference) / reference)
    # 1.8e-15 measured
    assert worst <= 1e-13


def test_a_rotation_of_the_parameters_leaves_thm_1_1_unchanged():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(DRAWS):
        draw = draw_params(IdentityId.THM_1_1, rng, 6)
        p, q, m, n = draw["p"], draw["q"], draw["m"], draw["n"]
        turn = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        rotated = ParamSet4(p.alpha * turn, p.beta / turn, p.gamma * turn, p.delta / turn)
        report, turned = check_thm_1_1(p, q, m, n), check_thm_1_1(rotated, q, m, n)
        assert (turned.passed, turned.flags) == (report.passed, report.flags), draw
        # h_n depends on alpha/gamma, beta/delta and gamma delta only, which
        # the rotation keeps
        h = max(abs(diag_rhs_thm11(m, p, q)), abs(diag_rhs_thm11(n, p, q)))
        worst = max(worst, abs(turned.lhs - report.lhs) / h)
    # 7.2e-14 measured; swapping the weight's two denominator symbols moves it to 156
    assert worst <= 1e-12


def test_scaling_the_parameters_scales_thm_1_1_by_lambda_to_the_m_plus_n():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        draw = draw_params(IdentityId.THM_1_1, rng, 6)
        p, q, m, n = draw["p"], draw["q"], draw["m"], draw["n"]
        lam = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        scaled = ParamSet4(p.alpha * lam, p.beta * lam, p.gamma * lam, p.delta * lam)
        report, grown = check_thm_1_1(p, q, m, n), check_thm_1_1(scaled, q, m, n)
        assert grown.flags == report.flags, draw
        h = max(abs(diag_rhs_thm11(m, p, q)), abs(diag_rhs_thm11(n, p, q)))
        power = lam ** (m + n)
        worst = max(worst, abs(grown.lhs - power * report.lhs) / (h * abs(power)))
    # 1.6e-14 measured
    assert worst <= 1e-12


def test_a_rotation_of_the_parameters_leaves_thm_1_2_unchanged():
    rng = np.random.default_rng(5)
    worst_lhs = worst_rhs = 0.0
    for _ in range(100):
        draw = draw_params(IdentityId.THM_1_2, rng, 6)
        p, s, t, q = draw["p"], draw["s"], draw["t"], draw["q"]
        turn = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        rotated = ParamSet4(p.alpha * turn, p.beta / turn, p.gamma * turn, p.delta / turn)
        report, turned = check_thm_1_2(p, s, t, q), check_thm_1_2(rotated, s, t, q)
        assert (turned.passed, turned.flags) == (report.passed, report.flags), draw
        worst_lhs = max(worst_lhs, abs(turned.lhs - report.lhs) / abs(report.lhs))
        worst_rhs = max(worst_rhs, abs(turned.rhs - report.rhs) / abs(report.rhs))
    # 1.4e-15 and 6.3e-16 measured
    assert worst_lhs <= 1e-13 and worst_rhs <= 1e-13


def test_the_rogers_norm_is_gasper_rahman_7_4_15():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        beta = cmath.rect(rng.uniform(0.0, 0.9), rng.uniform(-math.pi, math.pi))
        q = rng.uniform(0.0, 0.95)
        n = int(rng.integers(0, 11))
        reference = (2.0 * math.pi * poch(beta, q) * poch(beta * q, q) * (1.0 - beta)
                     * poch(beta * beta, q, n)
                     / (poch(q, q) * poch(beta * beta, q) * (1.0 - beta * q ** n) * poch(q, q, n)))
        worst = max(worst, abs(1.0 / h_norm(n, beta, q) - reference) / abs(reference))
    # 7.1e-15 measured
    assert worst <= 1e-13


def test_the_continuous_q_hermite_case_has_its_closed_norm():
    # q stays at most 0.8: at q = 0.938, n = 8 the rule ends NoConvergence
    rng = np.random.default_rng(5)
    worst_lhs = worst_rhs = 0.0
    for _ in range(300):
        q = rng.uniform(0.0, 0.8)
        m, n = (int(degree) for degree in rng.integers(0, 11, size=2))
        reference = 2.0 * math.pi / (poch(q, q, n) * poch(q, q))
        diagonal = check_ultra_ortho(0.0, q, n, n)
        assert diagonal.passed and not diagonal.flags, (q, n)
        worst_lhs = max(worst_lhs, abs(diagonal.lhs - reference) / reference)
        worst_rhs = max(worst_rhs, abs(diagonal.rhs - reference) / reference)
        if m != n:
            off = check_ultra_ortho(0.0, q, m, n)
            assert off.passed and not off.flags and off.rhs == 0, (q, m, n)
    # 6.1e-11 (at q = 0.799, n = 10; the rule stops at quad.REL_TOL = 1e-10 of
    # the integrand's scale) and 2.7e-15 measured
    assert worst_lhs <= 1e-10 and worst_rhs <= 1e-13
