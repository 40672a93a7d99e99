import cmath
import math

import mpmath
import numpy as np
import pytest

from qortho import (
    DomainError,
    NearSingular,
    ParamSet4,
    ReducedParams,
    big_c_coeffs,
    connection_coeffs,
    diag_rhs_thm11,
    growth_root,
    h_norm,
    laurent_at,
    phi_eval,
    qpoch_finite,
    qpoch_infinite,
    weight_omega_many,
)
from qortho.kernels import big_c_at_one, laurent_eval, poch_product_many
from qortho.qcore import quotient_depth, tail_start
from qortho.qfun import diagonal_prefactor, expansion_weights, thm_1_2_rhs_series, weight_symbols
from qortho.verify import IdentityId, draw_params

from oracles import (c_series_oracle, mp_diag_rhs, mp_thm_1_2_rhs, phi_series_oracle,
                     ultra_recurrence_oracle, weight_oracle)


def big_c_at(n, theta, p, q):
    """C_n at one angle, as ``qortho eval big_c`` computes it."""
    return laurent_at(big_c_coeffs(n, p, q), n, theta)


def ultra_at(n, theta, beta, q):
    """The single-parameter circle polynomial at one angle, as
    ``qortho eval ultra`` computes it."""
    return laurent_at(expansion_weights(n, beta, beta, q), n, theta)


def weight_at(theta, p, q):
    return weight_omega_many([theta], p, q)[0]


def random_paramset(rng, ratio_hi=0.6, scale=(0.5, 1.5)):
    gamma = rng.uniform(*scale)
    delta = rng.uniform(*scale)
    return ParamSet4(
        rng.uniform(0.02, ratio_hi) * gamma,
        rng.uniform(0.02, ratio_hi) * delta,
        gamma,
        delta,
    )


class TestTypes:
    def test_paramset_rejects_zero_gamma(self):
        with pytest.raises(DomainError):
            ParamSet4(0.1, 0.1, 0.0, 1.0)

    def test_paramset_rejects_large_ratio(self):
        with pytest.raises(DomainError):
            ParamSet4(1.2, 0.1, 1.0, 1.0)

    def test_reduced_params_bounds(self):
        with pytest.raises(DomainError):
            ReducedParams(1.0, 0.2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("position", range(4))
    def test_paramset_rejects_non_finite(self, bad, position):
        values = [0.2, 0.1, 0.8, 0.9]
        values[position] = bad
        with pytest.raises(DomainError, match="finite"):
            ParamSet4(*values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_reduced_params_rejects_non_finite(self, bad):
        with pytest.raises(DomainError, match="finite"):
            ReducedParams(bad, 0.2)
        with pytest.raises(DomainError, match="finite"):
            ReducedParams(0.2, bad)


class TestBigC:
    def test_degree_zero_is_one(self, box_params):
        assert big_c_at(0, 0.7, box_params, 0.5) == 1.0

    def test_identity_generating_function_vanishes(self):
        # alpha = gamma, beta = delta: the generating quotient is 1
        p = ParamSet4(0.8, 0.9, 0.8, 0.9)
        for n in (1, 2, 5):
            assert abs(big_c_at(n, 1.1, p, 0.5)) < 1e-14

    def test_matches_single_parameter_family(self):
        # gamma = delta = 1, alpha = beta reduces to the cosine-sum family
        p = ParamSet4(0.3, 0.3, 1.0, 1.0)
        theta = math.pi / 3
        assert big_c_at(2, theta, p, 0.5) == pytest.approx(
            ultra_recurrence_oracle(2, theta, 0.3, 0.5), rel=1e-13
        )

    def test_generating_function_oracle(self, rng):
        # coefficient extraction from the truncated power series, n <= 8
        for _ in range(12):
            p = random_paramset(rng)
            q = rng.uniform(0.1, 0.7)
            theta = rng.uniform(0.0, 2 * math.pi)
            coefs = c_series_oracle(theta, p.alpha, p.beta, p.gamma, p.delta, q, 8)
            for n in range(9):
                mine = big_c_at(n, theta, p, q)
                assert abs(mine - coefs[n]) <= 1e-11 * max(1.0, abs(coefs[n]))

    def test_many_matches_scalar(self, box_params):
        # every entry of a 17-angle grid against the pointwise series oracle
        p = box_params
        thetas = np.linspace(0.0, 2 * math.pi, 17)
        vals = laurent_eval(big_c_coeffs(3, p, 0.5), 3, thetas)
        for theta, val in zip(thetas, vals):
            expected = c_series_oracle(theta, p.alpha, p.beta, p.gamma, p.delta, 0.5, 3)[3]
            assert val == pytest.approx(expected, rel=1e-12)

    def test_bound_at_theta_zero_on_nonnegative_subdomain(self, rng):
        # nonnegative expansion coefficients make theta = 0 the maximum
        for _ in range(6):
            p = random_paramset(rng)
            q = rng.uniform(0.1, 0.7)
            for n in range(13):
                peak = abs(big_c_at(n, 0.0, p, q))
                for theta in rng.uniform(0.0, 2 * math.pi, size=6):
                    assert abs(big_c_at(n, theta, p, q)) <= peak * (1 + 1e-12)

    def test_conjugation_swaps_parameter_pairs(self, rng):
        # real parameters: conj C_n^{(a,b,g,d)} = C_n^{(b,a,d,g)}; reality
        # itself needs the symmetric case alpha=beta, gamma=delta
        for _ in range(6):
            p = random_paramset(rng)
            swapped = ParamSet4(p.beta, p.alpha, p.delta, p.gamma)
            q = rng.uniform(0.1, 0.7)
            theta = rng.uniform(0.0, 2 * math.pi)
            for n in range(7):
                lhs = np.conj(big_c_at(n, theta, p, q))
                rhs = big_c_at(n, theta, swapped, q)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_real_for_symmetric_parameters(self, rng):
        for _ in range(6):
            g = rng.uniform(0.5, 1.5)
            p = ParamSet4(0.4 * g, 0.4 * g, g, g)
            q = rng.uniform(0.1, 0.7)
            theta = rng.uniform(0.0, 2 * math.pi)
            for n in range(10):
                assert abs(big_c_at(n, theta, p, q).imag) < 1e-13 * max(
                    1.0, abs(big_c_at(n, theta, p, q))
                )


class TestPhi:
    def test_degree_zero(self, box_params):
        assert phi_eval(0, 0.4, 0.7, box_params, 0.5) == 1.0

    def test_circle_reduction(self, box_params):
        # Phi_n(e^{i th}, e^{-i th}) = (q;q)_n C_n(e^{i th}), n <= 12
        q = 0.5
        for n in range(13):
            theta = 0.3 + 0.15 * n
            x = complex(math.cos(theta), math.sin(theta))
            lhs = phi_eval(n, x, x.conjugate(), box_params, q)
            rhs = qpoch_finite(q, q, n) * big_c_at(n, theta, box_params, q)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_generating_function_oracle_generic_point(self):
        p = ParamSet4(0.2, 0.1, 0.9, 0.8)
        q = 0.5
        vals = phi_series_oracle(0.4, 0.7, p.alpha, p.beta, p.gamma, p.delta, q, 3)
        assert phi_eval(3, 0.4, 0.7, p, q) == pytest.approx(complex(vals[3]), rel=1e-12)


class TestUltraspherical:
    def test_degree_zero(self):
        assert ultra_at(0, 1.3, 0.3, 0.5) == 1.0

    def test_degree_one_closed_form(self):
        theta, beta, q = 0.7, 0.3, 0.5
        expected = 2 * math.cos(theta) * (1 - beta) / (1 - q)
        assert ultra_at(1, theta, beta, q) == pytest.approx(expected, rel=1e-14)

    def test_degree_two_against_recurrence(self):
        val = ultra_at(2, 1.0, 0.3, 0.5)
        assert val == pytest.approx(ultra_recurrence_oracle(2, 1.0, 0.3, 0.5), rel=1e-13)

    @pytest.mark.parametrize("beta,q", [(0.1, 0.3), (0.3, 0.5), (0.6, 0.7)])
    def test_recurrence_to_degree_30(self, beta, q):
        theta = 0.9
        for n in range(31):
            assert ultra_at(n, theta, beta, q) == pytest.approx(
                ultra_recurrence_oracle(n, theta, beta, q), rel=1e-12, abs=1e-12
            )

    def test_big_c_of_beta_beta_one_one_agrees(self):
        # C_n of (beta, beta, 1, 1) is the cosine sum; ULTRA_ORTHO integrates it
        beta, q = 0.3, 0.5
        thetas = np.linspace(0, 2 * math.pi, 13)
        for n in (0, 1, 4, 7):
            vals = laurent_eval(big_c_coeffs(n, ParamSet4(beta, beta, 1.0, 1.0), q), n, thetas)
            expected = [ultra_recurrence_oracle(n, theta, beta, q) for theta in thetas]
            assert np.allclose(vals, expected, rtol=1e-13, atol=1e-13)


class TestWeight:
    def test_identity_parameters_give_unit_weight(self):
        p = ParamSet4(0.8, 0.9, 0.8, 0.9)
        for theta in (0.0, 0.4, 2.2):
            assert weight_at(theta, p, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_reflection_swaps_parameter_pairs(self, box_params):
        theta = 0.7
        swapped = ParamSet4(
            box_params.beta, box_params.alpha, box_params.delta, box_params.gamma
        )
        lhs = weight_at(2 * math.pi - theta, box_params, 0.5)
        rhs = weight_at(theta, swapped, 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_the_kernel_on_the_weight_symbols_is_the_weight(self, box_params):
        thetas = np.linspace(0, 2 * math.pi, 7)
        coefs, exps = weight_symbols(box_params)
        vals = poch_product_many(coefs, exps, 0.5, quotient_depth(coefs, 0.5), thetas, 2)
        for theta, val in zip(thetas, vals):
            assert val == pytest.approx(weight_oracle(theta, box_params, 0.5), rel=1e-13)

    def test_the_kernel_with_extra_symbols(self, box_params):
        # (c e^{i theta}; q)_oo / (d e^{i theta}; q)_oo beside the weight symbols
        c, d, q = 0.7, 0.4 + 0.2j, 0.5
        coefs, exps = weight_symbols(box_params)
        both = (c, *coefs[:2], d, *coefs[2:])
        both_exps = (1, *exps[:2], 1, *exps[2:])
        for theta in (0.0, 1.1, 4.0):
            z = complex(math.cos(theta), math.sin(theta))
            expected = (weight_oracle(theta, box_params, q) * qpoch_infinite(c * z, q)
                        / qpoch_infinite(d * z, q))
            got = poch_product_many(both, both_exps, q, quotient_depth(both, q), [theta], 3)
            assert got[0] == pytest.approx(expected, rel=1e-13)

    def test_near_singular_weight_detected(self):
        # alpha/delta = 1: the denominator symbol vanishes at theta = 0
        p = ParamSet4(0.6, 0.1, 0.9, 0.6)
        with pytest.raises(NearSingular):
            weight_at(0.0, p, 0.5)


class TestDenominatorScreens:
    def test_h_norm_at_q_near_one_is_the_product_formula(self):
        # (a, aq;q)_oo is about 2.5e-17 here, every factor at least 0.5
        a, q, n = 0.5 + 0j, 0.97 + 0j, 2
        den_inf = qpoch_infinite(a, q) * qpoch_infinite(a * q, q)
        assert abs(den_inf) < 1e-12
        num = (qpoch_infinite(q, q) * qpoch_infinite(a * a, q) * qpoch_finite(q, q, n)
               * (1 - a * q ** n))
        den = 2 * math.pi * den_inf * qpoch_finite(a * a, q, n) * (1 - a)
        assert h_norm(n, a, q) == num / den

    def test_diagonal_prefactor_at_q_near_one_is_the_product_formula(self, box_params):
        q, ra, rb = 0.95 + 0j, box_params.ratio_a, box_params.ratio_b
        den_inf = qpoch_infinite(q, q) * qpoch_infinite(ra * rb, q)
        assert abs(den_inf) < 1e-12
        expected = 2 * math.pi * qpoch_infinite(ra, q) * qpoch_infinite(rb, q) / den_inf
        assert diagonal_prefactor(box_params, q) == expected

    def test_small_factor_is_flagged(self):
        with pytest.raises(NearSingular, match=r"\(a;q\)_oo has a factor"):
            h_norm(0, 1 - 1e-13, 0.5)
        # alpha = gamma, beta = delta: ra*rb = 1 and (1;q)_oo = 0
        with pytest.raises(NearSingular, match=r"\(ra\*rb;q\)_oo has a factor"):
            diagonal_prefactor(ParamSet4(0.8, 0.9, 0.8, 0.9), 0.5)

    def test_underflowed_product_is_flagged(self, box_params):
        # (q;q)_oo at q = 0.998 is about e^-822: 0 in double precision,
        # although no factor is below 1e-12; its head has 8471 factors
        assert tail_start(0.998, 0.998) == 8471
        with pytest.raises(NearSingular, match="exactly 0"):
            diagonal_prefactor(box_params, 0.998)


class TestHNorm:
    def test_degree_zero_form(self):
        a, q = 0.3, 0.5
        expected = (
            qpoch_infinite(q, q)
            * qpoch_infinite(a * a, q)
            / (2 * math.pi * qpoch_infinite(a, q) * qpoch_infinite(a * q, q))
        )
        assert h_norm(0, a, q) == pytest.approx(expected, rel=1e-13)

    def test_consecutive_ratio(self):
        a, q = 0.3, 0.5
        for n in range(6):
            ratio = h_norm(n + 1, a, q) / h_norm(n, a, q)
            expected = ((1 - q ** (n + 1)) * (1 - a * q ** (n + 1))) / (
                (1 - a * a * q ** n) * (1 - a * q ** n)
            )
            assert ratio == pytest.approx(expected, rel=1e-12)

    def test_modulus_bound(self):
        with pytest.raises(DomainError):
            h_norm(2, 1.1, 0.5)


class TestDiagRhs:
    def test_scaling_homogeneity(self, box_params):
        # (alpha,beta,gamma,delta) -> (c*alpha, ...): value scales by (c^2)^n
        c = 1.3
        scaled = ParamSet4(
            c * box_params.alpha, c * box_params.beta,
            c * box_params.gamma, c * box_params.delta,
        )
        for n in (0, 1, 3):
            base = diag_rhs_thm11(n, box_params, 0.5)
            assert diag_rhs_thm11(n, scaled, 0.5) == pytest.approx(
                base * c ** (2 * n), rel=1e-12
            )

    def test_within_1e_14_of_the_40_digit_product_form(self):
        # the closed term against products multiplied out at 40 digits,
        # over default-box draws at degrees up to 30
        rng = np.random.default_rng(2025)
        worst = 0.0
        for _ in range(200):
            params = draw_params(IdentityId.THM_1_1, rng, 6)
            p, q = params["p"], params["q"]
            with mpmath.workdps(40):
                expected = [complex(h) for h in mp_diag_rhs(30, p, q)]
            for n, h in enumerate(expected):
                worst = max(worst, abs(diag_rhs_thm11(n, p, q) - h) / abs(h))
        assert worst < 1e-14

    def test_thm_1_2_series_is_the_generating_series_of_the_diagonal(self):
        # sum_n h_n (s t)^n; |gamma delta s t| <= 0.49, so 80 terms reach 1e-24
        rng = np.random.default_rng(2026)
        for _ in range(20):
            params = draw_params(IdentityId.THM_1_2, rng, 6)
            p, s, t, q = (params[name] for name in ("p", "s", "t", "q"))
            expected = sum(diag_rhs_thm11(n, p, q) * (s * t) ** n for n in range(80))
            assert thm_1_2_rhs_series(p, s, t, q) == pytest.approx(expected, rel=1e-13, abs=0)

    def test_thm_1_2_series_within_4e_15_of_its_40_digit_sum(self):
        # the 4phi3 against sum_n h_n (s t)^n at 40 digits, over 200 seed-1
        # default-box draws; the worst measured is 1.9e-15, about half the bound
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(200):
            p, s, t, q = draw_params(IdentityId.THM_1_2, rng, 6).values()
            with mpmath.workdps(40):
                expected = complex(mp_thm_1_2_rhs(p, s, t, q))
            worst = max(worst, abs(thm_1_2_rhs_series(p, s, t, q) - expected) / abs(expected))
        assert worst <= 4e-15

    def test_thm_1_2_series_that_rises_before_it_falls_is_summed(self):
        # inside THM_1_2's hypotheses, gamma delta s t = 0.95 at q = 0.9: the
        # 4phi3's terms rise for 28 indices, from the 1/(1 - q^{k+1}) of its
        # early ratios, and the series has no growth test; measured 3.3e-16
        p, s, t, q = ParamSet4(0.1, 0.1, 1.0, 1.0), 0.975, 0.975, 0.9
        with mpmath.workdps(40):
            expected = complex(mp_thm_1_2_rhs(p, s, t, q))
        assert abs(thm_1_2_rhs_series(p, s, t, q) - expected) <= 2e-15 * abs(expected)

    def test_five_parameter_specialization(self):
        # gamma = delta = 1: the (gamma delta)^n factor drops out
        p = ParamSet4(0.2, 0.1, 1.0, 1.0)
        q = 0.5
        for n in (0, 2):
            val = diag_rhs_thm11(n, p, q)
            expected = (
                2 * math.pi
                * qpoch_infinite(0.2, q) * qpoch_infinite(0.1, q)
                / (qpoch_infinite(q, q) * qpoch_infinite(0.02, q))
                * (1 / (1 - 0.2 * q ** n) + 1 / (1 - 0.1 * q ** n))
                * qpoch_finite(0.02, q, n) / qpoch_finite(q, q, n)
            )
            assert val == pytest.approx(expected, rel=1e-13)


class TestExpansionWeights:
    def test_an_underflowed_q_pochhammer_gives_nan_weights(self):
        # (q;q)_k underflows to 0 from k = 143 at q = 0.9999
        n, q = 150, 0.9999
        zero = [k for k in range(n + 1) if qpoch_finite(q, q, k) == 0]
        assert zero == list(range(143, n + 1))
        weights = expansion_weights(n, 0.3, 0.2, q)
        assert len(weights) == n + 1
        assert all(cmath.isnan(weights[k]) for k in range(n + 1) if k in zero or n - k in zero)
        assert weights[n // 2] == math.inf  # 1 / (q;q)_75^2 is about 1e382


class TestConnectionCoeffs:
    def test_degree_zero(self):
        out = connection_coeffs(0, ReducedParams(0.3, 0.5), 0.72, 0.5)
        assert len(out) == 1
        assert out[0] == pytest.approx(1.0, rel=1e-14)

    def test_identity_connection(self):
        # b = a: only n = m survives, with coefficient 1
        out = connection_coeffs(4, ReducedParams(0.3, 0.3), 0.9, 0.5)
        assert out[4] == pytest.approx(1.0, rel=1e-13)
        assert np.allclose(out[:4], 0.0, atol=1e-15)

    def test_zero_a_rejected(self):
        with pytest.raises(DomainError):
            connection_coeffs(2, ReducedParams(0.0, 0.5), 0.72, 0.5)

    def test_pointwise_expansion_m2(self):
        # validate against both sides at 16 angles
        a, b, gamma, delta, q = 0.3, 0.5, 0.9, 0.8, 0.5
        coefs = connection_coeffs(2, ReducedParams(a, b), gamma * delta, q)
        p_a = ParamSet4.from_reduced(a, gamma, delta)
        p_b = ParamSet4.from_reduced(b, gamma, delta)
        for theta in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            lhs = big_c_at(2, theta, p_b, q)
            rhs = sum(
                coefs[n] * big_c_at(n, theta, p_a, q) for n in range(0, 3, 2)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_wrong_parity_entries_vanish(self):
        out = connection_coeffs(5, ReducedParams(0.3, 0.5), 0.72, 0.5)
        assert np.allclose(out[0::2], 0.0, atol=0.0)


class TestBigCAtOne:
    @pytest.mark.parametrize("p", [
        ParamSet4(0.2, 0.1, 0.8, 0.9),
        ParamSet4(0.3 + 0.2j, -0.1, 1.2, 0.7 - 0.4j),
    ])
    def test_matches_pointwise_evaluation(self, p):
        vals = big_c_at_one(40, p, 0.5)
        assert vals.shape == (40,)
        for n, val in enumerate(vals):
            assert val == pytest.approx(big_c_at(n, 0.0, p, 0.5), rel=1e-13)

    def test_empty_row(self, box_params):
        assert big_c_at_one(0, box_params, 0.5).shape == (0,)


class TestGrowthRoot:
    def test_degree_one_exact(self, box_params):
        assert growth_root(1, box_params, 0.5) == pytest.approx(
            abs(big_c_at(1, 0.0, box_params, 0.5))
        )

    def test_unit_scales(self):
        p = ParamSet4(0.0, 0.0, 1.0, 1.0)
        root = growth_root(200, p, 0.5)
        assert abs(root - 1.0) < 0.05

    def test_dominant_scale_recovered(self):
        p = ParamSet4(0.3 * 1.5, 0.3 * 0.5, 1.5, 0.5)
        assert abs(growth_root(200, p, 0.5) - 1.5) / 1.5 < 0.05
