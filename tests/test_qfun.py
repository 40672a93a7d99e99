import math

import numpy as np
import pytest

from qortho import (
    DomainError,
    EvaluationPoint,
    NearSingular,
    ParamSet4,
    QBase,
    ReducedParams,
    TruncationPolicy,
    big_c_coeffs,
    big_c_eval,
    big_c_eval_many,
    connection_coeffs,
    cq_ultraspherical,
    diag_rhs_thm11,
    growth_root,
    h_norm,
    phi_eval,
    qpoch_finite,
    qpoch_infinite,
    weight_omega,
)
from qortho.qfun import cq_ultraspherical_many

from oracles import c_series_oracle, phi_series_oracle, ultra_recurrence_oracle


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

    def test_evaluation_point_normalizes_and_derives(self):
        pt = EvaluationPoint(2 * math.pi + 0.5)
        assert pt.theta == pytest.approx(0.5)
        assert abs(pt.x) == pytest.approx(1.0)
        assert pt.x * pt.y == pytest.approx(1.0)
        assert pt.y == pytest.approx(pt.x.conjugate())


class TestBigC:
    def test_degree_zero_is_one(self, box_params):
        assert big_c_eval(0, 0.7, box_params, 0.5) == 1.0

    def test_identity_generating_function_vanishes(self):
        # alpha = gamma, beta = delta: the generating quotient is 1
        p = ParamSet4(0.8, 0.9, 0.8, 0.9)
        for n in (1, 2, 5):
            assert abs(big_c_eval(n, 1.1, p, 0.5)) < 1e-14

    def test_matches_single_parameter_family(self):
        # gamma = delta = 1, alpha = beta reduces to the cosine-sum family
        p = ParamSet4(0.3, 0.3, 1.0, 1.0)
        theta = math.pi / 3
        assert big_c_eval(2, theta, p, 0.5) == pytest.approx(
            cq_ultraspherical(2, theta, 0.3, 0.5), rel=1e-13
        )

    def test_generating_function_oracle(self, rng):
        # coefficient extraction from the truncated power series, n <= 8
        for _ in range(12):
            p = random_paramset(rng)
            q = rng.uniform(0.1, 0.7)
            theta = rng.uniform(0.0, 2 * math.pi)
            coefs = c_series_oracle(theta, p.alpha, p.beta, p.gamma, p.delta, q, 8)
            for n in range(9):
                mine = big_c_eval(n, theta, p, q)
                assert abs(mine - coefs[n]) <= 1e-11 * max(1.0, abs(coefs[n]))

    def test_many_matches_scalar(self, box_params):
        thetas = np.linspace(0.0, 2 * math.pi, 17)
        vals = big_c_eval_many(3, thetas, box_params, 0.5)
        for theta, val in zip(thetas, vals):
            assert val == pytest.approx(big_c_eval(3, theta, box_params, 0.5), rel=1e-12)

    def test_bound_at_theta_zero_on_nonnegative_subdomain(self, rng):
        # nonnegative expansion coefficients make theta = 0 the maximum
        for _ in range(6):
            p = random_paramset(rng)
            q = rng.uniform(0.1, 0.7)
            for n in range(13):
                peak = abs(big_c_eval(n, 0.0, p, q))
                for theta in rng.uniform(0.0, 2 * math.pi, size=6):
                    assert abs(big_c_eval(n, theta, p, q)) <= peak * (1 + 1e-12)

    def test_conjugation_swaps_parameter_pairs(self, rng):
        # real parameters: conj C_n^{(a,b,g,d)} = C_n^{(b,a,d,g)}; reality
        # itself needs the symmetric case alpha=beta, gamma=delta
        for _ in range(6):
            p = random_paramset(rng)
            swapped = ParamSet4(p.beta, p.alpha, p.delta, p.gamma)
            q = rng.uniform(0.1, 0.7)
            theta = rng.uniform(0.0, 2 * math.pi)
            for n in range(7):
                lhs = np.conj(big_c_eval(n, theta, p, q))
                rhs = big_c_eval(n, theta, swapped, q)
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_real_for_symmetric_parameters(self, rng):
        for _ in range(6):
            g = rng.uniform(0.5, 1.5)
            p = ParamSet4(0.4 * g, 0.4 * g, g, g)
            q = rng.uniform(0.1, 0.7)
            theta = rng.uniform(0.0, 2 * math.pi)
            for n in range(10):
                assert abs(big_c_eval(n, theta, p, q).imag) < 1e-13 * max(
                    1.0, abs(big_c_eval(n, theta, p, q))
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
            rhs = qpoch_finite(q, q, n) * big_c_eval(n, theta, box_params, q)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_generating_function_oracle_generic_point(self):
        p = ParamSet4(0.2, 0.1, 0.9, 0.8)
        q = 0.5
        vals = phi_series_oracle(0.4, 0.7, p.alpha, p.beta, p.gamma, p.delta, q, 3)
        assert phi_eval(3, 0.4, 0.7, p, q) == pytest.approx(complex(vals[3]), rel=1e-12)


class TestUltraspherical:
    def test_degree_zero(self):
        assert cq_ultraspherical(0, 1.3, 0.3, 0.5) == 1.0

    def test_degree_one_closed_form(self):
        theta, beta, q = 0.7, 0.3, 0.5
        expected = 2 * math.cos(theta) * (1 - beta) / (1 - q)
        assert cq_ultraspherical(1, theta, beta, q) == pytest.approx(expected, rel=1e-14)

    def test_degree_two_against_recurrence(self):
        val = cq_ultraspherical(2, 1.0, 0.3, 0.5)
        assert val == pytest.approx(ultra_recurrence_oracle(2, 1.0, 0.3, 0.5), rel=1e-13)

    @pytest.mark.parametrize("beta,q", [(0.1, 0.3), (0.3, 0.5), (0.6, 0.7)])
    def test_recurrence_to_degree_30(self, beta, q):
        theta = 0.9
        for n in range(31):
            assert cq_ultraspherical(n, theta, beta, q) == pytest.approx(
                ultra_recurrence_oracle(n, theta, beta, q), rel=1e-12, abs=1e-12
            )

    def test_vectorized_agrees(self):
        thetas = np.linspace(0, math.pi, 9)
        vals = cq_ultraspherical_many(4, thetas, 0.3, 0.5)
        for theta, val in zip(thetas, vals):
            assert val == pytest.approx(cq_ultraspherical(4, theta, 0.3, 0.5), rel=1e-13)


class TestWeight:
    def test_identity_parameters_give_unit_weight(self):
        p = ParamSet4(0.8, 0.9, 0.8, 0.9)
        for theta in (0.0, 0.4, 2.2):
            assert weight_omega(theta, p, 0.5) == pytest.approx(1.0, rel=1e-14)

    def test_reflection_swaps_parameter_pairs(self, box_params):
        theta = 0.7
        swapped = ParamSet4(
            box_params.beta, box_params.alpha, box_params.delta, box_params.gamma
        )
        lhs = weight_omega(2 * math.pi - theta, box_params, 0.5)
        rhs = weight_omega(theta, swapped, 0.5)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_doubled_truncation_depth_oracle(self, box_params):
        loose = weight_omega(0.7, box_params, 0.5, TruncationPolicy(rel_tol=1e-8))
        tight = weight_omega(0.7, box_params, 0.5, TruncationPolicy(rel_tol=1e-16))
        assert loose == pytest.approx(tight, rel=1e-7)
        assert abs(tight) > 0

    def test_near_singular_weight_detected(self):
        # alpha/delta = 1: the denominator symbol vanishes at theta = 0
        p = ParamSet4(0.6, 0.1, 0.9, 0.6)
        with pytest.raises(NearSingular):
            weight_omega(0.0, p, 0.5)


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


class TestConnectionCoeffs:
    def test_degree_zero(self):
        out = connection_coeffs(0, ReducedParams(0.3, 0.5), 0.72, 0.5)
        assert out.shape == (1,)
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
            lhs = big_c_eval(2, theta, p_b, q)
            rhs = sum(
                coefs[n] * big_c_eval(n, theta, p_a, q) for n in range(0, 3, 2)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_wrong_parity_entries_vanish(self):
        out = connection_coeffs(5, ReducedParams(0.3, 0.5), 0.72, 0.5)
        assert np.allclose(out[0::2], 0.0, atol=0.0)


class TestGrowthRoot:
    def test_degree_one_exact(self, box_params):
        assert growth_root(1, box_params, 0.5) == pytest.approx(
            abs(big_c_eval(1, 0.0, box_params, 0.5))
        )

    def test_unit_scales(self):
        p = ParamSet4(0.0, 0.0, 1.0, 1.0)
        root = growth_root(200, p, 0.5)
        assert abs(root - 1.0) < 0.05

    def test_dominant_scale_recovered(self):
        p = ParamSet4(0.3 * 1.5, 0.3 * 0.5, 1.5, 0.5)
        assert abs(growth_root(200, p, 0.5) - 1.5) / 1.5 < 0.05
