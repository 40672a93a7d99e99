import cmath
import json
import math
import time
import warnings

import numpy as np
import pytest

from qortho import (
    DomainError,
    ParamSet4,
    TruncationExceeded,
    ReducedParams,
    VerificationReport,
    big_c_coeffs,
    check_prop_2_1_2,
    check_prop_2_1_3,
    check_prop_2_2,
    check_prop_2_4,
    check_prop_3_1,
    check_qbinomial,
    check_rogers_6w5,
    check_thm_1_1,
    check_thm_1_2,
    check_thm_1_3,
    check_ultra_ortho,
    connection_coeffs,
    diag_rhs_thm11,
    h_norm,
    qpoch_finite,
    qpoch_infinite,
    run_sweep,
)
from qortho import kernels, qcore, qfun, quad, verify
from qortho.cli import _report_json
from qortho.qfun import thm_1_2_rhs_series, thm_1_3_rhs
from qortho.quad import periodic_integral
from qortho.verify import IdentityId

from oracles import json_nulls


class TestReportMechanics:
    # THM_1_1's registry tolerance is 1e-8
    def test_passed_rule_is_one_relative_test_with_rhs_above_tolerance(self):
        rep = VerificationReport("THM_1_1", {}, 10.0 + 0j, 10.0 + 1e-9j)
        assert rep.tolerance == 1e-8
        assert rep.passed and rep.rel_residual == pytest.approx(1e-10)
        rep = VerificationReport("THM_1_1", {}, 10.0 + 0j, 10.0 + 1e-6j)
        assert not rep.passed and rep.rel_residual == pytest.approx(1e-7)

    def test_passed_rule_is_one_relative_test_with_rhs_below_tolerance(self):
        # an expected-zero side is judged against the scale, not against zero
        rep = VerificationReport("THM_1_1", {}, 1e-10 + 0j, 0.0 + 0j, scale=50.0)
        assert rep.passed and rep.rel_residual == 1e-10 / 50.0
        rep = VerificationReport("THM_1_1", {}, 1e-5 + 0j, 0.0 + 0j, scale=50.0)
        assert not rep.passed and rep.rel_residual == 1e-5 / 50.0

    def test_flags_force_failure(self):
        rep = VerificationReport("THM_1_1", {}, 1.0 + 0j, 1.0 + 0j, flags=["NearSingular"])
        assert not rep.passed and rep.flags == ("NearSingular",)

    def test_flags_sort_in_flag_order(self):
        rep = VerificationReport(
            "THM_1_1", {}, verify.NAN, verify.NAN,
            flags=["DivergentSeries", "NearSingular", "DivergentSeries"]
        )
        assert rep.flags == ("NearSingular", "DivergentSeries")

    @pytest.mark.parametrize("identity", list(IdentityId))
    def test_a_check_reads_its_identitys_tolerance_when_it_is_called(self, swap_identity,
                                                                     identity):
        # seed 2's first draw of every identity passes with a nonzero residual
        record = verify.REGISTRY[identity]
        args = verify.draw_params(identity, np.random.default_rng(2), 6)
        before = record.checker(**args)
        assert before.passed and before.tolerance == record.tolerance
        assert before.rel_residual > 0.0
        for tolerance, passed in ((before.rel_residual / 2, False),
                                  (before.rel_residual * 2, True)):
            swap_identity(identity, tolerance=tolerance)
            rep = record.checker(**args)
            assert (rep.tolerance, rep.passed) == (tolerance, passed)
            assert rep.rel_residual == before.rel_residual

    def test_an_overflowed_side_fails_unflagged(self):
        rep = VerificationReport("THM_1_1", {}, complex(math.inf, 0.0), 0.0 + 0j, scale=50.0)
        assert rep.flags == () and not rep.passed

    def test_record_reads_back_from_json(self, box_params):
        # the CLI writes to_record() as JSON, every non-finite number as null
        rep = check_thm_1_1(box_params, 0.5, 1, 1)
        assert json.loads(_report_json(rep)) == rep.to_record()
        # at q = 0.999 the weight's head needs more factors than MAX_TERMS
        flagged = check_thm_1_1(box_params, 0.999, 2, 2)
        assert flagged.flags == ("TruncationExceeded",)
        rec = json.loads(_report_json(flagged))
        assert rec == json_nulls(flagged.to_record())
        for key in ("lhs_re", "rhs_re", "abs_residual", "rel_residual"):
            assert rec[key] is None, key

    def test_flattened_inputs_are_those_of_the_numpy_bound_version(self, box_params):
        # the records written while verify imported numpy at load time: a
        # checker records numpy degrees as ints
        rep = check_thm_1_1(box_params, np.float64(0.5), np.int64(1), np.int64(3))
        assert type(rep.inputs["m"]) is type(rep.inputs["n"]) is int
        flat = rep.to_record()["inputs"]
        assert flat == {"alpha_re": 0.2, "alpha_im": 0.0, "beta_re": 0.1, "beta_im": 0.0,
                        "gamma_re": 0.8, "gamma_im": 0.0, "delta_re": 0.9, "delta_im": 0.0,
                        "q_re": 0.5, "q_im": 0.0, "m": 1, "n": 3}
        assert [type(value) for value in flat.values()] == [float] * 10 + [int] * 2

    @pytest.mark.parametrize("checker, args, degree", [
        (check_thm_1_1, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, -1, 2), "m"),
        (check_thm_1_1, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 2, -1), "n"),
        (check_thm_1_3, (ReducedParams(0.3, 0.2), 0.9, 1.1, 0.5, -1, 2), "m"),
        (check_thm_1_3, (ReducedParams(0.3, 0.2), 0.9, 1.1, 0.5, 2, -1), "n"),
        (check_ultra_ortho, (0.3, 0.5, -1, 2), "m"),
        (check_ultra_ortho, (0.3, 0.5, 2, 1.0), "n"),
        (check_prop_3_1, (ReducedParams(0.3, 0.2), 0.9, 1.1, 0.5, -1), "m"),
        (check_prop_2_1_2, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, -1), "n"),
        (check_prop_2_4, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, -1, 0.7, 0.8), "n"),
        (check_prop_2_2, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, -1), "k"),
    ])
    def test_a_bad_degree_is_named(self, checker, args, degree):
        with pytest.raises(DomainError, match=f"^{degree} must be a nonnegative integer"):
            checker(*args)

    def test_prop_3_1_record_holds_the_degree_and_no_angles(self):
        rec = check_prop_3_1(ReducedParams(0.3, 0.2), 0.9, 1.1, 0.5, 3).to_record()
        assert set(rec["inputs"]) == {"a_re", "a_im", "b_re", "b_im", "gamma_re", "gamma_im",
                                      "delta_re", "delta_im", "q_re", "q_im", "m"}
        assert rec["inputs"]["m"] == 3 and type(rec["inputs"]["m"]) is int

    def test_reports_are_immutable(self, box_params):
        rep = check_thm_1_1(box_params, 0.5, 0, 0)
        with pytest.raises(AttributeError):
            rep.passed = False


class TestThm11:
    def test_off_diagonal_vanishes(self, box_params):
        rep = check_thm_1_1(box_params, 0.5, 0, 1)
        assert rep.passed
        assert rep.rhs == 0
        assert abs(rep.lhs) <= 1e-8 * max(abs(rep.lhs), rep.abs_residual, 1.0)

    def test_diagonal_zero_is_weight_integral(self, box_params):
        # m = n = 0: the integral of the bare weight equals the closed form
        rep = check_thm_1_1(box_params, 0.5, 0, 0)
        assert rep.passed
        assert rep.rhs == pytest.approx(diag_rhs_thm11(0, box_params, 0.5), rel=1e-14)

    def test_five_parameter_specialization(self):
        p = ParamSet4(0.25, 0.4, 1.0, 1.0)
        for m, n in ((0, 0), (2, 2), (1, 3)):
            rep = check_thm_1_1(p, 0.45, m, n)
            assert rep.passed, (m, n, rep.rel_residual)

    def test_near_singular_weight_flagged(self):
        # alpha/delta = 1 - 1e-13: in the domain, with a weight pole 1e-13
        # from the circle
        p = ParamSet4(0.6 * (1 - 1e-13), 0.1, 0.9, 0.6)
        rep = check_thm_1_1(p, 0.5, 0, 0)
        assert not rep.passed
        assert "NearSingular" in rep.flags

    @pytest.mark.parametrize("p, name", [
        (ParamSet4(0.6, 0.1, 0.9, 0.6), "alpha/delta"),  # a weight pole on the circle
        (ParamSet4(0.2, 0.999, 0.9, 1.0), "beta/gamma"),  # |beta/gamma| = 1.11
    ])
    def test_weight_outside_its_domain_rejected(self, p, name):
        with pytest.raises(DomainError, match=rf"\|{name}\| < 1"):
            check_thm_1_1(p, 0.5, 1, 1)


class TestFactorScreens:
    # every denominator factor is >= 0.05 here, but the products
    # (q;q)_oo and (a, aq;q)_oo fall below 1e-12 in magnitude near q = 1
    @pytest.mark.parametrize("check, args", [
        (check_thm_1_1, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.95, 2, 2)),
        (check_thm_1_2, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.4, 0.5, 0.95)),
        (check_ultra_ortho, (0.5, 0.97, 2, 2)),
        (check_thm_1_3, (ReducedParams(0.5, 0.3), 0.9, 1.1, 0.97, 2, 2)),
    ])
    def test_small_denominator_products_are_not_flagged(self, check, args):
        rep = check(*args)
        assert rep.flags == ()
        assert rep.passed, rep.rel_residual


class TestThm12:
    def test_spot_value(self, box_params):
        rep = check_thm_1_2(box_params, 0.4, 0.5, 0.5)
        assert rep.passed and rep.rel_residual <= 1e-8

    def test_s_zero_collapses_to_weight_integral(self, box_params):
        # s = 0 wipes the s-factors and the series reduces to its n=0 term,
        # which is the m = n = 0 diagonal
        rep = check_thm_1_2(box_params, 0.0, 0.5, 0.5)
        diag = check_thm_1_1(box_params, 0.5, 0, 0)
        assert rep.passed
        assert rep.lhs == pytest.approx(diag.lhs, rel=1e-10)
        assert rep.rhs == pytest.approx(diag.rhs, rel=1e-12)

    def test_swap_s_t_identicalrhs(self, box_params):
        a = thm_1_2_rhs_series(box_params, 0.4, 0.5, 0.5)
        b = thm_1_2_rhs_series(box_params, 0.5, 0.4, 0.5)
        assert a == b  # only the product s*t enters
        rep_a = check_thm_1_2(box_params, 0.4, 0.5, 0.5)
        rep_b = check_thm_1_2(box_params, 0.5, 0.4, 0.5)
        assert rep_a.lhs == pytest.approx(rep_b.lhs, rel=1e-12)
        assert rep_a.rhs == rep_b.rhs

    def test_hypothesis_violation_names_bound(self, box_params):
        with pytest.raises(DomainError, match=r"\|gamma\*s\|"):
            check_thm_1_2(box_params, 1.5, 0.5, 0.5)


class TestThm13:
    def test_opposite_parity_vanishes(self):
        r = ReducedParams(0.3, 0.5)
        rep = check_thm_1_3(r, 0.9, 1.1, 0.5, 1, 0)
        assert rep.passed and rep.rhs == 0

    def test_closed_form_spot(self):
        # m = 2, n = 0 against the displayed product form
        r = ReducedParams(0.3, 0.5)
        rep = check_thm_1_3(r, 0.9, 1.1, 0.5, 2, 0)
        assert rep.passed and rep.rel_residual <= 1e-8
        expected = thm_1_3_rhs(r, 0.9, 1.1, 0.5, 2, 0)
        assert rep.rhs == expected

    def test_same_family_diagonal(self):
        # b = a, m = n: the diagonal equals (gamma delta)^n / h_n
        a, gamma, delta, q, n = 0.3, 0.9, 1.1, 0.5, 2
        rep = check_thm_1_3(ReducedParams(a, a), gamma, delta, q, n, n)
        assert rep.passed
        assert rep.rhs == pytest.approx((gamma * delta) ** n / h_norm(n, a, q), rel=1e-12)

    def test_closed_form_matches_the_displayed_product(self):
        # (gd)^n (1 - a q^n) (b/a;q)_j (b;q)_{(m+n)/2} (a gd)^j
        #   / ((1 - a) h_n(a|q) (q;q)_j (a q;q)_{(m+n)/2}),  j = (m-n)/2
        a, b, gamma, delta, q = 0.3, 0.5, 0.9, 1.1, 0.5
        gd = gamma * delta
        for m, n in ((0, 0), (2, 0), (3, 1), (4, 4), (6, 2)):
            j, half = (m - n) // 2, (m + n) // 2
            expected = (
                gd ** n * (1 - a * q ** n) * qpoch_finite(b / a, q, j)
                * qpoch_finite(b, q, half) * (a * gd) ** j
                / ((1 - a) * h_norm(n, a, q) * qpoch_finite(q, q, j)
                   * qpoch_finite(a * q, q, half))
            )
            got = thm_1_3_rhs(ReducedParams(a, b), gamma, delta, q, m, n)
            assert got == pytest.approx(expected, rel=1e-13)

    def test_zero_a_rejected(self):
        # the closed form divides by a; a ZeroDivisionError used to escape
        with pytest.raises(DomainError, match="a must be nonzero"):
            check_thm_1_3(ReducedParams(0.0, 0.3), 1.0, 1.0, 0.5, 2, 0)

    def test_m_below_n_same_parity_checks_the_zero(self):
        # the b-family's degree 0 expands in a-family degrees <= 0, each
        # orthogonal to degree 2, so the closed side is exactly 0
        rep = check_thm_1_3(ReducedParams(0.3, 0.5), 0.9, 1.1, 0.5, 0, 2)
        assert rep.passed and rep.rhs == 0

    def test_weight_regularity_guard(self):
        # |a gamma/delta| >= 1 is outside the weight's regular domain
        with pytest.raises(DomainError, match="a\\*gamma/delta"):
            check_thm_1_3(ReducedParams(0.6, 0.2), 1.5, 0.5, 0.5, 1, 1)

    @pytest.mark.parametrize("m, n, named", [(2.5, 0.5, "m"), (2, -2, "n"), (4, 2.0, "n"),
                                             ("2", 0, "m")])
    def test_the_closed_form_checks_its_degrees(self, m, n, named):
        # a float degree used to reach int_power as a TypeError
        with pytest.raises(DomainError, match=f"^{named} must be a nonnegative integer"):
            thm_1_3_rhs(ReducedParams(0.3, 0.2), 0.9, 1.1, 0.5, m, n)


class TestProp31:
    def test_degree_zero_identity(self):
        rep = check_prop_3_1(ReducedParams(0.3, 0.5), 0.9, 1.1, 0.5, 0)
        assert rep.passed

    def test_identity_connection(self):
        rep = check_prop_3_1(ReducedParams(0.4, 0.4), 0.9, 1.1, 0.5, 5)
        assert rep.passed

    def test_degree_three_spot(self):
        rep = check_prop_3_1(ReducedParams(0.3, 0.5), 0.9, 1.1, 0.5, 3)
        assert rep.passed and rep.rel_residual <= 1e-9

    def test_a_coefficient_error_that_vanishes_at_16_angles_fails(self, monkeypatch):
        # eps (z^8 - 1) in z = e^{2i theta}, added to degree 8 of the b-family,
        # is 2i eps sin(8 theta): zero at every angle 2 pi j / 16
        r, gamma, delta, q = ReducedParams(0.3, 0.2), 0.9, 1.1, 0.5
        p_b = ParamSet4.from_reduced(r.b, gamma, delta)
        build = verify.big_c_coeffs

        def perturbed(n, p, q):
            coefs = build(n, p, q)
            if p == p_b:
                coefs[0] -= 1.0
                coefs[-1] += 1.0
            return coefs

        thetas = 2 * math.pi * np.arange(16) / 16
        assert np.max(np.abs(kernels.laurent_eval([-1.0, *[0.0] * 7, 1.0], 8, thetas))) < 1e-13
        assert check_prop_3_1(r, gamma, delta, q, 8).passed
        monkeypatch.setattr(verify, "big_c_coeffs", perturbed)
        rep = check_prop_3_1(r, gamma, delta, q, 8)
        assert not rep.passed
        assert rep.abs_residual == pytest.approx(1.0)

    def test_a_nan_coefficient_fails_wherever_it_sits(self):
        # gamma^4 overflows to inf, so coefficient 4 of both sides is NaN
        # while coefficients 0-3 are finite and agree
        rep = check_prop_3_1(ReducedParams(0.3, 0.2), 1e100, 1e-100, 0.5, 4)
        assert not rep.passed
        assert math.isnan(rep.abs_residual)

    def test_coefficients_bound_both_sides_at_random_angles(self):
        # complex parameters; the sides at any angle differ by at most the
        # sum of the m+1 coefficient residuals, each at most the reported one
        r = ReducedParams(0.3 + 0.2j, -0.4 + 0.1j)
        gamma, delta, q = 0.9 - 0.3j, 1.1 + 0.2j, 0.5 + 0.1j
        p_a, p_b = (ParamSet4.from_reduced(x, gamma, delta) for x in (r.a, r.b))
        thetas = np.random.default_rng(31).uniform(0.0, 2 * math.pi, 9)
        for m in range(31):
            rep = check_prop_3_1(r, gamma, delta, q, m)
            coeffs = connection_coeffs(m, r, gamma * delta, q)
            lhs = kernels.laurent_eval(big_c_coeffs(m, p_b, q), m, thetas)
            rhs = sum(coeffs[n] * kernels.laurent_eval(big_c_coeffs(n, p_a, q), n, thetas)
                      for n in range(m % 2, m + 1, 2))
            size = np.sum(np.abs(big_c_coeffs(m, p_b, q)))
            assert rep.passed, (m, rep.rel_residual)
            assert np.max(np.abs(lhs - rhs)) <= (m + 1) * rep.abs_residual + 1e-13 * size, m

    @pytest.mark.parametrize("check", [
        lambda: check_prop_3_1(ReducedParams(0.3, 0.2), 0.9, 1.1, 0.5, 2.5),
        lambda: check_ultra_ortho(0.3, 0.5, 2.0, 2),
        lambda: check_thm_1_1(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 1, 1.0),
        lambda: check_prop_2_1_2(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 1.5),
        lambda: check_prop_2_1_3(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 0),
        lambda: check_prop_2_2(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, k=1.0),
        lambda: check_prop_2_4(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 2.0, 1.0, 0.6),
    ])
    def test_a_degree_that_is_not_a_nonnegative_integer_is_a_domain_error(self, check):
        with pytest.raises(DomainError, match="must be a (nonnegative|positive) integer"):
            check()


class TestOnlyDomainErrorEscapes:
    """Input a closed form cannot take is a DomainError; an overflow on the
    way is a report flag.  Each case once raised another exception."""

    @pytest.mark.parametrize("check, message", [
        (lambda: check_prop_2_1_2(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 3, 1j),
         "theta must be real"),
    ])
    def test_a_malformed_argument_is_a_domain_error_not_a_type_error(self, check, message):
        with pytest.raises(DomainError, match=message):
            check()

    @pytest.mark.parametrize("check, message", [
        # gamma = 0: the weight moduli would divide by it
        (lambda: check_thm_1_3(ReducedParams(0.5, 0.0), 0.0, 1.0, 0.5, 0, 0),
         "gamma and delta must be nonzero"),
        # c d = 0.4 * 5e-324 underflows to 0, and the closed form divides by it
        (lambda: check_rogers_6w5(0.25, 0.3, 0.4, 5e-324, 0.4), "products nonzero"),
        # ra*rb = 1: (ra*rb; q)_{n+k} vanishes in the majorant's denominator
        (lambda: check_prop_2_2(ParamSet4(0.9, 0.8, 0.9, 0.8), 0.5, 1), "must not be 1"),
    ])
    def test_an_input_the_closed_form_divides_by_zero_on_is_a_domain_error(self, check,
                                                                           message):
        with pytest.raises(DomainError, match=message):
            check()

    def test_an_overflowing_lattice_endpoint_ratio_is_a_truncation_flag(self):
        # gamma x = 5e-324 makes q delta y / (gamma x) infinite
        rep = check_prop_2_4(ParamSet4(0.0, 0.0, 1.0, 1.0), 0.5, 0, 5e-324, 1.0)
        assert rep.flags == ("TruncationExceeded",) and not rep.passed


class TestUltraOrtho:
    def test_off_diagonal(self):
        rep = check_ultra_ortho(0.3, 0.5, 1, 2)
        assert rep.passed and rep.rhs == 0

    def test_diagonal_degree_zero(self):
        rep = check_ultra_ortho(0.3, 0.5, 0, 0)
        assert rep.passed
        assert rep.rhs == pytest.approx(1.0 / h_norm(0, 0.3, 0.5), rel=1e-13)

    def test_beta_zero_specialization(self):
        for n in (0, 1, 3):
            rep = check_ultra_ortho(0.0, 0.5, n, n)
            assert rep.passed
            assert rep.rhs == pytest.approx(1.0 / h_norm(n, 0.0, 0.5), rel=1e-13)

    @pytest.mark.parametrize("beta", [1.0, -1.0, 1j])
    def test_unit_beta_is_outside_the_weight_domain(self, beta):
        # |beta| = 1 puts a pole of the weight on the circle
        with pytest.raises(DomainError, match="\\|beta\\| < 1"):
            check_ultra_ortho(beta, 0.5, 2, 2)


class TestCircleIntegrand:
    @pytest.mark.parametrize("check, args", [
        (check_thm_1_1, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 2, 2)),
        (check_thm_1_2, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.4, 0.5, 0.5)),
        (check_thm_1_3, (ReducedParams(0.3, 0.5), 0.9, 1.1, 0.5, 2, 0)),
        (check_ultra_ortho, (0.3, 0.5, 2, 2)),
    ])
    def test_weight_is_screened_once_per_check(self, monkeypatch, check, args):
        calls = []
        screen = qfun.weight_min_denominator

        def counted(*a, **kw):
            calls.append(a)
            return screen(*a, **kw)

        monkeypatch.setattr(qfun, "weight_min_denominator", counted)
        assert check(*args).passed
        assert len(calls) == 1

    @staticmethod
    def spy_grids(monkeypatch):
        """Record the angle count of every kernel call and quadrature grid,
        and every QuadResult and pole pair, of the circle checks that follow."""
        seen = {"poch": [], "laurent": [], "grid": [], "result": [], "poles": [],
                "kmax": set(), "split": set()}
        poch, laurent = kernels.poch_product_many, kernels.laurent_eval

        def spy_poch(coefs, exps, q, kmax, thetas, split):
            seen["poch"].append((tuple(exps), len(thetas)))
            seen["kmax"].add(kmax)
            seen["split"].add(split)
            return poch(coefs, exps, q, kmax, thetas, split)

        def spy_laurent(coefs, n, thetas):
            seen["laurent"].append((n, len(thetas)))
            return laurent(coefs, n, thetas)

        def spy_integral(f, *, poles):
            def counted(thetas):
                seen["grid"].append(len(thetas))
                return f(thetas)

            seen["poles"].append(poles)
            result = periodic_integral(counted, poles=poles)
            seen["result"].append(result)
            return result

        monkeypatch.setattr(kernels, "poch_product_many", spy_poch)
        monkeypatch.setattr(kernels, "laurent_eval", spy_laurent)
        monkeypatch.setattr(quad, "periodic_integral", spy_integral)
        return seen

    @pytest.mark.parametrize("check, args", [
        (check_thm_1_1, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 2, 3)),
        (check_thm_1_3, (ReducedParams(0.3, 0.5), 0.9, 1.1, 0.5, 2, 0)),
        (check_ultra_ortho, (0.3, 0.5, 2, 2)),
    ])
    def test_weight_is_evaluated_on_half_of_each_grid(self, monkeypatch, check, args):
        seen = self.spy_grids(monkeypatch)
        assert check(*args).passed
        grids = seen["grid"]
        # the first grid holds the first two quadrature levels
        assert grids[0] == 2 * quad.START_NODES
        # one quotient call per grid, numerator and denominator together,
        # on the first half of the grid
        assert [n for _, n in seen["poch"]] == [n // 2 for n in grids]
        assert {exps for exps, _ in seen["poch"]} == {(2, -2, 2, -2)}
        assert seen["split"] == {2}
        # C_m C_n is one Laurent sum of degree m + n on the whole grid
        m, n = args[-2:]
        assert seen["laurent"] == [(m + n, size) for size in grids]

    def test_check_settling_at_128_nodes_makes_one_integrand_call(self, monkeypatch):
        seen = self.spy_grids(monkeypatch)
        assert check_thm_1_1(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 2, 3).passed
        assert seen["result"][0].nodes == 128
        assert seen["grid"] == [128]
        # one kernel call for the weight quotient over 64 angles, one Laurent
        # evaluation of C_2 C_3 over all 128
        assert [n for _, n in seen["poch"]] == [64]
        assert seen["laurent"] == [(5, 128)]

    def test_a_check_that_no_8192_node_rule_settles_is_flagged(self, monkeypatch):
        # |beta| = 0.9239, beyond the sweep box, and q = 0.8026: from 512
        # nodes on, successive levels differ by 1.5e-8 to 1.5e-7 of the value,
        # rounding that no finer grid removes, so none meets the stop
        seen = self.spy_grids(monkeypatch)
        rep = check_ultra_ortho(-0.9239, 0.8026, 6, 6)
        assert rep.flags == ("NoConvergence",) and not rep.passed
        assert seen["result"][0].nodes == sum(seen["grid"]) == quad.MAX_NODES == 8192
        assert not seen["result"][0].converged

    @pytest.mark.parametrize("check, args", [
        (check_thm_1_1, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.999, 2, 2)),
        (check_thm_1_2, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.4, 0.5, 0.999)),
        (check_thm_1_3, (ReducedParams(0.5, 0.3), 0.9, 1.1, 0.999, 2, 2)),
        (check_ultra_ortho, (0.5, 0.999, 2, 2)),
    ])
    def test_depth_beyond_max_terms_is_flagged_before_quadrature(self, monkeypatch, check,
                                                                 args):
        # 17600-17900 head factors for the largest symbol at q = 0.999, against a
        # cap of 10000
        def no_quadrature(*_):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(quad, "periodic_integral", no_quadrature)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            rep = check(*args)
            elapsed = time.perf_counter() - start
        assert rep.flags == ("TruncationExceeded",)
        assert not rep.passed
        assert elapsed < 0.1
        assert caught == []

    @pytest.mark.parametrize("check, args", [
        (check_thm_1_1, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 1, 1)),
        (check_thm_1_2, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.4, 0.5, 0.5)),
        (check_thm_1_3, (ReducedParams(0.5, 0.3), 0.9, 1.1, 0.5, 2, 2)),
        (check_ultra_ortho, (0.5, 0.5, 2, 2)),
    ])
    def test_a_check_reads_max_terms_when_it_is_called(self, monkeypatch, check, args):
        # each passes at the default cap; at q = 0.5 its widest product needs
        # more than 10 head factors, so a cap of 10 set after import flags it
        assert check(*args).passed

        def no_quadrature(*_):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(qcore, "MAX_TERMS", 10)
        monkeypatch.setattr(quad, "periodic_integral", no_quadrature)
        rep = check(*args)
        assert rep.flags == ("TruncationExceeded",)
        assert not rep.passed

    @pytest.mark.parametrize("cap, grids", [(128, [128]), (256, [128, 128]),
                                            (1024, [128, 128, 256, 512])])
    def test_a_check_reads_the_node_cap_when_it_is_called(self, monkeypatch, cap, grids):
        # a stop no level meets, so the rule refines up to the cap it reads
        seen = self.spy_grids(monkeypatch)
        monkeypatch.setattr(quad, "MAX_NODES", cap)
        monkeypatch.setattr(quad, "REL_TOL", 1e-300)
        rep = check_thm_1_1(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 2, 3)
        assert rep.flags == ("NoConvergence",) and not rep.passed
        assert seen["grid"] == grids
        assert seen["result"][0].nodes == sum(grids) == cap
        assert not seen["result"][0].converged

    def test_thm_1_2_extra_symbols_stay_on_the_whole_grid(self, monkeypatch):
        seen = self.spy_grids(monkeypatch)
        assert check_thm_1_2(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.4, 0.5, 0.5).passed
        by_exps = {}
        for exps, n in seen["poch"]:
            by_exps.setdefault(exps, []).append(n)
        grids = seen["grid"]
        assert by_exps == {(1, -1, 1, -1, 1, -1, 1, -1): grids,
                           (2, -2, 2, -2): [n // 2 for n in grids]}
        assert seen["split"] == {4, 2}
        assert seen["laurent"] == []
        assert len(seen["kmax"]) == 1  # one truncation depth for all symbols

    @pytest.mark.parametrize("check, args, nodes", [
        (check_thm_1_3, (ReducedParams(0.3, 0.5), 0.9, 1.1, 0.5, 2, 0), 128),
        # odd m + n: the halved value is 0 by f(theta + pi) = -f(theta) alone
        (check_thm_1_3, (ReducedParams(0.3, 0.5), 0.7, 1.2, 0.4, 3, 2), 128),
        (check_thm_1_3, (ReducedParams(-0.4, 0.6), 0.8, 1.3, 0.6, 6, 4), 256),
        (check_ultra_ortho, (0.3, 0.5, 2, 2), 128),
        (check_ultra_ortho, (-0.6, 0.7, 5, 3), 256),
        (check_ultra_ortho, (0.85, 0.6, 7, 7), 256),
    ])
    def test_a_half_period_check_reports_half_the_full_period_rule(self, monkeypatch, check,
                                                                    args, nodes):
        # the rule integrates over [0, 2 pi); the half-period identities
        # report half its value and half its scale, exactly
        seen = self.spy_grids(monkeypatch)
        rep = check(*args)
        (result,) = seen["result"]
        assert rep.passed and result.converged and result.nodes == nodes
        assert (rep.lhs.real, rep.lhs.imag) == (result.value.real / 2, result.value.imag / 2)
        scale = max(abs(rep.lhs), abs(rep.rhs), result.fscale / 2)
        assert result.fscale / 2 > max(abs(rep.lhs), abs(rep.rhs))
        assert rep.rel_residual == rep.abs_residual / scale

    def test_thm_1_2_extra_symbols_never_set_the_depth(self):
        # one weight numerator, gamma/delta or delta/gamma, has modulus >= 1,
        # while the hypothesis puts every extra symbol below 1, since
        # |alpha t| = |alpha/gamma| |gamma t|: so the weight's coefficients
        # alone give the depth of the whole integrand, up to the moduli's edge
        rng = np.random.default_rng(37)
        edge = 1.0 - 1e-9
        modulus = lambda: edge if rng.random() < 0.5 else rng.uniform(0.0, edge)
        phase = lambda: cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))

        def depth(symbols, q):
            # a |q| at the edge needs more than MAX_TERMS factors
            try:
                return qcore.quotient_depth(symbols, q)
            except TruncationExceeded as exc:
                return str(exc)

        depths = []
        for _ in range(2000):
            gamma, delta = rng.uniform(0.2, 3.0) * phase(), rng.uniform(0.2, 3.0) * phase()
            p = ParamSet4(modulus() * phase() * gamma, modulus() * phase() * delta, gamma, delta)
            big = max(abs(gamma), abs(delta))
            s, t = modulus() / big * phase(), modulus() / big * phase()
            q = qcore.as_base(modulus() * phase())
            assert max(verify._thm_1_2_moduli(p, s, t, q).values()) < 1.0
            coefs, _ = qfun.weight_symbols(p)
            extra = (p.alpha * t, p.beta * t, p.alpha * s, p.beta * s,
                     p.gamma * t, p.delta * t, p.gamma * s, p.delta * s)
            depths.append(depth(coefs, q))
            assert depths[-1] == depth((*extra, *coefs), q)
        assert len({d for d in depths if isinstance(d, int)}) > 100

    @pytest.mark.parametrize("check, args, poles", [
        (check_thm_1_1, (ParamSet4(0.92, 0.3, 1.0, 1.0), 0.3, 3, 3), (0.92, 0.3)),
        (check_thm_1_3, (ReducedParams(0.3, 0.5), 0.9, 1.1, 0.5, 2, 0), (0.3 * 0.9 / 1.1,
                                                                          0.3 * 1.1 / 0.9)),
        (check_ultra_ortho, (0.3, 0.5, 2, 2), (0.3, 0.3)),
    ])
    def test_the_weight_denominator_symbols_are_the_rule_s_poles(self, monkeypatch, check,
                                                                  args, poles):
        seen = self.spy_grids(monkeypatch)
        assert check(*args).passed
        assert seen["poles"] == [pytest.approx(poles, rel=1e-15)]

    @pytest.mark.parametrize("p, s, t, q, name", [
        (ParamSet4(0.9, 0.05, 1.0, 0.5), 0.5, 0.4, 0.5, "alpha/delta"),  # 1.8
        (ParamSet4(0.6, 0.3, 0.7, 0.4), 0.9, 0.5, 0.3, "alpha/delta"),  # 1.5
        (ParamSet4(0.05, 0.9, 0.5, 1.0), 0.5, 0.4, 0.5, "beta/gamma"),  # 1.8
    ])
    def test_thm_1_2_requires_a_regular_weight(self, monkeypatch, p, s, t, q, name):
        # with such a weight the circle integral is not the closed form: the
        # first two miss it by rel 2.8e-3 and 4.2e-2
        def no_quadrature(*_, **__):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(quad, "periodic_integral", no_quadrature)
        with pytest.raises(DomainError, match=rf"\|{name}\| < 1"):
            check_thm_1_2(p, s, t, q)

    @pytest.mark.parametrize("identity, nodes", [
        ("THM_1_1", 40960), ("THM_1_2", 44416), ("THM_1_3", 40448), ("ULTRA_ORTHO", 38528),
    ])
    def test_sweep_node_totals(self, monkeypatch, identity, nodes):
        # pins the cost of the rule: a change that spends more nodes on the
        # default sweep shows here even when every draw still passes
        seen = self.spy_grids(monkeypatch)
        reports = run_sweep(identity, 1, 300)
        assert all(rep.passed for rep in reports)
        assert sum(result.nodes for result in seen["result"]) == nodes

    def test_a_weight_pole_near_the_circle_settles_at_128_nodes(self, monkeypatch):
        # |alpha/delta| = 0.92: the plain rule converges like 0.92^(n/2)
        p = ParamSet4(0.92, 0.3, 1.0, 1.0)
        seen = self.spy_grids(monkeypatch)
        corrected = check_thm_1_1(p, 0.3, 3, 3)
        assert corrected.passed
        assert seen["result"][0].nodes == 128

        def plain(f, *, poles):
            seen["result"].append(periodic_integral(f))
            return seen["result"][-1]

        monkeypatch.setattr(quad, "periodic_integral", plain)
        assert check_thm_1_1(p, 0.3, 3, 3).passed
        assert seen["result"][1].nodes >= 1024
        assert abs(corrected.lhs - seen["result"][1].value) <= 1e-13 * abs(corrected.rhs)

    def test_seed_0_draws_converge_by_256_nodes(self, monkeypatch):
        seen = self.spy_grids(monkeypatch)
        record = verify.REGISTRY[IdentityId.THM_1_1]
        rng = np.random.default_rng(0)
        for _ in range(3):
            assert record.checker(**verify.draw_params(record.id, rng, 6)).passed
        assert [(r.converged, r.nodes <= 256) for r in seen["result"]] == [(True, True)] * 3

    def test_the_kernel_gets_the_arrays_of_the_triple_packing_bit_for_bit(self, monkeypatch):
        # the symbols were once (numerators, denominators, exponents) triples,
        # packed into one call as below; the one layout must hand the kernel
        # the same arrays, head depth and split
        def packed(num, den, exps):
            return (np.array((*num, *den), dtype=np.complex128),
                    np.array((*exps, *exps), dtype=np.float64), len(num))

        calls = []
        poch = kernels.poch_product_many

        def spy(coefs, exps, q, kmax, thetas, split):
            calls.append((coefs, exps, q, kmax, split))
            return poch(coefs, exps, q, kmax, thetas, split)

        monkeypatch.setattr(kernels, "poch_product_many", spy)
        record = verify.REGISTRY[IdentityId.THM_1_2]
        rng = np.random.default_rng(33)
        for _ in range(200):
            args = verify.draw_params(record.id, rng, 6)
            p, s, t, q = args["p"], args["s"], args["t"], qcore.as_base(args["q"])
            own = (p.gamma / p.delta, p.delta / p.gamma), (p.alpha / p.delta, p.beta / p.gamma)
            symbols = ((p.alpha * t, p.beta * t, p.alpha * s, p.beta * s),
                       (p.gamma * t, p.delta * t, p.gamma * s, p.delta * s))
            weight, extra = packed(*own, (2, -2)), packed(*symbols, (1, -1, 1, -1))
            kmax = qcore.quotient_depth((*symbols[0], *symbols[1], *own[0], *own[1]), q)
            calls.clear()
            record.checker(**args)
            assert {split for *_, split in calls} == {2, 4}
            for coefs, exps, q_arg, kmax_arg, split in calls:
                want = weight if split == 2 else extra
                assert (coefs.dtype, exps.dtype) == (want[0].dtype, want[1].dtype)
                assert coefs.tobytes() == want[0].tobytes()
                assert exps.tobytes() == want[1].tobytes()
                assert type(q_arg) is complex
                assert (q_arg, kmax_arg, split) == (q, kmax, want[2])

    @pytest.mark.parametrize("identity", ["THM_1_1", "THM_1_3", "ULTRA_ORTHO"])
    def test_high_degrees_agree_with_a_fixed_2048_node_rule(self, monkeypatch, identity):
        # doubling from 64 nodes must not stop early on C_m C_n of degree up
        # to 60: the default rule against the 2048-node one, which the rule
        # started at 1024 nodes and capped at 2048 ends on
        seen = self.spy_grids(monkeypatch)
        record = verify.REGISTRY[IdentityId(identity)]
        rng = np.random.default_rng(5)
        draws = [verify.draw_params(record.id, rng, 30) for _ in range(6)]
        for args in draws + [draws[0] | {"m": 30, "n": 30}]:
            rep = record.checker(**args)
            scale = max(abs(rep.lhs), abs(rep.rhs), seen["result"][-1].fscale)
            with monkeypatch.context() as fixed:
                fixed.setattr(quad, "START_NODES", 1024)
                fixed.setattr(quad, "MAX_NODES", 2048)
                exact = record.checker(**args)
            assert seen["result"][-1].nodes == 2048
            assert rep.passed, (args, rep.rel_residual)
            assert abs(rep.lhs - exact.lhs) <= 1e-12 * scale, args


class TestSeriesCheckers:
    def test_rogers(self):
        rep = check_rogers_6w5(0.2, 0.5, 0.6, 0.7, 0.5)
        assert rep.passed and rep.rel_residual <= 1e-9

    def test_qbinomial(self):
        rep = check_qbinomial(0.3, 0.4, 0.5)
        assert rep.passed and rep.rel_residual <= 1e-11

    def test_prop_2_1_2(self, box_params):
        rep = check_prop_2_1_2(box_params, 0.5, 9, 1.2)
        assert rep.passed and rep.rel_residual <= 1e-12

    def test_prop_2_1_3(self):
        p = ParamSet4(0.45, 0.15, 1.5, 0.5)
        rep = check_prop_2_1_3(p, 0.5)
        assert rep.passed and rep.rel_residual <= 0.05

    def test_prop_2_1_3_at_large_degree(self):
        # a degree where C_n(1) itself overflows: a finite lhs and a plain pass
        rep = check_prop_2_1_3(ParamSet4(0.2, 0.1, 1.2, 1.1), 0.5, n=5000)
        assert rep.passed and rep.flags == ()
        assert rep.rel_residual < 1e-3

    def test_prop_2_2_tail(self, box_params):
        rep = check_prop_2_2(box_params, 0.5, k=3)
        assert rep.passed
        assert rep.abs_residual <= 1e-10 * rep.inputs.get("partial_terms", 1e300)

    def test_prop_2_2_reports_its_fixed_majorant(self, box_params):
        rep = check_prop_2_2(box_params, 0.5, 1)
        assert {key: rep.inputs[key] for key in ("t_fraction", "partial_terms", "tail_terms")} \
            == {"t_fraction": 0.9, "partial_terms": 200, "tail_terms": 100}

    def test_prop_2_2_negative_k_is_named(self, box_params):
        with pytest.raises(DomainError, match="^k must be a nonnegative integer"):
            check_prop_2_2(box_params, 0.5, k=-1)

    @pytest.mark.parametrize("bcd", [(0.0, 0.6, 0.7), (0.5, 0.0, 0.7), (0.5, 0.6, 0j)])
    def test_rogers_with_a_zero_denominator_parameter_is_out_of_domain(self, bcd):
        # z = a q/(b c d) would divide by zero
        with pytest.raises(DomainError, match="nonzero"):
            check_rogers_6w5(0.1, *bcd, 0.5)

    def test_prop_2_4(self, box_params):
        rep = check_prop_2_4(box_params, 0.5, 2, 1.0, 0.6)
        assert rep.passed and rep.rel_residual <= 1e-10

    def test_prop_2_4_with_zero_gamma_x_is_out_of_domain(self):
        # the screen's base q delta y/(gamma x) would divide by zero
        with pytest.raises(DomainError, match="gamma \\* x must be nonzero"):
            check_prop_2_4(ParamSet4(0.08, 0.18, 0.8, 0.9), 0.5, 3, 0.0, 0.9)

    @pytest.mark.parametrize(
        "check, args",
        [(check_qbinomial, (0.5, 0.5, 0.999)), (check_rogers_6w5, (0.2, 0.5, 0.6, 0.7, 0.9999))],
    )
    def test_truncation_trouble_on_the_product_side_is_a_flag(self, check, args):
        # (z;q)_oo at q this close to 1 needs more factors than max_terms
        rep = check(*args)
        assert not rep.passed
        assert "TruncationExceeded" in rep.flags


# Checks whose powers of large parameters overflow, and whether numpy warns on
# the way (pytest turns its RuntimeWarnings into errors).
OVERFLOWING_POWERS = [
    (check_prop_3_1, (ReducedParams(0.3, 0.2), 1e100, 1e100, 0.5, 4)),
    (check_prop_2_4, (ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 3, 1e120, 1.2e120)),
    (check_thm_1_3, (ReducedParams(0.3, 0.2), 1e150, 1e150, 0.5, 4, 2)),
    (check_thm_1_1, (ParamSet4(1e101, 1e101, 1e102, 1e102), 0.5, 3, 3)),
    (check_prop_2_2, (ParamSet4(2e200, 1e200, 1e201, 1e201), 0.5)),
]


@pytest.mark.parametrize("check, args", OVERFLOWING_POWERS)
def test_an_overflowing_power_fails_the_report_without_a_warning(check, args):
    # a power formed with ``**`` on a complex raised OverflowError here, and
    # numpy's overflow warnings escaped as errors under -W error
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = check(*args)
    assert caught == []
    assert not rep.passed
    assert not all(map(math.isfinite, (rep.lhs.real, rep.lhs.imag, rep.rhs.real, rep.rhs.imag)))


def test_an_overflowing_circle_integrand_fails_unflagged_after_one_grid(monkeypatch):
    # a failed report means the identity failed numerically, not that the
    # quadrature was slow, so an overflow is not flagged NoConvergence
    seen = TestCircleIntegrand.spy_grids(monkeypatch)
    rep = check_thm_1_1(ParamSet4(1e19, 1e19, 1e20, 1e20), 0.5, 20, 20)
    assert seen["grid"] == [128]
    assert rep.flags == ()
    assert not rep.passed
    assert not cmath.isfinite(rep.lhs)


class TestSweep:
    def test_zero_draws(self):
        assert run_sweep("THM_1_1", 1, 0) == []

    def test_determinism(self):
        a = run_sweep("THM_1_1", 42, 6)
        b = run_sweep("THM_1_1", 42, 6)
        assert a == b

    def test_different_seeds_differ(self):
        a = run_sweep("QBINOMIAL", 1, 3)
        b = run_sweep("QBINOMIAL", 2, 3)
        assert a != b

    @pytest.mark.parametrize("identity", [i.value for i in IdentityId])
    def test_default_box_draws_pass(self, identity):
        reports = run_sweep(identity, 7, 4)
        assert len(reports) == 4
        for rep in reports:
            assert rep.passed, (identity, rep.inputs, rep.flags, rep.rel_residual)

    @pytest.mark.parametrize("argument", ["seed", "draws", "degree_max"])
    @pytest.mark.parametrize("value", [None, -1, 1.5, 2.0])
    def test_the_seed_and_counts_are_nonnegative_integers(self, argument, value):
        # a None seed would draw from OS entropy, and numpy rejects -1 and 1.5
        # with its own ValueError and TypeError
        numbers = {"seed": 1, "draws": 2, "degree_max": 6} | {argument: value}
        with pytest.raises(DomainError, match=f"^{argument} must be a nonnegative integer"):
            run_sweep("QBINOMIAL", **numbers)

    def test_a_sweep_takes_no_box(self):
        # a sweep draws from its identity's registry box
        with pytest.raises(TypeError, match="box"):
            run_sweep("QBINOMIAL", 1, 2, box={"q": (0.1, 0.2)})

    @pytest.mark.parametrize("identity, box, message", [
        # every |beta| lies beyond the drawer's bound 1 - WEIGHT_MARGIN
        ("ULTRA_ORTHO", {"beta": (1.0, 1.5)}, r"no ULTRA_ORTHO draw from the box .*'beta'"),
        # scale 1 makes |alpha/delta| the ratio, above 0.92 throughout
        ("THM_1_1", {"ratio": (0.95, 1.0), "scale": (1.0, 1.0)},
         r"\|alpha/delta\| and \|beta/gamma\| <= 0.92"),
    ])
    def test_a_box_with_no_admissible_draw_is_a_domain_error(self, swap_identity, identity,
                                                             box, message):
        swap_identity(identity, box=verify.REGISTRY[identity].box | box)
        with pytest.raises(DomainError, match=message):
            run_sweep(identity, 1, 2)
