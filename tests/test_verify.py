import math

import numpy as np
import pytest

from qortho import (
    DomainError,
    ParamSet4,
    QuadratureSpec,
    ReducedParams,
    SweepSpec,
    VerificationReport,
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
    diag_rhs_thm11,
    h_norm,
    qpoch_finite,
    qpoch_infinite,
    run_sweep,
)
from qortho.verify import IdentityId, thm_1_2_rhs_series, thm_1_3_rhs


class TestReportMechanics:
    def test_passed_rule_relative_branch(self):
        rep = VerificationReport.build("THM_1_1", {}, 10.0 + 0j, 10.0 + 1e-9j, 1e-8)
        assert rep.passed and rep.rel_residual <= 1e-8

    def test_passed_rule_absolute_branch_for_expected_zero(self):
        # |rhs| <= tolerance: judged by abs residual against the scale
        rep = VerificationReport.build("THM_1_1", {}, 1e-10 + 0j, 0.0 + 0j, 1e-8, scale=50.0)
        assert rep.passed
        rep = VerificationReport.build("THM_1_1", {}, 1e-5 + 0j, 0.0 + 0j, 1e-8, scale=50.0)
        assert not rep.passed

    def test_flags_force_failure(self):
        rep = VerificationReport.build(
            "THM_1_1", {}, 1.0 + 0j, 1.0 + 0j, 1e-8, flags=["NearSingular"]
        )
        assert not rep.passed and rep.flags == ("NearSingular",)

    def test_record_round_trip(self, box_params):
        rep = check_thm_1_1(box_params, 0.5, 1, 1)
        again = VerificationReport.from_record(rep.to_record())
        assert again == rep

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
        # alpha/delta = 1 puts a weight zero on the circle
        p = ParamSet4(0.6, 0.1, 0.9, 0.6)
        rep = check_thm_1_1(p, 0.5, 0, 0)
        assert not rep.passed
        assert "NearSingular" in rep.flags


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

    def test_m_below_n_same_parity_rejected(self):
        with pytest.raises(DomainError):
            check_thm_1_3(ReducedParams(0.3, 0.5), 0.9, 1.1, 0.5, 0, 2)

    def test_weight_regularity_guard(self):
        # |a gamma/delta| >= 1 is outside the weight's regular domain
        with pytest.raises(DomainError, match="a\\*gamma/delta"):
            check_thm_1_3(ReducedParams(0.6, 0.2), 1.5, 0.5, 0.5, 1, 1)


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

    def test_prop_2_4(self, box_params):
        rep = check_prop_2_4(box_params, 0.5, 2, 1.0, 0.6)
        assert rep.passed and rep.rel_residual <= 1e-10

    @pytest.mark.parametrize(
        "check, args",
        [(check_qbinomial, (0.5, 0.5, 0.999)), (check_rogers_6w5, (0.2, 0.5, 0.6, 0.7, 0.9999))],
    )
    def test_truncation_trouble_on_the_product_side_is_a_flag(self, check, args):
        # (z;q)_oo at q this close to 1 needs more factors than max_terms
        rep = check(*args)
        assert not rep.passed
        assert "TruncationExceeded" in rep.flags


class TestSweep:
    def test_zero_draws(self):
        assert run_sweep("THM_1_1", SweepSpec(seed=1, draws=0)) == []

    def test_determinism(self):
        a = run_sweep("THM_1_1", SweepSpec(seed=42, draws=6))
        b = run_sweep("THM_1_1", SweepSpec(seed=42, draws=6))
        assert a == b

    def test_different_seeds_differ(self):
        a = run_sweep("QBINOMIAL", SweepSpec(seed=1, draws=3))
        b = run_sweep("QBINOMIAL", SweepSpec(seed=2, draws=3))
        assert a != b

    @pytest.mark.parametrize("identity", [i.value for i in IdentityId])
    def test_default_box_draws_pass(self, identity):
        reports = run_sweep(identity, SweepSpec(seed=7, draws=4))
        assert len(reports) == 4
        for rep in reports:
            assert rep.passed, (identity, rep.inputs, rep.flags, rep.rel_residual)

    def test_negative_draws_rejected(self):
        with pytest.raises(DomainError):
            SweepSpec(seed=0, draws=-1)
