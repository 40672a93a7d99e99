import mpmath
import numpy as np
import pytest

from qortho import (
    DivergentSeries,
    DomainError,
    NearSingular,
    PhiSpec,
    TruncationExceeded,
    h_norm,
    phi_series,
    qcore,
    qbinomial_product_ratio,
    qpoch_infinite,
    rogers_6w5_rhs,
    very_well_poised,
)

from qortho.hyper import rogers_6w5_argument
from qortho.verify import IdentityId, draw_params

from oracles import mp_phi_terms, mp_qpoch, mp_very_well_poised_6w5


class TestPhiSpec:
    def test_forbidden_denominator_parameter(self):
        # b = q^{-1} would zero (b;q)_k for k >= 2
        with pytest.raises(DomainError):
            PhiSpec((0.3,), (2.0,), 0.5, 0.1)

    def test_nonterminating_needs_small_z(self):
        with pytest.raises(DomainError):
            PhiSpec((0.3,), (0.2,), 0.5, 1.1)

    def test_terminating_allows_large_z(self):
        # numerator q^{-3} terminates the series, |z| >= 1 is then fine
        spec = PhiSpec((0.5 ** -3,), (0.2,), 0.5, 2.0)
        assert spec.terminates_at == 3

    @pytest.mark.parametrize("nums, dens, z, name", [
        ((0.3,), (), float("nan"), "z"),
        ((float("inf"),), (), 0.5, "numerator parameter"),
        ((0.3,), (float("nan"),), 0.5, "denominator parameter"),
    ])
    def test_non_finite_parameters_and_argument_are_domain_errors(self, nums, dens, z, name):
        # a NaN or an infinity slips through every modulus test; unchecked,
        # the series would run to MAX_TERMS and raise TruncationExceeded
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            phi_series(PhiSpec(nums, dens, 0.5, z))


class TestPhiSeries:
    def test_z_zero_gives_one(self):
        spec = PhiSpec((0.3, 0.4), (0.2,), 0.5, 0.0)
        assert phi_series(spec) == 1.0

    def test_numerator_one_truncates_immediately(self):
        # (1;q)_k = 0 for k >= 1, so only the k=0 term survives
        spec = PhiSpec((1.0, 0.3), (0.2,), 0.5, 0.5)
        assert phi_series(spec) == 1.0

    def test_terminating_matches_finite_sum(self):
        # numerator q^{-2}: sum_k (q^{-2};q)_k (0.3;q)_k z^k / ((q;q)_k (0.2;q)_k)
        q, z = 0.5, 1.3
        a = q ** -2
        spec = PhiSpec((a, 0.3), (0.2,), q, z)
        expected = 0.0
        for k in range(3):
            num = np.prod([(1 - a * q ** j) * (1 - 0.3 * q ** j) for j in range(k)])
            den = np.prod([(1 - q ** (j + 1)) * (1 - 0.2 * q ** j) for j in range(k)])
            expected += num / den * z ** k
        assert phi_series(spec) == pytest.approx(expected, rel=1e-13)

    def test_a_series_that_terminates_to_within_1e_12_stops_there(self):
        # a = q^-2 (1 + 1e-13) counts as terminating, which waives |z| < 1, so
        # the sum must stop after term 2 before the terms grow;
        # (q^-2 z; q)_2 = (1 - 8)(1 - 4) at z = 2
        q = 0.5
        spec = PhiSpec((q ** -2 * (1 + 1e-13),), (), q, 2.0)
        assert spec.terminates_at == 2
        assert phi_series(spec) == pytest.approx(21.0, rel=1e-11)

    def test_growth_heuristic_still_fires_before_a_late_termination(self):
        # terminates at k = 30, but terms grow for the first 20
        spec = PhiSpec((0.9 ** -30,), (), 0.9, 0.5)
        with pytest.raises(DivergentSeries, match="k=20"):
            phi_series(spec)

    def test_qbinomial_identity_spot(self):
        # single numerator, no denominators: equals (a z;q)_oo / (z;q)_oo
        a, q, z = 0.3, 0.5, 0.4
        lhs = phi_series(PhiSpec((a,), (), q, z))
        rhs = qpoch_infinite(a * z, q) / qpoch_infinite(z, q)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_qbinomial_identity_random_draws(self, rng):
        for _ in range(100):
            a = rng.uniform(-0.9, 0.9)
            z = rng.uniform(-0.7, 0.7)
            q = rng.uniform(0.1, 0.8)
            lhs = phi_series(PhiSpec((a,), (), q, z))
            rhs = qbinomial_product_ratio(a, z, q)
            assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    @pytest.mark.parametrize("nums, dens, q", [
        ((0.4,), (), 0.6), ((0.3, 0.5), (0.2,), 0.7), ((0.9,), (), 0.9), ((0.5, 0.8), (0.95,), 0.5),
    ])
    def test_the_true_tail_after_the_stop_is_within_the_bound(self, monkeypatch, nums, dens,
                                                               q):
        # every term is positive at z = 0.65, so the terms after the stop are
        # the whole truncation error; the stop is the least MAX_TERMS that
        # does not raise
        spec = PhiSpec(nums, dens, q, 0.65)

        def stops_within(max_terms):
            monkeypatch.setattr(qcore, "MAX_TERMS", max_terms)
            try:
                phi_series(spec)
            except TruncationExceeded:
                return False
            return True

        stop = next(k for k in range(1, 1000) if stops_within(k))
        monkeypatch.undo()
        with mpmath.workdps(40):
            terms = mp_phi_terms(nums, dens, q, 0.65, 400)
            assert terms[-1] < mpmath.mpf(10) ** -60
            total = mpmath.fsum(terms)
            tail = mpmath.fsum(terms[stop + 1:])
        assert 0 < tail <= 2.0 ** -53 * total
        assert phi_series(spec) == pytest.approx(float(total), rel=4 * 2.0 ** -53)

    def test_a_small_term_before_a_near_zero_denominator_factor_does_not_stop_it(self):
        # 1 - b q^10 = -1e-11: t_9 and t_10 are below 1e-16, then t_11 jumps
        # to 6e-11; rho_k is infinite while |b| |q|^k >= 1, so no stop comes
        # before it
        q, b, z = 0.5, 2.0 ** 10 * (1 + 1e-11), 0.0145
        with mpmath.workdps(40):
            expected = float(mpmath.fsum(mp_phi_terms((0.9 * b,), (b,), q, z, 80)))
        got = phi_series(PhiSpec((0.9 * b,), (b,), q, z))
        assert got == pytest.approx(expected, rel=1e-15)

    def test_divergence_detection(self):
        # huge numerator parameter keeps the term ratio above 1 for many k
        spec = PhiSpec((1e6,), (), 0.99, 0.9)
        with pytest.raises(DivergentSeries):
            phi_series(spec)

    def test_without_the_growth_test_a_convergent_rise_is_summed(self):
        # sum z^k / (q;q)_k = 1/(z;q)_oo; its ratio z/(1 - q^{k+1}) stays
        # above 1 for k = 0..27, which the growth test takes for divergence;
        # the running product's rounding leaves 2.2e-15
        q, z = 0.9, 0.95
        spec = PhiSpec((0.0,), (), q, z)
        with pytest.raises(DivergentSeries, match="k=20"):
            phi_series(spec)
        with mpmath.workdps(40):
            expected = float(1 / mp_qpoch(mpmath.mpf(z), mpmath.mpf(q)))
        assert phi_series(spec, growth_test=False) == pytest.approx(expected, rel=1e-14)


class TestVeryWellPoised:
    def test_z_zero(self):
        assert very_well_poised(0.3, [0.2, 0.4, 0.5], 0.5, 0.0) == 1.0

    def test_matches_expanded_parameter_list(self, rng):
        for _ in range(20):
            q = rng.uniform(0.2, 0.7)
            a1 = rng.uniform(0.05, 0.6)
            rest = rng.uniform(0.1, 0.7, size=3)
            z = rng.uniform(0.05, 0.6)
            root = np.sqrt(a1)
            nums = (a1, q * root, -q * root, *rest)
            dens = (root, -root, *(q * a1 / r for r in rest))
            direct = phi_series(PhiSpec(nums, dens, q, z))
            assert very_well_poised(a1, rest, q, z) == pytest.approx(direct, rel=1e-14)


class TestRogers6W5:
    def test_series_side_within_1_5e_15_of_a_40_digit_sum(self):
        # 500 seed-1 default-box draws, the box of the cli_cold benchmark;
        # the three-small-terms stop this replaced was 7.7e-15 off at worst
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(500):
            a, b, c, d, q = draw_params(IdentityId.ROGERS_6W5, rng, 6).values()
            z = rogers_6w5_argument(a, b, c, d, q)
            with mpmath.workdps(40):
                expected = mp_very_well_poised_6w5(a, b, c, d, q, z)
                got = very_well_poised(a, [b, c, d], q, z)
                worst = max(worst, float(abs(got - expected) / abs(expected)))
        assert worst <= 1.5e-15

    def test_near_singular_denominator(self):
        # aq/b = 1 exactly zeroes a denominator product; c, d keep |z| < 1
        q = 0.5
        a = 0.4
        b = a * q
        with pytest.raises(NearSingular):
            rogers_6w5_rhs(a, b, 1.5, 1.4, q)

    def test_product_near_q_one_against_a_40_digit_loop(self):
        # the denominator product is about 1e-20, every factor of it >= 0.08
        with mpmath.workdps(40):
            a, b, c, d, q = map(mpmath.mpf, (0.2, 0.5, 0.6, 0.7, 0.98))
            aq = a * q
            num = (mp_qpoch(aq, q) * mp_qpoch(aq / (b * c), q) * mp_qpoch(aq / (b * d), q)
                   * mp_qpoch(aq / (c * d), q))
            den = (mp_qpoch(aq / b, q) * mp_qpoch(aq / c, q) * mp_qpoch(aq / d, q)
                   * mp_qpoch(aq / (b * c * d), q))
            expected = complex(num / den)
        assert rogers_6w5_rhs(0.2, 0.5, 0.6, 0.7, 0.98) == pytest.approx(expected, rel=1e-13)

    def test_spot_value_against_series(self):
        # admissible six-parameter set with z = aq/(bcd) = 10/21
        a, b, c, d, q = 0.2, 0.5, 0.6, 0.7, 0.5
        z = a * q / (b * c * d)
        lhs = very_well_poised(a, [b, c, d], q, z)
        rhs = rogers_6w5_rhs(a, b, c, d, q)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_argument_modulus_validated(self):
        with pytest.raises(DomainError):
            rogers_6w5_rhs(0.2, 0.3, 0.4, 0.5, 0.5)  # |aq/bcd| = 5/3

    def test_an_underflowing_product_is_a_domain_error(self):
        # c d = 0.4 * 5e-324 underflows to 0, and the closed form divides by it
        with pytest.raises(DomainError, match="products nonzero"):
            rogers_6w5_rhs(0.25, 0.3, 0.4, 5e-324, 0.4)

    def test_substitution_consistency(self):
        # choosing d = aq/(b c z0) turns aq/(bd) into c*z0 symbolically; the
        # closed form evaluated directly must equal the substituted product
        a, b, c, q, z0 = 0.2, 0.5, 0.6, 0.5, 0.55
        d = a * q / (b * c * z0)
        rhs = rogers_6w5_rhs(a, b, c, d, q)
        aq = a * q
        substituted = (
            qpoch_infinite(aq, q)
            * qpoch_infinite(aq / (b * c), q)
            * qpoch_infinite(c * z0, q)  # aq/(bd)
            * qpoch_infinite(b * z0, q)  # aq/(cd)
            / (
                qpoch_infinite(aq / b, q)
                * qpoch_infinite(aq / c, q)
                * qpoch_infinite(b * c * z0, q)  # aq/d
                * qpoch_infinite(z0, q)
            )
        )
        assert rhs == pytest.approx(substituted, rel=1e-13)
        lhs = very_well_poised(a, [b, c, d], q, z0)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_random_draws(self, rng):
        count = 0
        while count < 50:
            q = rng.uniform(0.2, 0.7)
            b, c, d = rng.uniform(0.3, 0.8, size=3)
            z = rng.uniform(0.05, 0.65)
            a = z * b * c * d / q
            if a >= 0.9:
                continue
            aq = a * q
            if min(abs(aq / b - 1), abs(aq / c - 1), abs(aq / d - 1)) < 0.05:
                continue
            lhs = very_well_poised(a, [b, c, d], q, z)
            rhs = rogers_6w5_rhs(a, b, c, d, q)
            assert abs(lhs / rhs - 1.0) <= 1e-9
            count += 1


class TestQBinomialProductRatio:
    def test_near_q_one_against_a_40_digit_loop(self):
        # (0.5; 0.99)_oo is about 1e-19, every factor of it >= 0.5
        with mpmath.workdps(40):
            a, z, q = map(mpmath.mpf, (0.3, 0.5, 0.99))
            expected = complex(mp_qpoch(a * z, q) / mp_qpoch(z, q))
        assert qbinomial_product_ratio(0.3, 0.5, 0.99) == pytest.approx(expected, rel=1e-13)

    def test_small_denominator_factor_is_flagged(self):
        with pytest.raises(NearSingular, match=r"\(z;q\)_oo has a factor"):
            qbinomial_product_ratio(0.3, 1 - 1e-13, 0.5)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("side, args, name", [
    (rogers_6w5_rhs, (NAN, 0.6, 0.7, 0.8, 0.5), "a"),
    (rogers_6w5_rhs, (0.2, 0.6, INF, 0.8, 0.5), "c"),
    (qbinomial_product_ratio, (INF, 0.5, 0.5), "a"),
    (qbinomial_product_ratio, (0.3, NAN, 0.5), "z"),
    (h_norm, (2, NAN, 0.5), "a"),
    (h_norm, (2, complex(0.3, INF), 0.5), "a"),
])
def test_a_closed_side_refuses_a_non_finite_parameter(side, args, name):
    # a NaN or an infinity slips through every modulus test; unchecked, the
    # products would ask for more than MAX_TERMS factors (TruncationExceeded)
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        side(*args)
