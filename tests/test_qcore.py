import cmath
import functools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import mp_qpoch
import qortho
from qortho import (
    DomainError,
    ParamSet4,
    ReducedParams,
    TruncationExceeded,
    qfun,
    qpoch_finite,
    qpoch_infinite,
)
from qortho.kernels import poch_product_many
from qortho.qcore import (PRODUCT_TOL, _poch_row, as_angle, as_base, closing_factors,
                          min_factor_abs, tail_start)
from qortho.qfun import expansion_weights
from qortho.hyper import rogers_6w5_argument
from qortho.verify import REGISTRY, IdentityId, draw_params

# frozen reference: partial products of (0.5; 0.5)_oo until the tail bound
# drops below 1e-16 (30-digit arithmetic)
QPOCH_HALF_HALF = 0.28878809508660242128


class TestAsBase:
    def test_rejects_modulus_one_and_above(self):
        with pytest.raises(DomainError, match=r"\|q\| must be < 1, got \|q\| = 1$"):
            as_base(1.0)
        with pytest.raises(DomainError, match=r"\|q\| must be < 1"):
            as_base(1.2 + 0.1j)

    @pytest.mark.parametrize("q", [float("nan"), float("inf"), -float("inf"),
                                   complex(0.5, float("nan"))])
    def test_rejects_non_finite(self, q):
        with pytest.raises(DomainError, match="q must be finite"):
            as_base(q)

    def test_accepts_complex_inside_disk(self):
        q = as_base(0.3 + 0.4j)
        assert type(q) is complex and q == 0.3 + 0.4j
        assert type(as_base(0.5)) is complex and as_base(0.5) == 0.5



class TestAsAngle:
    # laurent_at and check_prop_2_1_2 read their angle through as_angle;
    # laurent_at raised TypeError from float() at a complex angle
    @pytest.mark.parametrize("call", [
        as_angle,
        lambda theta: qfun.laurent_at([1, 2], 1, theta),
        lambda theta: qortho.check_prop_2_1_2(ParamSet4(0.2, 0.1, 0.8, 0.9), 0.5, 3, theta),
    ], ids=["as_angle", "laurent_at", "check_prop_2_1_2"])
    @pytest.mark.parametrize("theta, message", [
        (1j, r"theta must be real, got 1j$"), (0.5 + 1e-300j, "theta must be real"),
        (float("nan"), "theta must be finite"),
        (complex(0.3, float("inf")), "theta must be finite"),
    ], ids=["imaginary", "tiny_imaginary_part", "nan", "infinite_imaginary_part"])
    def test_a_complex_or_non_finite_angle_is_a_domain_error(self, call, theta, message):
        with pytest.raises(DomainError, match=message):
            call(theta)

    @pytest.mark.parametrize("theta, want", [(0.3, 0.3), (-0.0, -0.0), (7, 7.0),
                                             (np.float64(2.5), 2.5), (0.5 + 0j, 0.5),
                                             (-1e300, -1e300)])
    def test_a_real_angle_keeps_its_value(self, theta, want):
        got = as_angle(theta)
        assert type(got) is float and got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert qfun.laurent_at([1, 2], 1, theta) == qfun.laurent_at([1, 2], 1, want)


P = ParamSet4(0.2, 0.1, 0.8, 0.9)
R = ReducedParams(0.3, 0.2)
# Every public function that takes the base q, as a call at valid arguments
# but for q.  thm_1_3_rhs at m = n = 2: at opposite parities it returns 0
# before it reads q.
TAKES_Q = {
    "qpoch_finite": lambda q: qpoch_finite(0.3, q, 3),
    "qpoch_infinite": lambda q: qpoch_infinite(0.3, q),
    "expansion_weights": lambda q: expansion_weights(3, 0.2, 0.3, q),
    "big_c_coeffs": lambda q: qortho.big_c_coeffs(3, P, q),
    "connection_coeffs": lambda q: qortho.connection_coeffs(3, R, 0.72, q),
    "PhiSpec": lambda q: qortho.PhiSpec((0.3,), (0.2,), q, 0.5),
    "very_well_poised": lambda q: qortho.very_well_poised(0.3, [0.6, 0.7, 0.8], q, 0.2),
    "rogers_6w5_rhs": lambda q: qortho.rogers_6w5_rhs(0.3, 0.6, 0.7, 0.8, q),
    "qbinomial_product_ratio": lambda q: qortho.qbinomial_product_ratio(0.3, 0.5, q),
    "phi_eval": lambda q: qortho.phi_eval(2, 0.7, 1.3, P, q),
    "weight_omega_many": lambda q: qortho.weight_omega_many([0.1], P, q),
    "h_norm": lambda q: qortho.h_norm(2, 0.3, q),
    "diag_rhs_thm11": lambda q: qortho.diag_rhs_thm11(2, P, q),
    "thm_1_2_rhs_series": lambda q: qfun.thm_1_2_rhs_series(P, 0.3, 0.4, q),
    "thm_1_3_rhs": lambda q: qfun.thm_1_3_rhs(R, 0.8, 0.9, q, 2, 2),
    "growth_root": lambda q: qortho.growth_root(5, P, q),
    "phi_qintegral_repr": lambda q: qortho.phi_qintegral_repr(2, 0.7, 1.3, P, q),
}


def _checker_at(identity):
    """A call of the identity's checker on its seed-1 draw, q replaced."""
    def call(q):
        args = draw_params(identity, np.random.default_rng(1), 6)
        return REGISTRY[identity].checker(**args | {"q": q})
    return call


TAKES_Q |= {f"check_{identity.value.lower()}": _checker_at(identity) for identity in IdentityId}


@pytest.mark.parametrize("q", [1.0, -1.0, 1.2 + 0.1j, math.nan, math.inf,
                               complex(0.5, math.nan)])
@pytest.mark.parametrize("name", TAKES_Q)
def test_every_function_that_takes_q_refuses_a_bad_base(name, q):
    # q is a plain number, so each function checks it (as_base) itself
    with pytest.raises(DomainError, match=r"^(q must be finite|\|q\| must be < 1), got "):
        TAKES_Q[name](q)


def test_the_bad_base_functions_take_their_good_arguments():
    # the same calls at q = 0.5 run, so each refusal above is for q alone
    for call in TAKES_Q.values():
        call(0.5)


# Public functions that took a NaN parameter other than q and returned NaN:
# each call at valid arguments but for that parameter, and its name.
TAKES_A_FINITE_PARAMETER = {
    "qpoch_finite a": (lambda v: qpoch_finite(v, 0.5, 3), "a"),
    "phi_eval x": (lambda v: qortho.phi_eval(2, v, 0.5, P, 0.5), "x"),
    "phi_eval y": (lambda v: qortho.phi_eval(2, 0.7, v, P, 0.5), "y"),
    "laurent_at theta": (lambda v: qortho.laurent_at([1, 2], 1, v), "theta"),
    "expansion_weights ra": (lambda v: expansion_weights(2, v, 0.1, 0.5)[1], "ra"),
    "expansion_weights rb": (lambda v: expansion_weights(2, 0.2, v, 0.5)[1], "rb"),
    "rogers_6w5_argument a": (lambda v: rogers_6w5_argument(v, 0.6, 0.7, 0.8, 0.5), "a"),
    "rogers_6w5_argument d": (lambda v: rogers_6w5_argument(0.2, 0.6, 0.7, v, 0.5), "d"),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", TAKES_A_FINITE_PARAMETER)
def test_a_non_finite_parameter_is_a_domain_error_not_a_nan(case, value):
    call, name = TAKES_A_FINITE_PARAMETER[case]
    with pytest.raises(DomainError, match=f"^{name} must be finite, got "):
        call(value)
    assert cmath.isfinite(call(0.5))


@pytest.mark.parametrize("call", [
    lambda: qpoch_infinite(math.nan, 0.5),
    lambda: qortho.phi_qintegral_repr(2, math.nan, 0.5, P, 0.5),
])
def test_a_product_argument_that_is_not_finite_is_truncation(call):
    # README's numerical policy: a product whose argument is inf or NaN
    # needs more than MAX_TERMS factors
    with pytest.raises(TruncationExceeded, match="needs nan factors"):
        call()


def test_an_internal_overflow_is_not_a_domain_error():
    # b/a overflows to inf for a tiny a, and (b/a;q)_j takes it unchecked:
    # the coefficients and the report come back, and no DomainError escapes
    assert len(qortho.connection_coeffs(3, ReducedParams(1e-310, 0.5), 0.72, 0.5)) == 4
    report = qortho.check_prop_3_1(ReducedParams(1e-310, 0.5), 0.9, 0.8, 0.5, 3)
    assert report.identity_id == "PROP_3_1"


def test_a_param_set_with_beta_over_delta_beyond_1_is_a_domain_error():
    with pytest.raises(DomainError, match=r"\|beta/delta\| must be <= 1, got 1.5"):
        ParamSet4(0.2, 1.5, 1.0, 1.0)


def full_scan_min_factor_abs(a, q, floor):
    """(min(1, min_k |1 - a q^k|), the first k of that minimum or None) over
    every k with |a q^k| >= floor."""
    smallest, where = 1.0, None
    w = a
    k = 0
    while abs(w) >= floor:
        if abs(1.0 - w) < smallest:
            smallest, where = abs(1.0 - w), k
        if q == 0:
            break
        w *= q
        k += 1
    return smallest, where


class TestMinFactorAbs:
    """The scan stops once |a q^k| <= 1 - smallest, after which no factor
    can be smaller; the gap and its first index must equal the full scan's,
    the gap bit for bit."""

    @staticmethod
    def draw(rng, kind):
        qmod = rng.uniform(0.0, 0.9)
        if kind == "real":
            return rng.uniform(0.0, 3.0), qmod
        if kind == "negative":
            return -rng.uniform(0.0, 3.0), rng.choice((qmod, -qmod))
        if kind == "complex":
            return (cmath.rect(rng.uniform(0.0, 3.0), rng.uniform(-math.pi, math.pi)),
                    cmath.rect(qmod, rng.uniform(-math.pi, math.pi)))
        # a = q^{-k}: an exactly (or nearly) vanishing factor at depth k
        q = rng.choice((qmod, cmath.rect(qmod, rng.uniform(-math.pi, math.pi)))) or 0.5
        return q ** -rng.randint(0, 12), q

    @pytest.mark.parametrize("kind", ["real", "negative", "complex", "q_power"])
    def test_matches_the_full_scan(self, kind):
        rng = random.Random(f"min_factor_abs:{kind}")
        for _ in range(1000):
            a, q = self.draw(rng, kind)
            for floor in (1e-14, 1e-10):
                assert min_factor_abs(a, q, floor) == full_scan_min_factor_abs(a, q, floor)

    def test_vanishing_factor_deep_in_the_chain(self):
        assert min_factor_abs(0.5 ** -7, 0.5, 1e-14) == (0.0, 7)

    def test_an_infinite_argument_ends_the_scan(self):
        # inf * q stays inf, so a scan that only waits for |a q^k| < floor
        # never ends; every factor is infinite, none near zero
        assert min_factor_abs(math.inf, 0.5, 1e-14) == (1.0, None)


class TestQpochFinite:
    def test_empty_product(self):
        assert qpoch_finite(0.7, 0.5, 0) == 1.0

    def test_zero_argument(self):
        assert qpoch_finite(0.0, 0.5, 5) == 1.0

    def test_two_factors(self):
        # (1 - 0.5)(1 - 0.25)
        assert qpoch_finite(0.5, 0.5, 2) == pytest.approx(0.375)

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        q=st.floats(min_value=0.05, max_value=0.8),
        n=st.integers(min_value=0, max_value=50),
    )
    def test_recursion_step(self, a, q, n):
        lhs = qpoch_finite(a, q, n + 1)
        rhs = qpoch_finite(a, q, n) * (1.0 - a * q ** n)
        assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-300)

    def test_the_running_product_is_the_last_entry_of_the_row(self):
        # the same multiplications as the whole row, so the same bits; q = 0
        # and a = q^-k (an exact zero factor) included
        rng = random.Random(20261020)
        cases = [(0.4 + 0.3j, 0.0, 7), (2.0, 0.5, 9), (8.0, 0.5, 3), (2.0, 0.5, 1)]
        for _ in range(3000):
            a = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            q = cmath.rect(rng.uniform(0, 0.99), rng.uniform(-math.pi, math.pi))
            cases.append((a, q, rng.randint(0, 300)))
        for a, q, n in cases:
            assert repr(qpoch_finite(a, q, n)) == repr(_poch_row(a, complex(q), n)[-1])

    def test_memory_does_not_grow_with_n(self):
        # the whole row of 10^6 entries took 38.6 MB
        tracemalloc.start()
        try:
            qpoch_finite(0.3 + 0.1j, 0.999, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestQpochInfinite:
    def test_zero_argument(self):
        assert qpoch_infinite(0.0, 0.5) == 1.0

    def test_vanishing_factor_gives_exact_zero(self):
        assert qpoch_infinite(1.0, 0.5) == 0.0
        # a = q^{-1}: the k=1 factor vanishes
        assert qpoch_infinite(2.0, 0.5) == 0.0

    def test_frozen_value(self):
        assert qpoch_infinite(0.5, 0.5) == pytest.approx(QPOCH_HALF_HALF, rel=3e-14)

    def test_truncation_cap(self):
        # the head of (0.5; 0.9999)_oo needs 192617 factors, beyond MAX_TERMS
        with pytest.raises(TruncationExceeded, match="needs 192617 factors, cap is 10000"):
            qpoch_infinite(0.5, 0.9999)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.complex_numbers(max_magnitude=0.9, allow_nan=False, allow_infinity=False),
        q=st.floats(min_value=0.05, max_value=0.8),
        n=st.integers(min_value=0, max_value=20),
    )
    def test_splitting(self, a, q, n):
        # (a;q)_oo = (a;q)_n (a q^n; q)_oo
        whole = qpoch_infinite(a, q)
        split = qpoch_finite(a, q, n) * qpoch_infinite(a * q ** n, q)
        assert whole == pytest.approx(split, rel=1e-13, abs=1e-250)


def qpoch_infinite_every_factor_screened(a, q):
    """The product loop that tests every factor of the head for an exact
    zero, closed by the same pair as ``qpoch_infinite``."""
    q = as_base(q)
    prod = 1.0 + 0.0j
    w = complex(a)
    for _ in range(tail_start(a, q)):
        factor = 1.0 - w
        if abs(factor) < 1e-15:
            return 0.0 + 0.0j
        prod *= factor
        w *= q
    plus, minus = closing_factors(q)
    return prod * (1.0 - plus * w) * (1.0 - minus * w)


class TestQpochInfiniteShortcut:
    """Only the factors with |w| >= 1/2 are scanned for a zero (by
    ``min_factor_abs``); the arithmetic is the same, so the products must be
    equal bit for bit."""

    @staticmethod
    def cases():
        rng = random.Random(20261018)
        for _ in range(400):
            q = rng.choice([rng.uniform(-0.95, 0.95),
                            cmath.rect(rng.uniform(0.0, 0.95), rng.uniform(-math.pi, math.pi))])
            a = cmath.rect(rng.choice([rng.uniform(0.0, 3.0), rng.uniform(0.45, 0.55)]),
                           rng.uniform(-math.pi, math.pi))
            yield a, q
            yield a.real, abs(q)
        for q in (0.5, 0.3, -0.7, 0.6j, 0.9):
            for k in range(6):
                yield q ** -k, q  # a factor vanishes exactly
                yield 0.5 * q ** -k, q  # w reaches |w| = 1/2 after k factors
            yield 50.0, q
        half = 0.5
        for a in (half, math.nextafter(half, 1.0), math.nextafter(half, 0.0), -half, 0.5j):
            yield a, 0.5

    def test_bit_identical_to_screening_every_factor(self):
        for a, q in self.cases():
            expected = qpoch_infinite_every_factor_screened(a, q)
            # repr tells -0.0 from 0.0 and prints every digit
            assert repr(qpoch_infinite(a, q)) == repr(expected), (a, q)


@functools.lru_cache(maxsize=None)
def forty_digit_draws():
    """(a, q, (a;q)_oo at 40 digits) for 16 draws of |a| <= 3 per q, real
    and complex q with |q| <= 0.9, each with |(a;q)_oo| >= 1e-3."""
    rng = random.Random("forty digits")
    draws = []
    for q in (0.3, 0.5, 0.7, -0.7, 0.6j, cmath.rect(0.7, 2.0), 0.9, cmath.rect(0.9, -1.0)):
        kept = 0
        while kept < 16:
            a = cmath.rect(rng.uniform(0.0, 3.0), rng.uniform(-math.pi, math.pi))
            with mpmath.workdps(40):
                ref = complex(mp_qpoch(mpmath.mpc(a), mpmath.mpc(q)))
            if abs(ref) >= 1e-3:
                draws.append((a, q, ref))
                kept += 1
    return draws


class TestFortyDigitReference:
    """The closing pair leaves a truncation error below rounding: against
    40-digit products, 1e-14 relative for |q| <= 0.7 and 2e-14 at 0.9."""

    @staticmethod
    def assert_close(product):
        for a, q, ref in forty_digit_draws():
            bound = 1e-14 if abs(q) <= 0.7 else 2e-14
            assert abs(product(a, q) - ref) <= bound * abs(ref), (a, q)

    def test_scalar_product(self):
        self.assert_close(qpoch_infinite)

    def test_kernel_product(self):
        self.assert_close(
            lambda a, q: poch_product_many([a], [0], q, tail_start(a, q), [0.0], 1)[0])

    def test_head_depth_is_pinned(self):
        # |a| |q|^K <= (1 - |q|) PRODUCT_TOL^(1/3) first at K = 37
        assert tail_start(3, 0.7) == 37

    @pytest.mark.parametrize("a", [math.inf, complex(math.inf, math.nan), math.nan])
    def test_a_product_of_an_infinite_or_nan_argument_exceeds_every_cap(self, a):
        # an overflowed symbol is a truncation flag, not a ValueError from log(0)
        with pytest.raises(TruncationExceeded, match="cap is 10000"):
            tail_start(a, 0.5)

    def test_a_depth_whose_ratio_underflows_is_taken_in_logs(self):
        # (1 - |q|) PRODUCT_TOL^(1/3) / |a| = 2.4e-21 / 1e308 underflows to 0:
        # log(0) would raise ValueError, where the depth is a truncation flag
        q = 1.0 - 2.0 ** -53
        bound = 2.0 ** -53 * PRODUCT_TOL ** (1.0 / 3.0)
        assert bound / 1e308 == 0.0
        expected = math.ceil((math.log(bound) - math.log(1e308)) / math.log(q))
        assert expected == 6815553177416389632
        with pytest.raises(TruncationExceeded, match=f"needs {expected} factors, cap is 10000"):
            tail_start(1e308, q)


class TestQpochMulti:
    """Products of several symbols go through the array kernel; at theta = 0
    with exponent 0 each symbol is the plain (a;q)_oo."""

    @staticmethod
    def product(values, q, kmax):
        return poch_product_many(values, [0] * len(values), q, kmax, [0.0], len(values))[0]

    def test_zeros(self):
        assert self.product([0.0, 0.0], 0.5, 60) == 1.0

    def test_single_entry_is_the_scalar_product(self):
        assert self.product([0.3], 0.5, tail_start(0.3, 0.5)) == qpoch_infinite(0.3, 0.5)

    def test_square_of_single_oracle(self):
        val = self.product([0.5, 0.5], 0.5, tail_start(0.5, 0.5))
        assert val == pytest.approx(QPOCH_HALF_HALF ** 2, rel=1e-13)


class TestQbinom:
    """The Gaussian binomial [n, k]_q = (q;q)_n / ((q;q)_k (q;q)_{n-k}) is
    (q;q)_n times the expansion weights at ra = rb = 0."""

    @staticmethod
    def qbinom(n, k, q):
        return qpoch_finite(q, q, n) * expansion_weights(n, 0.0, 0.0, q)[k]

    def test_edge_k_zero(self):
        assert self.qbinom(4, 0, 0.5) == pytest.approx(1.0, rel=1e-15)

    def test_n2_k1(self):
        # (1 - q^2)/(1 - q) = 1 + q
        assert self.qbinom(2, 1, 0.5) == pytest.approx(1.5)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.75])
    def test_symmetry(self, q):
        assert self.qbinom(5, 2, q) == pytest.approx(self.qbinom(5, 3, q), rel=1e-14)

    @pytest.mark.parametrize("q", [0.15, 0.5, 0.8])
    def test_addition_recurrence(self, q, rng):
        # [n,k] = [n-1,k-1] + q^k [n-1,k]
        for _ in range(25):
            n = int(rng.integers(1, 18))
            k = int(rng.integers(1, n + 1))
            lhs = self.qbinom(n, k, q)
            rhs = self.qbinom(n - 1, k - 1, q)
            if k <= n - 1:
                rhs = rhs + q ** k * self.qbinom(n - 1, k, q)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            qpoch_finite(0.3, 0.5, -1)
