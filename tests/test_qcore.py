import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qortho import (
    INF,
    DomainError,
    QBase,
    TruncationExceeded,
    TruncationPolicy,
    qbinom,
    qpoch_finite,
    qpoch_infinite,
    qpoch_multi,
)

# frozen reference: partial products of (0.5; 0.5)_oo until the tail bound
# drops below 1e-16 (30-digit arithmetic)
QPOCH_HALF_HALF = 0.28878809508660242128


class TestQBase:
    def test_rejects_modulus_one_and_above(self):
        with pytest.raises(DomainError):
            QBase(1.0)
        with pytest.raises(DomainError):
            QBase(1.2 + 0.1j)

    @pytest.mark.parametrize("q", [float("nan"), float("inf"), -float("inf"),
                                   complex(0.5, float("nan"))])
    def test_rejects_non_finite(self, q):
        with pytest.raises(DomainError, match="finite"):
            QBase(q)

    def test_accepts_complex_inside_disk(self):
        assert QBase(0.3 + 0.4j).q == 0.3 + 0.4j

    def test_coerce_passthrough(self):
        qb = QBase(0.5)
        assert QBase.coerce(qb) is qb
        assert QBase.coerce(0.5) == qb


class TestPolicy:
    def test_invariants(self):
        with pytest.raises(DomainError):
            TruncationPolicy(rel_tol=0.0)
        with pytest.raises(DomainError):
            TruncationPolicy(max_terms=0)


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
        with pytest.raises(TruncationExceeded):
            qpoch_infinite(0.5, 0.9999, TruncationPolicy(max_terms=100))

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


class TestQpochMulti:
    def test_zeros(self):
        assert qpoch_multi([0.0, 0.0], 0.5, INF) == 1.0

    def test_single_entry_reduces_to_finite(self):
        assert qpoch_multi([0.3], 0.5, 4) == qpoch_finite(0.3, 0.5, 4)

    def test_square_of_single_oracle(self):
        val = qpoch_multi([0.5, 0.5], 0.5, INF)
        assert val == pytest.approx(QPOCH_HALF_HALF ** 2, rel=1e-13)

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            qpoch_multi([], 0.5, 3)


class TestQbinom:
    def test_edge_k_zero(self):
        assert qbinom(4, 0, 0.5) == 1.0

    def test_n2_k1(self):
        # (1 - q^2)/(1 - q) = 1 + q
        assert qbinom(2, 1, 0.5) == pytest.approx(1.5)

    @pytest.mark.parametrize("q", [0.2, 0.5, 0.75])
    def test_symmetry(self, q):
        assert qbinom(5, 2, q) == pytest.approx(qbinom(5, 3, q), rel=1e-14)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(DomainError):
            qbinom(3, 4, 0.5)

    @pytest.mark.parametrize("q", [0.15, 0.5, 0.8])
    def test_addition_recurrence(self, q, rng):
        # [n,k] = [n-1,k-1] + q^k [n-1,k]
        for _ in range(25):
            n = int(rng.integers(1, 18))
            k = int(rng.integers(1, n + 1))
            lhs = qbinom(n, k, q)
            rhs = qbinom(n - 1, k - 1, q)
            if k <= n - 1:
                rhs = rhs + q ** k * qbinom(n - 1, k, q)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            qpoch_finite(0.3, 0.5, -1)
