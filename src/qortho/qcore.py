"""Scalar q-product arithmetic.

Everything in this module is built from the shifted factorial

    (a;q)_0 = 1,    (a;q)_n = prod_{k=0}^{n-1} (1 - a q^k),

together with its infinite extension (a;q)_oo = prod_{k>=0} (1 - a q^k),
which converges for |q| < 1 because the factors approach 1 geometrically.
All functions accept complex scalars; ``q`` may be passed as a plain number
or wrapped in :class:`QBase`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, TruncationExceeded

INF = math.inf

# A factor |1 - a q^k| below this is treated as an exact zero of the product;
# downstream formulas divide by these symbols, so tiny factors must not leak
# rounding noise into quotients.
EXACT_ZERO_FACTOR = 1e-15

# Magnitude below which a denominator product counts as singular.
NEAR_SINGULAR_TOL = 1e-12


def finite_complex(name: str, value) -> complex:
    """``value`` as a complex number; :class:`DomainError` unless it is
    finite (NaN slips through every modulus bound, since comparisons with it
    are false)."""
    z = complex(value)
    if not cmath.isfinite(z):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


@dataclass(frozen=True)
class QBase:
    """The base of all q-products. Construction requires |q| < 1 strictly."""

    q: complex

    def __post_init__(self) -> None:
        if abs(finite_complex("q", self.q)) >= 1.0:
            raise DomainError(f"|q| must be < 1, got |q| = {abs(self.q):.6g}")

    @classmethod
    def coerce(cls, q) -> "QBase":
        if isinstance(q, QBase):
            return q
        return cls(complex(q))


@dataclass(frozen=True)
class TruncationPolicy:
    """Controls truncation of infinite products and series.

    ``rel_tol`` bounds the relative size of the first neglected factor or
    term; ``max_terms`` caps how many are ever taken before giving up with
    :class:`TruncationExceeded`.
    """

    rel_tol: float = 1e-14
    max_terms: int = 10000

    def __post_init__(self) -> None:
        if not self.rel_tol > 0.0:
            raise DomainError("rel_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_POLICY = TruncationPolicy()


def qpoch_finite(a, q, n: int) -> complex:
    """Finite product (a;q)_n. Total for any complex a and n >= 0."""
    qb = QBase.coerce(q)
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    prod = 1.0 + 0.0j
    w = complex(a)
    for _ in range(n):
        prod *= 1.0 - w
        w *= qb.q
    return prod


def tail_start(a, q, policy: TruncationPolicy = DEFAULT_POLICY) -> int:
    """Smallest k with |a| |q|^k < rel_tol, i.e. where the geometric tail of
    (a;q)_oo can be dropped with relative error O(rel_tol / (1-|q|))."""
    mag = abs(complex(a))
    if mag < policy.rel_tol:
        return 0
    qmag = abs(complex(q) if not isinstance(q, QBase) else q.q)
    if qmag == 0.0:
        return 1
    return max(int(math.ceil(math.log(policy.rel_tol / mag) / math.log(qmag))), 0)


def qpoch_infinite(a, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Infinite product (a;q)_oo, truncated by ``policy``.

    Returns exactly 0 when some factor vanishes to within 1e-15 (a = q^-k),
    so quotient formulas can detect the singular symbols downstream.
    """
    qb = QBase.coerce(q)
    nterms = tail_start(a, qb, policy)
    if nterms > policy.max_terms:
        raise TruncationExceeded(
            f"(a;q)_oo needs {nterms} factors, cap is {policy.max_terms}"
        )
    prod = 1.0 + 0.0j
    w = complex(a)
    for _ in range(nterms):
        factor = 1.0 - w
        if abs(factor) < EXACT_ZERO_FACTOR:
            return 0.0 + 0.0j
        prod *= factor
        w *= qb.q
    return prod


def min_factor_abs(a, q, floor: float) -> float:
    """min(1, min_k |1 - a q^k|) over the k with |a q^k| >= floor, to detect
    near-singular denominator symbols before dividing.  With the moduli |a|
    and |q| it bounds the factors of (a e^{i theta}; q)_oo over all theta."""
    smallest = 1.0
    w = a
    while abs(w) >= floor:
        smallest = min(smallest, abs(1.0 - w))
        if q == 0:
            break
        w *= q
    return smallest


def settled_sum(terms: Iterable[complex], policy: TruncationPolicy, what: str,
                total: complex = 0.0 + 0.0j) -> complex:
    """Add ``terms`` to ``total`` until |term| <= rel_tol * |partial sum| for
    3 consecutive terms (q-series terms can interleave near-zeros, so one
    small term is not enough).  ``terms`` yields at most ``policy.max_terms``
    terms; if it stops short, the sum terminated exactly.  Yielding them all
    unsettled raises :class:`TruncationExceeded` naming ``what``."""
    streak = 0
    count = 0
    for count, term in enumerate(terms, 1):
        total += term
        streak = streak + 1 if abs(term) <= policy.rel_tol * abs(total) else 0
        if streak == 3:
            return total
    if count < policy.max_terms:
        return total
    raise TruncationExceeded(f"{what} did not settle within {policy.max_terms} terms")


def qpoch_multi(values, q, n=INF, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Product of (a;q)_n over each a in ``values``; n may be ``INF``."""
    values = list(values)
    if not values:
        raise DomainError("qpoch_multi needs at least one argument symbol")
    prod = 1.0 + 0.0j
    for a in values:
        if n is INF or n is None:
            prod *= qpoch_infinite(a, q, policy)
        else:
            prod *= qpoch_finite(a, q, int(n))
    return prod


def qbinom(n: int, k: int, q) -> complex:
    """Gaussian binomial coefficient (q;q)_n / ((q;q)_k (q;q)_{n-k})."""
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")
    qb = QBase.coerce(q)
    return qpoch_finite(qb.q, qb, n) / (
        qpoch_finite(qb.q, qb, k) * qpoch_finite(qb.q, qb, n - k)
    )
