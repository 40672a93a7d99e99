"""Basic hypergeometric series.

The series with r+1 numerator and r denominator parameters is

    sum_{k>=0} (a_1,...,a_{r+1}; q)_k z^k / ((q, b_1,...,b_r; q)_k),

summed here through the consecutive-term ratio

    T_{k+1}/T_k = z * prod_i (1 - a_i q^k) / [(1 - q^{k+1}) prod_j (1 - b_j q^k)].

The very-well-poised variant W fixes the first three numerator parameters to
(a_1, q*sqrt(a_1), -q*sqrt(a_1)) against denominators (sqrt(a_1), -sqrt(a_1),
q a_1 / a_i, ...); the six-parameter case with argument z = a q/(b c d) has
the closed product form implemented in :func:`rogers_6w5_rhs`.
"""

from __future__ import annotations

import cmath

from .errors import DivergentSeries, DomainError
from .qcore import (
    DEFAULT_POLICY,
    NEAR_SINGULAR_TOL,
    QBase,
    Record,
    TruncationPolicy,
    qpoch_infinite,
    screen_denominator,
    settled_sum,
)

def _poch_zero_index(value: complex, q: complex, tol: float) -> int | None:
    """Index m >= 0 with value * q^m ~= 1, or None. Detects parameters of the
    form q^{-m}, which make (value;q)_k vanish for k > m."""
    w = complex(value)
    qmag = abs(q)
    m = 0
    # |w q^m| decays geometrically; once below 1 - tol no later factor can hit 1.
    while abs(w) >= 1.0 - tol:
        if abs(w - 1.0) < tol:
            return m
        if qmag == 0.0:
            break
        w *= q
        m += 1
    return None


class PhiSpec(Record):
    """Parameter set for one series evaluation: numerators a_1..a_{r+1},
    denominators b_1..b_r, base q, argument z.  ``terminates_at`` is not an
    argument: it is the index m of the first numerator of the form q^{-m}
    (the series ends at term m), or None."""

    _fields = ("numerators", "denominators", "q", "z", "terminates_at")

    def __init__(self, numerators: tuple, denominators: tuple, q: QBase, z: complex) -> None:
        numerators = tuple(complex(a) for a in numerators)
        denominators = tuple(complex(b) for b in denominators)
        q = QBase.coerce(q)
        z = complex(z)
        for b in denominators:
            m = _poch_zero_index(b, q.q, NEAR_SINGULAR_TOL)
            if m is not None:
                raise DomainError(
                    f"denominator parameter {b} is q^-{m} to within "
                    f"{NEAR_SINGULAR_TOL}; it would zero a product factor"
                )
        stops = [
            m
            for a in numerators
            if (m := _poch_zero_index(a, q.q, NEAR_SINGULAR_TOL)) is not None
        ]
        if not stops and abs(z) >= 1.0:
            raise DomainError(
                f"non-terminating series needs |z| < 1, got |z| = {abs(z):.6g}"
            )
        self._set(numerators=numerators, denominators=denominators, q=q, z=z,
                  terminates_at=min(stops) if stops else None)


def phi_series(spec: PhiSpec, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Sum the series by the term-ratio recurrence.

    Stops by :func:`qortho.qcore.settled_sum`, or after term
    ``spec.terminates_at`` of a terminating series.  Raises
    :class:`DivergentSeries` if terms grow for max(20, r) consecutive k.
    """
    q = spec.q.q
    growth_cap = max(20, len(spec.denominators))
    stop = spec.terminates_at
    last = policy.max_terms if stop is None else min(stop, policy.max_terms)

    def terms():  # k = 1, 2, ...
        term = 1.0 + 0.0j
        growth_streak = 0
        qk = 1.0 + 0.0j  # q^{k-1} while building term k
        for k in range(1, last + 1):
            ratio = spec.z
            for a in spec.numerators:
                ratio *= 1.0 - a * qk
            ratio /= 1.0 - q ** k
            for b in spec.denominators:
                ratio /= 1.0 - b * qk
            prev = abs(term)
            term *= ratio
            yield term
            if abs(term) > prev:
                growth_streak += 1
                if growth_streak >= growth_cap:
                    raise DivergentSeries(
                        f"terms grew for {growth_streak} consecutive indices at k={k}"
                    )
            else:
                growth_streak = 0
            qk *= q

    return settled_sum(terms(), policy, "series", total=1.0 + 0.0j)


def very_well_poised(a1, rest, q, z, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Evaluate the very-well-poised series by expanding it to its plain
    parameter list and summing.  The principal square root of a1 is used; the
    value does not depend on the branch because both signs of sqrt(a1) appear
    symmetrically."""
    a1 = complex(a1)
    rest = [complex(a) for a in rest]
    qb = QBase.coerce(q)
    root = cmath.sqrt(a1)
    nums = [a1, qb.q * root, -qb.q * root, *rest]
    dens = [root, -root, *(qb.q * a1 / a for a in rest)]
    return phi_series(PhiSpec(tuple(nums), tuple(dens), qb, z), policy)


def rogers_6w5_argument(a, b, c, d, q: complex) -> complex:
    """z = a q/(b c d), where :func:`rogers_6w5_rhs` holds: it divides by b c, b d,
    c d and b c d (0 also when one underflows) and needs |z| < 1 (:class:`DomainError`)."""
    if 0 in (b * c, b * d, c * d, b * c * d):
        raise DomainError(f"aq/(bcd) needs b, c, d and their products nonzero, got {b}, {c}, {d}")
    z = a * q / (b * c * d)
    if abs(z) >= 1.0:
        raise DomainError(f"need |a q / (b c d)| < 1, got {abs(z):.6g}")
    return z


def rogers_6w5_rhs(a, b, c, d, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Closed product form of the six-parameter very-well-poised sum at
    argument z = a q / (b c d) (:func:`rogers_6w5_argument`):

        (aq, aq/bc, aq/bd, aq/cd; q)_oo
        -------------------------------------
        (aq/b, aq/c, aq/d, aq/bcd; q)_oo
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    qb = QBase.coerce(q)
    z = rogers_6w5_argument(a, b, c, d, qb.q)
    aq = a * qb.q
    num = 1.0 + 0.0j
    for arg in (aq, aq / (b * c), aq / (b * d), aq / (c * d)):
        num *= qpoch_infinite(arg, qb, policy)
    symbols = {"aq/b": aq / b, "aq/c": aq / c, "aq/d": aq / d, "aq/bcd": z}
    den = 1.0 + 0.0j
    for arg in symbols.values():
        den *= qpoch_infinite(arg, qb, policy)
    screen_denominator(symbols, qb, policy, den)
    return num / den


def qbinomial_product_ratio(a, z, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """(a z; q)_oo / (z; q)_oo, the product side of the binomial-series
    identity sum_n (a;q)_n z^n / (q;q)_n for |z| < 1."""
    qb = QBase.coerce(q)
    den = qpoch_infinite(z, qb, policy)
    screen_denominator({"z": complex(z)}, qb, policy, den)
    return qpoch_infinite(complex(a) * complex(z), qb, policy) / den


__all__ = [
    "PhiSpec",
    "phi_series",
    "very_well_poised",
    "rogers_6w5_argument",
    "rogers_6w5_rhs",
    "qbinomial_product_ratio",
]
