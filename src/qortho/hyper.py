"""Basic hypergeometric series.

The series with r+1 numerator and r denominator parameters is

    sum_{k>=0} (a_1,...,a_{r+1}; q)_k z^k / ((q, b_1,...,b_r; q)_k),

summed here through the consecutive-term ratio

    T_{k+1}/T_k = z * prod_i (1 - a_i q^k) / [(1 - q^{k+1}) prod_j (1 - b_j q^k)].

:func:`phi_series`, the package's one series loop (Gasper & Rahman, *Basic
Hypergeometric Series*, section 1.2), stops on a proven tail bound.  A
numerator q^{-m} ends the series at term m and a denominator q^{-m} is
refused; :class:`PhiSpec` finds both with :func:`~qortho.qcore.min_factor_abs`,
the package's one q-chain scan.

The very-well-poised variant W fixes the first three numerator parameters to
(a_1, q*sqrt(a_1), -q*sqrt(a_1)) against denominators (sqrt(a_1), -sqrt(a_1),
q a_1 / a_i, ...); the six-parameter case with argument z = a q/(b c d) has
the closed product form implemented in :func:`rogers_6w5_rhs`.
"""

from __future__ import annotations

import cmath
import math

from . import qcore
from .errors import DivergentSeries, DomainError, TruncationExceeded
from .qcore import (
    NEAR_SINGULAR_TOL,
    QBase,
    Record,
    min_factor_abs,
    qpoch_infinite,
    screen_denominator,
)

# Unit roundoff of double precision: the series tail bound, relative to the sum.
UNIT_ROUNDOFF = 2.0 ** -53


class PhiSpec(Record):
    """Parameter set for one series evaluation: numerators a_1..a_{r+1},
    denominators b_1..b_r, base q, argument z.  ``terminates_at`` is not an
    argument: it is the index m of the first numerator of the form q^{-m}
    (the series ends at term m), or None.  Both q^{-m} tests are the scan
    :func:`~qortho.qcore.min_factor_abs` over |w q^k| >= 1 - NEAR_SINGULAR_TOL:
    a parameter is q^{-m} when its gap is below NEAR_SINGULAR_TOL, and m is
    where the gap occurs.  For |q| >= 1 - 2 NEAR_SINGULAR_TOL two factors can
    both lie that close to 0, and m is then the closer one, not the first."""

    _fields = ("numerators", "denominators", "q", "z", "terminates_at")

    def __init__(self, numerators: tuple, denominators: tuple, q: QBase, z: complex) -> None:
        numerators = tuple(complex(a) for a in numerators)
        denominators = tuple(complex(b) for b in denominators)
        q = QBase.coerce(q)
        z = complex(z)
        floor = 1.0 - NEAR_SINGULAR_TOL
        for b in denominators:
            gap, m = min_factor_abs(b, q.q, floor)
            if gap < NEAR_SINGULAR_TOL:
                raise DomainError(
                    f"denominator parameter {b} is q^-{m} to within "
                    f"{NEAR_SINGULAR_TOL}; it would zero a product factor"
                )
        stops = [m for gap, m in (min_factor_abs(a, q.q, floor) for a in numerators)
                 if gap < NEAR_SINGULAR_TOL]
        if not stops and abs(z) >= 1.0:
            raise DomainError(
                f"non-terminating series needs |z| < 1, got |z| = {abs(z):.6g}"
            )
        self._set(numerators=numerators, denominators=denominators, q=q, z=z,
                  terminates_at=min(stops) if stops else None)


def _ratio_majorant(spec: PhiSpec, qk_mag: float) -> float:
    """rho_k = |z| prod_i (1 + |a_i| |q|^k) / ((1 - |q|^{k+1}) prod_j (1 - |b_j| |q|^k))
    at qk_mag = |q|^k, or inf while some |b_j| |q|^k >= 1."""
    rho = abs(spec.z) / (1.0 - qk_mag * abs(spec.q.q))
    for a in spec.numerators:
        rho *= 1.0 + abs(a) * qk_mag
    for b in spec.denominators:
        slack = 1.0 - abs(b) * qk_mag
        if slack <= 0.0:
            return math.inf
        rho /= slack
    return rho


def phi_series(spec: PhiSpec, *, growth_test: bool = True) -> complex:
    """Sum the series by the term-ratio recurrence, to a proven tail bound.

    Each factor of rho_k (:func:`_ratio_majorant`) falls with k, so rho_k
    bounds every term ratio from index k on, and the sum S stops after the
    first term t_k with rho_k < 1 and |t_k| rho_k / (1 - rho_k) <= 2^-53 |S|.
    rho_k >= |z|, so it is formed only where |t_k| |z| / (1 - |z|) <= 2^-53 |S|.
    A terminating series stops after term ``spec.terminates_at`` at the
    latest.  Raises :class:`TruncationExceeded` if the bound is not met by
    term :data:`~qortho.qcore.MAX_TERMS`.  With ``growth_test``, terms that grow for
    max(20, r) consecutive k raise :class:`DivergentSeries`, a heuristic: a
    convergent series near |z| = 1 and q = 1 rises that long, its early
    ratios carrying 1/(1 - q^{k+1}).
    """
    q = spec.q.q
    growth_cap = max(20, len(spec.denominators)) if growth_test else math.inf
    stop = spec.terminates_at
    last = qcore.MAX_TERMS if stop is None else min(stop, qcore.MAX_TERMS)
    term = total = qk = 1.0 + 0.0j  # t_k, the sum to t_k, q^k; k = 0
    mag = 1.0  # |t_k|
    zmag = abs(spec.z)
    gate = zmag / (1.0 - zmag) if zmag < 1.0 else math.inf
    growth_streak = 0
    for k in range(1, last + 1):
        ratio = spec.z
        for a in spec.numerators:
            ratio *= 1.0 - a * qk
        for b in spec.denominators:
            ratio /= 1.0 - b * qk
        qk *= q
        term *= ratio / (1.0 - qk)
        total += term
        prev, mag = mag, abs(term)
        if mag > prev:
            growth_streak += 1
            if growth_streak >= growth_cap:
                raise DivergentSeries(
                    f"terms grew for {growth_streak} consecutive indices at k={k}"
                )
        else:
            growth_streak = 0
        if mag * gate <= UNIT_ROUNDOFF * abs(total):
            rho = _ratio_majorant(spec, abs(qk))
            if rho < 1.0 and mag * rho <= (1.0 - rho) * UNIT_ROUNDOFF * abs(total):
                return total
    if last == stop:
        return total
    raise TruncationExceeded(f"series did not meet its tail bound within {last} terms")


def very_well_poised(a1, rest, q, z) -> complex:
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
    return phi_series(PhiSpec(tuple(nums), tuple(dens), qb, z))


def rogers_6w5_argument(a, b, c, d, q: complex) -> complex:
    """z = a q/(b c d), where :func:`rogers_6w5_rhs` holds: it divides by b c, b d,
    c d and b c d (0 also when one underflows) and needs |z| < 1 (:class:`DomainError`)."""
    if 0 in (b * c, b * d, c * d, b * c * d):
        raise DomainError(f"aq/(bcd) needs b, c, d and their products nonzero, got {b}, {c}, {d}")
    z = a * q / (b * c * d)
    if abs(z) >= 1.0:
        raise DomainError(f"need |a q / (b c d)| < 1, got {abs(z):.6g}")
    return z


def rogers_6w5_rhs(a, b, c, d, q) -> complex:
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
        num *= qpoch_infinite(arg, qb)
    symbols = {"aq/b": aq / b, "aq/c": aq / c, "aq/d": aq / d, "aq/bcd": z}
    den = 1.0 + 0.0j
    for arg in symbols.values():
        den *= qpoch_infinite(arg, qb)
    screen_denominator(symbols, qb, den)
    return num / den


def qbinomial_product_ratio(a, z, q) -> complex:
    """(a z; q)_oo / (z; q)_oo, the product side of the binomial-series
    identity sum_n (a;q)_n z^n / (q;q)_n for |z| < 1."""
    qb = QBase.coerce(q)
    den = qpoch_infinite(z, qb)
    screen_denominator({"z": complex(z)}, qb, den)
    return qpoch_infinite(complex(a) * complex(z), qb) / den


__all__ = [
    "PhiSpec",
    "phi_series",
    "very_well_poised",
    "rogers_6w5_argument",
    "rogers_6w5_rhs",
    "qbinomial_product_ratio",
]
