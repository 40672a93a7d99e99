"""``qcore.min_factor_abs`` is the package's one q-chain scan: it decides
``PhiSpec``'s q^{-m} parameters and ``qpoch_infinite``'s exact zeros.  The
two loops it replaced are kept here as references, and both callers must
agree with them on random chains: real, negative and complex; a = q^-m
exactly and slightly off; q = 0 and |q| up to 1 - 1e-9; |a| at and next to
1/2; infinite and NaN arguments."""

import cmath
import math
import random

import pytest

from qortho import DomainError, PhiSpec, TruncationExceeded, qcore, qpoch_infinite
from qortho.qcore import (EXACT_ZERO_FACTOR, NEAR_SINGULAR_TOL, as_base, closing_factors,
                          finite_complex, tail_start)

CHAINS_PER_KIND = 700
KINDS = ("real", "negative", "complex", "q_power", "half", "special")
# relative offsets of a = q^-m (1 + offset): exact, inside and outside both
# EXACT_ZERO_FACTOR and NEAR_SINGULAR_TOL
OFFSETS = (0.0, 1e-13, -1e-13, 4e-16, -4e-16, 2e-15, -2e-15, 1.5e-12, -1.5e-12)
SPECIAL = (math.inf, -math.inf, complex(math.inf, 0.0), complex(0.0, -math.inf),
           math.nan, complex(math.nan, 0.0), complex(math.inf, math.nan))


def reference_poch_zero_index(value, q, tol):
    """Index m >= 0 with value * q^m ~= 1, or None: the first factor of
    (value;q)_k within ``tol`` of 0, scanned while |value q^m| >= 1 - tol."""
    w = complex(value)
    qmag = abs(q)
    m = 0
    while abs(w) >= 1.0 - tol:
        if abs(w - 1.0) < tol:
            return m
        if qmag == 0.0:
            break
        w *= q
        m += 1
    return None


def reference_phispec(numerators, denominators, q, z):
    """``terminates_at`` of PhiSpec(numerators, denominators, q, z), or the
    DomainError it raises: a bad base or a non-finite argument first, then
    each parameter tested by its own zero-index loop."""
    q = as_base(q)
    numerators = [finite_complex("numerator parameter", a) for a in numerators]
    denominators = [finite_complex("denominator parameter", b) for b in denominators]
    z = finite_complex("z", z)
    for b in denominators:
        m = reference_poch_zero_index(b, q, NEAR_SINGULAR_TOL)
        if m is not None:
            raise DomainError(
                f"denominator parameter {b} is q^-{m} to within "
                f"{NEAR_SINGULAR_TOL}; it would zero a product factor"
            )
    stops = [m for a in numerators
             if (m := reference_poch_zero_index(a, q, NEAR_SINGULAR_TOL)) is not None]
    if not stops and abs(z) >= 1.0:
        raise DomainError(
            f"non-terminating series needs |z| < 1, got |z| = {abs(z):.6g}"
        )
    return min(stops) if stops else None


def reference_qpoch_infinite(a, q):
    """(a;q)_oo by two loops: the head factors with |a q^k| > 1/2, each tested
    for an exact zero, then the rest of the head untested."""
    q = as_base(q)
    nterms = tail_start(a, q)
    prod = 1.0 + 0.0j
    w = complex(a)
    k = 0
    while k < nterms and abs(w) > 0.5:
        factor = 1.0 - w
        if abs(factor) < EXACT_ZERO_FACTOR:
            return 0.0 + 0.0j
        prod *= factor
        w *= q
        k += 1
    for _ in range(k, nterms):
        prod *= 1.0 - w
        w *= q
    plus, minus = closing_factors(q)
    return prod * (1.0 - plus * w) * (1.0 - minus * w)


def draw_q(rng):
    """0, or a modulus in [0, 0.95] or within 1e-2..1e-9 of 1, real of either
    sign or complex."""
    shape = rng.randrange(7)
    if shape == 0:
        return rng.choice((0.0, -0.0, 0j))
    mod = rng.uniform(0.0, 0.95) if shape < 4 else 1.0 - 10.0 ** -rng.uniform(2.0, 9.0)
    return rng.choice((mod, -mod, cmath.rect(mod, rng.uniform(-math.pi, math.pi))))


def draw_modulus(rng, q):
    """|a| up to 3, or up to |q|^-40 where |q| > 0.99 keeps the chain that long."""
    if abs(q) > 0.99:
        return abs(q) ** -rng.uniform(0.0, 40.0)
    return rng.uniform(0.0, 3.0)


def draw_chain(rng, kind):
    q = draw_q(rng)
    if kind == "real":
        return draw_modulus(rng, q), q
    if kind == "negative":
        return -draw_modulus(rng, q), q
    if kind == "complex":
        return cmath.rect(draw_modulus(rng, q), rng.uniform(-math.pi, math.pi)), q
    if kind == "q_power":
        m = rng.randint(0, 12) if q else 0
        return q ** -m * (1.0 + rng.choice(OFFSETS)), q
    if kind == "half":
        mod = rng.choice((0.5, math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0)))
        return mod * rng.choice((1, -1, 1j, -1j, cmath.rect(1.0, rng.uniform(-math.pi, math.pi)))), q
    return rng.choice(SPECIAL), q


def chains(kind):
    rng = random.Random(f"chain scan:{kind}")
    return [draw_chain(rng, kind) for _ in range(CHAINS_PER_KIND)]


def outcome(f, *args):
    """repr of the value (it tells -0.0 from 0.0 and prints every digit), or
    the type and message of the error."""
    try:
        return repr(f(*args))
    except (DomainError, TruncationExceeded) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("kind", KINDS)
def test_qpoch_infinite_is_the_two_loop_product_bit_for_bit(kind):
    for a, q in chains(kind):
        assert outcome(qpoch_infinite, a, q) == outcome(reference_qpoch_infinite, a, q), (a, q)


@pytest.mark.parametrize("kind", KINDS)
def test_phispec_terminates_and_refuses_as_the_zero_index_loop(kind):
    """Each chain as a numerator, next to a plain one, and as a denominator,
    at a z that needs termination and at one that does not."""
    for a, q in chains(kind):
        for args in (((a, 0.3), (0.2,), q, 2.0), ((0.3,), (a,), q, 0.5),
                     ((a, 0.5 * a), (), q, 0.5)):
            got = outcome(lambda *spec: PhiSpec(*spec).terminates_at, *args)
            assert got == outcome(reference_phispec, *args), (a, q, args)


def test_truncation_comes_before_an_exact_zero(monkeypatch):
    # a = q^-3 zeroes the factor k = 3, but at q = 0.9999 the head needs
    # about 2e5 factors, beyond MAX_TERMS
    q = 0.9999
    with pytest.raises(TruncationExceeded):
        qpoch_infinite(q ** -3, q)
    monkeypatch.setattr(qcore, "MAX_TERMS", 10 ** 6)
    assert qpoch_infinite(q ** -3, q) == 0
