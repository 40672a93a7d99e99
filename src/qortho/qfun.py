"""The four-parameter q-orthogonal family, its companions and the closed sides of its identities.

Two generating functions define everything here.  With x = e^{i theta},
y = e^{-i theta} on the unit circle,

    sum_n C_n(e^{i theta}) t^n        = (alpha t x, beta t y; q)_oo
                                        / (gamma t x, delta t y; q)_oo,

and at general complex x, y,

    sum_n Phi_n(x, y) t^n / (q;q)_n   = (alpha x t, beta y t; q)_oo
                                        / (gamma x t, delta y t; q)_oo.

Applying the binomial-series identity (a z;q)_oo/(z;q)_oo =
sum_k (a;q)_k z^k/(q;q)_k to each factor pair gives the closed double sum
used throughout:

    C_n = sum_{k=0}^{n} (alpha/gamma;q)_k (beta/delta;q)_{n-k}
          / ((q;q)_k (q;q)_{n-k}) * gamma^k delta^{n-k} e^{i(2k-n)theta},

and Phi_n = (q;q)_n times the same sum with (gamma x)^k (delta y)^{n-k} in
place of the circle phases.  The expansion is unit-tested against a truncated
power-series oracle of the generating function before anything relies on it.

The weight against which the family is orthogonal over a full period is

    omega(theta) = ((gamma/delta) e^{2i theta}, (delta/gamma) e^{-2i theta}; q)_oo
                   / ((alpha/delta) e^{2i theta}, (beta/gamma) e^{-2i theta}; q)_oo.

Every circle integrand is a product of C_n's times quotients of infinite
products, each one :func:`~qortho.kernels.poch_product_many` call: one of
any extra symbols and one of the :func:`weight_symbols`, at one shared head
depth.  The single-parameter cosine family sum_k w_k cos((n-2k) theta),
w = :func:`expansion_weights` at (beta, beta), is C_n at (beta, beta, 1, 1).
One value of any of them is :func:`laurent_at` of its coefficients.

The lattice integral from a to b is the pair of geometric sums

    (1-q) b sum_{k>=0} q^k f(b q^k)  -  (1-q) a sum_{k>=0} q^k f(a q^k),

applied verbatim for complex endpoints.  For the integrand of
:func:`phi_qintegral_repr` each sum is a constant times one 2phi1 per
endpoint (see :func:`_lattice_side`), summed by :func:`~qortho.hyper.phi_series`.

This module imports no numpy: the array paths live in
:mod:`~qortho.kernels`, which :func:`weight_omega_many` imports when called.
"""

from __future__ import annotations

import cmath
import operator
from itertools import accumulate, repeat

from .errors import DomainError, NearSingular
from .hyper import PhiSpec, phi_series
from .qcore import (  # ParamSet4, ReducedParams and the coefficient rows are re-exported
    NEAR_SINGULAR_TOL,
    PRODUCT_TOL,
    TWO_PI,
    ParamSet4,
    QBase,
    ReducedParams,
    as_degree,
    big_c_coeffs,
    connection_coeffs,
    expansion_weights,
    int_power,
    min_factor_abs,
    qpoch_finite,
    qpoch_infinite,
    quotient_depth,
    screen_denominator,
)


def laurent_at(coefs, n: int, theta) -> complex:
    """sum_k coefs[k] e^{i(2k-n)theta} at the one angle ``theta``: C_n there
    for the coefficients :func:`big_c_coeffs`.  The phases are a running
    product from e^{-in theta} by e^{2i theta}, as
    :func:`~qortho.kernels.laurent_eval` forms them on arrays."""
    theta = float(theta)
    step = cmath.exp(2j * theta)
    phase = cmath.exp(-1j * n * theta)
    total = 0.0 + 0.0j
    for c in coefs:
        total += c * phase
        phase *= step
    return total


def phi_eval(n: int, x, y, p: ParamSet4, q) -> complex:
    """Phi_n(x, y) at general complex x, y: the (q;q)_n-scaled double sum in
    powers of (gamma x) and (delta y), formed as running products (they
    overflow to inf).  On the unit circle it reduces to (q;q)_n * C_n."""
    qb = QBase.coerce(q)
    weights = expansion_weights(n, p.ratio_a, p.ratio_b, qb)
    gx_k = list(accumulate(repeat(p.gamma * complex(x), n), operator.mul, initial=1.0 + 0.0j))
    dy_k = list(accumulate(repeat(p.delta * complex(y), n), operator.mul, initial=1.0 + 0.0j))
    total = sum(w * gx_k[k] * dy_k[n - k] for k, w in enumerate(weights))
    return qpoch_finite(qb.q, qb, n) * total


def weight_symbols(p: ParamSet4):
    """(coefficients, exponents) of the weight quotient in the layout of
    :func:`~qortho.kernels.poch_product_many` with split 2: numerators
    gamma/delta, delta/gamma, then denominators alpha/delta, beta/gamma."""
    coefs = p.gamma / p.delta, p.delta / p.gamma, p.alpha / p.delta, p.beta / p.gamma
    return coefs, (2, -2, 2, -2)


def weight_min_denominator(p: ParamSet4, q) -> float:
    """min over theta and k (|w q^k| >= PRODUCT_TOL) of |1 - w q^k e^{+-2i theta}|
    for the two denominator symbols.  The exact minimum over theta of
    |1 - c e^{2i theta}| is |1 - |c||, so only moduli enter."""
    qmag = abs(QBase.coerce(q).q)
    return min(min_factor_abs(abs(w), qmag, PRODUCT_TOL)[0] for w in weight_symbols(p)[0][2:])


def weight_omega_many(thetas, p: ParamSet4, q):
    """Weight values at an array of angles (kernel-backed: this loads numpy).

    The denominator is screened analytically first: a symbol with
    min_k |1 - |w| q^k| below 1e-12 can vanish somewhere on the circle, and
    that check is sharper than any node scan."""
    from . import kernels

    qb = QBase.coerce(q)
    if weight_min_denominator(p, qb) < NEAR_SINGULAR_TOL:
        raise NearSingular("weight denominator can vanish on the circle")
    coefs, exps = weight_symbols(p)
    return kernels.poch_product_many(coefs, exps, qb.q, quotient_depth(coefs, qb), thetas, 2)


def h_norm(n: int, a, q) -> complex:
    """Diagonal normalization of the single-parameter family:

        h_n(a|q) = (q, a^2; q)_oo (q;q)_n (1 - a q^n)
                   / (2 pi (a, a q; q)_oo (a^2; q)_n (1 - a)).
    """
    a = complex(a)
    qb = QBase.coerce(q)
    n = as_degree("n", n)
    if abs(a) >= 1.0:
        raise DomainError(f"|a| must be < 1, got {abs(a):.6g}")
    den_inf = qpoch_infinite(a, qb) * qpoch_infinite(a * qb.q, qb)
    screen_denominator({"a": a, "aq": a * qb.q}, qb, den_inf)
    num = (
        qpoch_infinite(qb.q, qb)
        * qpoch_infinite(a * a, qb)
        * qpoch_finite(qb.q, qb, n)
        * (1.0 - a * qb.q ** n)
    )
    den = TWO_PI * den_inf * qpoch_finite(a * a, qb, n) * (1.0 - a)
    return num / den


def diagonal_prefactor(p: ParamSet4, q) -> complex:
    """2 pi (ra, rb; q)_oo / (q, ra*rb; q)_oo with ra = alpha/gamma,
    rb = beta/delta: the factor in front of both closed diagonals
    (:func:`diag_rhs_thm11` and :func:`thm_1_2_rhs_series`)."""
    qb = QBase.coerce(q)
    ra, rb = p.ratio_a, p.ratio_b
    den_inf = qpoch_infinite(qb.q, qb) * qpoch_infinite(ra * rb, qb)
    screen_denominator({"q": qb.q, "ra*rb": ra * rb}, qb, den_inf)
    return TWO_PI * qpoch_infinite(ra, qb) * qpoch_infinite(rb, qb) / den_inf


def diag_rhs_thm11(n: int, p: ParamSet4, q) -> complex:
    """Closed form of the diagonal full-period integral of C_n^2 against the
    weight:

        h_n = 2 pi (ra, rb; q)_oo / (q, ra*rb; q)_oo
              * (1/(1 - ra q^n) + 1/(1 - rb q^n))
              * (ra*rb; q)_n (gamma delta)^n / (q;q)_n,

    with ra = alpha/gamma, rb = beta/delta: :func:`diagonal_prefactor` times
    one closed term."""
    qb = QBase.coerce(q)
    n = as_degree("n", n)
    ra, rb = p.ratio_a, p.ratio_b
    qn = qb.q ** n
    return (diagonal_prefactor(p, qb) * (1.0 / (1.0 - ra * qn) + 1.0 / (1.0 - rb * qn))
            * qpoch_finite(ra * rb, qb, n) / qpoch_finite(qb.q, qb, n) * int_power(p.gd, n))


def thm_1_2_rhs_series(p: ParamSet4, s: complex, t: complex, q) -> complex:
    """THM_1_2's right-hand side, the generating series sum_n h_n (s t)^n of
    THM_1_1's closed diagonal h_n (:func:`diag_rhs_thm11`).  With c = (ra + rb)/2,
    1/(1 - ra q^n) + 1/(1 - rb q^n) = 2 (1 - c q^n) / ((1 - ra q^n)(1 - rb q^n)),
    1 - c q^n = (1 - c) (cq;q)_n / (c;q)_n and 1/(1 - r q^n) = (r;q)_n / ((1 - r) (rq;q)_n),
    so, summed without a growth test, it is :func:`diagonal_prefactor` times
    2 (1 - c) / ((1 - ra)(1 - rb)) 4phi3(ra*rb, ra, rb, cq; ra q, rb q, c; q, gamma delta s t)."""
    qb = QBase.coerce(q)
    ra, rb = p.ratio_a, p.ratio_b
    c = 0.5 * (ra + rb)
    spec = PhiSpec((ra * rb, ra, rb, c * qb.q), (ra * qb.q, rb * qb.q, c), qb, p.gd * s * t)
    return (diagonal_prefactor(p, qb) * (2.0 * (1.0 - c) / ((1.0 - ra) * (1.0 - rb)))
            * phi_series(spec, growth_test=False))


def thm_1_3_rhs(r: ReducedParams, gamma, delta, q, m: int, n: int) -> complex:
    """THM_1_3's closed form for m >= n, m = n (mod 2): (gamma delta)^n times
    the degree-n connection coefficient of degree m (:func:`connection_coeffs`)
    over :func:`h_norm` h_n(a|q).  Zero for opposite parities, and for m < n:
    the b-family's degree m expands in a-family degrees <= m (PROP_3_1), each
    orthogonal to degree n."""
    if (m - n) % 2 != 0 or m < n:
        return 0.0 + 0.0j
    gd = complex(gamma) * complex(delta)
    return int_power(gd, n) * connection_coeffs(m, r, gd, q)[n] / h_norm(n, r.a, q)


def growth_root(n: int, p: ParamSet4, q) -> float:
    """|C_n(1)|^{1/n}, a single-probe diagnostic for the exponential growth
    rate of the family at theta = 0; approaches max(|gamma|, |delta|).

    C_n(1) grows like M^n with M = max(|gamma|, |delta|) and overflows at
    large n.  C_n is homogeneous of degree n in (alpha, beta, gamma, delta),
    so it is evaluated for the quadruple divided by M and M is put back
    outside the root."""
    n = as_degree("n", n, positive=True)
    scale = max(abs(p.gamma), abs(p.delta))
    unit = ParamSet4(p.alpha / scale, p.beta / scale, p.gamma / scale, p.delta / scale)
    return scale * abs(laurent_at(big_c_coeffs(n, unit, q), n, 0.0)) ** (1.0 / n)


def _lattice_side(e: complex, o: complex, u: complex, v: complex, n: int, qb: QBase) -> complex:
    """sum_k q^k f(e q^k) for the integrand

        f(z) = (q z/e, q z/o; q)_oo z^n / (u z/e, v z/e; q)_oo

    on the lattice of endpoint e, o the other endpoint.  At z = e q^k each
    symbol is a fixed infinite product over a finite one, so with w = q e/o

        sum_k q^k f(e q^k) = K e^n 2phi1(u, v; w; q, q^{n+1}),
        K = (q, w; q)_oo / (u, v; q)_oo,

    the 2phi1 summed by :func:`~qortho.hyper.phi_series` without a growth test."""
    q = qb.q
    w = q * e / o
    k_e = qpoch_infinite(q, qb) * qpoch_infinite(w, qb) / (
        qpoch_infinite(u, qb) * qpoch_infinite(v, qb))
    spec = PhiSpec((u, v), (w,), qb, q ** (n + 1))
    return k_e * int_power(e, n) * phi_series(spec, growth_test=False)


def phi_qintegral_repr(n: int, x, y, p: ParamSet4, q) -> complex:
    """Lattice-integral representation of Phi_n(x, y):

        (ra*rb;q)_n (ra, rb, beta y/(gamma x), alpha x/(delta y); q)_oo
        / ((1-q) delta y (q, ra*rb, gamma x/(delta y), q delta y/(gamma x); q)_oo)
        * integral_{gamma x}^{delta y}
              (q z/(gamma x), q z/(delta y); q)_oo z^n
              / ((beta z/(gamma delta x), alpha z/(gamma delta y); q)_oo)  d_q z,

    with ra = alpha/gamma, rb = beta/delta.  Must agree with
    :func:`phi_eval`; raises :class:`NearSingular` when any
    denominator symbol has a factor within 1e-12 of zero.
    """
    qb = QBase.coerce(q)
    n = as_degree("n", n)
    x = complex(x)
    y = complex(y)
    gx = p.gamma * x
    dy = p.delta * y
    if gx == 0:
        raise DomainError("gamma * x must be nonzero")
    if dy == 0:
        raise DomainError("delta * y must be nonzero")
    if abs(gx - dy) <= 1e-12 * max(abs(gx), abs(dy), 1.0):
        raise NearSingular("gamma*x = delta*y makes the representation singular")

    ra, rb = p.ratio_a, p.ratio_b
    by_gx = p.beta * y / gx
    ax_dy = p.alpha * x / dy
    # Symbols that sit in a denominator anywhere: the prefactor's four infinite
    # products and, across all lattice nodes z in {gx q^k} u {dy q^k}, the
    # integrand's (beta z/(gamma delta x); q)_oo and (alpha z/(gamma delta y); q)_oo
    # chains, which reduce to the last four.  Screened before any product is
    # formed, so the product passed is 1.
    screen_denominator({
        "q": qb.q, "ra*rb": ra * rb, "gx/dy": gx / dy, "q*dy/gx": qb.q * dy / gx,
        "rb": rb,  # beta z/(gamma delta x) at z = gx q^k
        "beta*y/gx": by_gx,  # ... at z = dy q^k
        "alpha*x/dy": ax_dy,  # alpha z/(gamma delta y) at z = gx q^k
        "ra": ra,  # ... at z = dy q^k
    }, qb, 1.0)

    prefactor_num = qpoch_finite(ra * rb, qb, n)
    for arg in (ra, rb, by_gx, ax_dy):
        prefactor_num *= qpoch_infinite(arg, qb)
    prefactor_den = (1.0 - qb.q) * dy
    for arg in (qb.q, ra * rb, gx / dy, qb.q * dy / gx):
        prefactor_den *= qpoch_infinite(arg, qb)
    if abs(prefactor_den) < NEAR_SINGULAR_TOL:
        raise NearSingular("prefactor denominator product is near zero")

    # the integrand's denominator symbols are (u z/e, v z/e; q)_oo with
    # u = beta e/(gamma delta x) and v = alpha e/(gamma delta y) at endpoint e
    integral = (1.0 - qb.q) * (dy * _lattice_side(dy, gx, by_gx, ra, n, qb)
                               - gx * _lattice_side(gx, dy, rb, ax_dy, n, qb))
    return prefactor_num / prefactor_den * integral
