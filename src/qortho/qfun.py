"""The four-parameter q-orthogonal function family and its companions.

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
products (:func:`product_quotient`): one of any extra symbols and one of the
:func:`weight_symbols`, at one shared head depth.  The single-parameter
cosine family sum_k w_k cos((n-2k) theta), w = :func:`expansion_weights` at
(beta, beta), is C_n at (beta, beta, 1, 1).
"""

from __future__ import annotations

import operator
from itertools import accumulate, repeat

import numpy as np

from . import kernels
from .errors import DomainError, NearSingular
from .qcore import (  # ParamSet4, ReducedParams and the coefficient rows are re-exported
    DEFAULT_POLICY,
    NEAR_SINGULAR_TOL,
    TWO_PI,
    ParamSet4,
    QBase,
    ReducedParams,
    TruncationPolicy,
    _poch_row,
    as_degree,
    big_c_coeffs,
    connection_coeffs,
    expansion_weights,
    int_power,
    min_factor_abs,
    qpoch_finite,
    qpoch_infinite,
    screen_denominator,
    tail_start,
)


def big_c_eval_many(n: int, thetas: np.ndarray, p: ParamSet4, q) -> np.ndarray:
    """C_n at an array of angles (kernel-backed)."""
    coefs = big_c_coeffs(n, p, q)
    return kernels.laurent_eval(coefs, n, np.asarray(thetas, dtype=np.float64))


def big_c_at_one(count: int, p: ParamSet4, q) -> np.ndarray:
    """[C_0(1), ..., C_{count-1}(1)] as one convolution: C_n(1) =
    sum_k A_k B_{n-k} with A_k = (ra;q)_k gamma^k / (q;q)_k and
    B_j = (rb;q)_j delta^j / (q;q)_j."""
    qb = QBase.coerce(q)
    k = np.arange(count + 1)
    pq = np.array(_poch_row(qb.q, qb.q, count))
    row_a = np.array(_poch_row(p.ratio_a, qb.q, count)) / pq * p.gamma ** k
    row_b = np.array(_poch_row(p.ratio_b, qb.q, count)) / pq * p.delta ** k
    return np.convolve(row_a, row_b)[:count]


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
    """(numerator coefficients, denominator coefficients, exponents) of the
    weight quotient, in the form :func:`product_quotient` takes."""
    return (p.gamma / p.delta, p.delta / p.gamma), (p.alpha / p.delta, p.beta / p.gamma), (2, -2)


def quotient_depth(coefs, q, policy: TruncationPolicy = DEFAULT_POLICY) -> int:
    """The head depth K of a product quotient with coefficients ``coefs``:
    the :func:`tail_start` of the largest one.  Raises
    :class:`TruncationExceeded` when K exceeds ``policy.max_terms``."""
    return tail_start(max(map(abs, coefs)), q, policy)


def product_quotient(num, den, exps, q, policy: TruncationPolicy = DEFAULT_POLICY,
                     kmax: int | None = None):
    """The map theta -> prod_c (num_c e^{i exps_c theta}; q)_oo
    / prod_c (den_c e^{i exps_c theta}; q)_oo over arrays of angles, one
    kernel call per array.  One head depth K serves every symbol: ``kmax``,
    by default the :func:`quotient_depth` of these symbols."""
    qb = QBase.coerce(q)
    if kmax is None:
        kmax = quotient_depth((*num, *den), qb, policy)
    coefs = np.array((*num, *den), dtype=np.complex128)
    all_exps = np.array((*exps, *exps), dtype=np.float64)
    return lambda thetas: kernels.poch_product_many(coefs, all_exps, qb.q, kmax, thetas,
                                                    len(num))


def weight_min_denominator(p: ParamSet4, q, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """min over theta and the truncation range of |1 - w q^k e^{+-2i theta}|
    for the two denominator symbols.  The exact minimum over theta of
    |1 - c e^{2i theta}| is |1 - |c||, so only moduli enter."""
    qmag = abs(QBase.coerce(q).q)
    return min(
        min_factor_abs(abs(w), qmag, policy.rel_tol)
        for w in (p.alpha / p.delta, p.beta / p.gamma)
    )


def weight_omega_many(
    thetas: np.ndarray, p: ParamSet4, q, policy: TruncationPolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Weight values at an array of angles (kernel-backed).

    The denominator is screened analytically first: a symbol with
    min_k |1 - |w| q^k| below 1e-12 can vanish somewhere on the circle, and
    that check is sharper than any node scan."""
    if weight_min_denominator(p, q, policy) < NEAR_SINGULAR_TOL:
        raise NearSingular("weight denominator can vanish on the circle")
    return product_quotient(*weight_symbols(p), q, policy)(thetas)


def h_norm(n: int, a, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Diagonal normalization of the single-parameter family:

        h_n(a|q) = (q, a^2; q)_oo (q;q)_n (1 - a q^n)
                   / (2 pi (a, a q; q)_oo (a^2; q)_n (1 - a)).
    """
    a = complex(a)
    qb = QBase.coerce(q)
    n = as_degree("n", n)
    if abs(a) >= 1.0:
        raise DomainError(f"|a| must be < 1, got {abs(a):.6g}")
    den_inf = qpoch_infinite(a, qb, policy) * qpoch_infinite(a * qb.q, qb, policy)
    screen_denominator({"a": a, "aq": a * qb.q}, qb, policy, den_inf)
    num = (
        qpoch_infinite(qb.q, qb, policy)
        * qpoch_infinite(a * a, qb, policy)
        * qpoch_finite(qb.q, qb, n)
        * (1.0 - a * qb.q ** n)
    )
    den = TWO_PI * den_inf * qpoch_finite(a * a, qb, n) * (1.0 - a)
    return num / den


def diagonal_prefactor(p: ParamSet4, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """2 pi (ra, rb; q)_oo / (q, ra*rb; q)_oo with ra = alpha/gamma,
    rb = beta/delta: the factor in front of both closed diagonals
    (:func:`diag_rhs_thm11` and the THM_1_2 series)."""
    qb = QBase.coerce(q)
    ra, rb = p.ratio_a, p.ratio_b
    den_inf = qpoch_infinite(qb.q, qb, policy) * qpoch_infinite(ra * rb, qb, policy)
    screen_denominator({"q": qb.q, "ra*rb": ra * rb}, qb, policy, den_inf)
    return TWO_PI * qpoch_infinite(ra, qb, policy) * qpoch_infinite(rb, qb, policy) / den_inf


def diag_rhs_thm11(n: int, p: ParamSet4, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Closed form of the diagonal full-period integral of C_n^2 against the
    weight:

        2 pi (ra, rb; q)_oo / (q, ra*rb; q)_oo
        * (1/(1 - ra q^n) + 1/(1 - rb q^n))
        * (ra*rb; q)_n (gamma delta)^n / (q;q)_n,

    with ra = alpha/gamma, rb = beta/delta."""
    qb = QBase.coerce(q)
    n = as_degree("n", n)
    ra, rb = p.ratio_a, p.ratio_b
    prefactor = diagonal_prefactor(p, qb, policy)
    qn = qb.q ** n
    poles = 1.0 / (1.0 - ra * qn) + 1.0 / (1.0 - rb * qn)
    return (
        prefactor
        * poles
        * qpoch_finite(ra * rb, qb, n)
        * int_power(p.gd, n)
        / qpoch_finite(qb.q, qb, n)
    )


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
    return scale * abs(big_c_eval_many(n, [0.0], unit, q)[0]) ** (1.0 / n)
