"""Independent reference computations for the tests.

These deliberately avoid the library's closed-form expansions: generating
functions are expanded as truncated formal power series (finite products
multiplied out, then long division), and recurrences are iterated directly.
They exist so that expected values are computed, never assumed.
"""

import cmath
import math
from itertools import accumulate, repeat
from operator import mul

import mpmath
import numpy as np

from qortho.hyper import PhiSpec, phi_series
from qortho.qcore import as_base, qpoch_finite, qpoch_infinite


def poch_poly(c, q, order, tol=1e-18):
    """Coefficients in t (degree 0..order) of prod_{k>=0} (1 - c q^k t),
    truncated once |c q^k| < tol."""
    poly = np.zeros(order + 1, dtype=np.complex128)
    poly[0] = 1.0
    w = complex(c)
    guard = 0
    while abs(w) >= tol:
        poly[1:] = poly[1:] - w * poly[:-1]
        w *= q
        guard += 1
        if guard > 100000:
            raise RuntimeError("product truncation did not trigger")
    return poly


def series_mul(a, b, order):
    return np.convolve(a, b)[: order + 1]


def series_div(num, den, order):
    """Long division of truncated power series; den[0] must be nonzero."""
    out = np.zeros(order + 1, dtype=np.complex128)
    for n in range(order + 1):
        acc = num[n] if n < len(num) else 0.0
        for j in range(n):
            acc -= out[j] * den[n - j]
        out[n] = acc / den[0]
    return out


def c_series_oracle(theta, alpha, beta, gamma, delta, q, order):
    """C_0..C_order extracted from the circle generating function
    (alpha t e^{i th}, beta t e^{-i th};q)_oo / (gamma t e^{i th}, delta t e^{-i th};q)_oo."""
    x = np.exp(1j * theta)
    y = np.exp(-1j * theta)
    num = series_mul(poch_poly(alpha * x, q, order), poch_poly(beta * y, q, order), order)
    den = series_mul(poch_poly(gamma * x, q, order), poch_poly(delta * y, q, order), order)
    return series_div(num, den, order)


def phi_series_oracle(x, y, alpha, beta, gamma, delta, q, order):
    """Phi_0..Phi_order from the two-variable generating function; the t^n
    coefficient is Phi_n / (q;q)_n."""
    num = series_mul(poch_poly(alpha * x, q, order), poch_poly(beta * y, q, order), order)
    den = series_mul(poch_poly(gamma * x, q, order), poch_poly(delta * y, q, order), order)
    coefs = series_div(num, den, order)
    qq = 1.0 + 0.0j
    out = np.empty(order + 1, dtype=np.complex128)
    for n in range(order + 1):
        out[n] = coefs[n] * qq
        qq *= 1.0 - q ** (n + 1)
    return out


def ultra_recurrence_oracle(n, theta, beta, q):
    """C_n(cos theta; beta | q) by the three-term recurrence

        (1 - q^{k+1}) C_{k+1} = 2 cos(theta) (1 - beta q^k) C_k
                                - (1 - beta^2 q^{k-1}) C_{k-1},

    seeded with C_0 = 1 and C_1 = 2 cos(theta) (1 - beta)/(1 - q)."""
    c = 2.0 * np.cos(theta)
    prev = 1.0 + 0.0j
    if n == 0:
        return prev
    cur = c * (1.0 - beta) / (1.0 - q)
    for k in range(1, n):
        nxt = (c * (1.0 - beta * q ** k) * cur - (1.0 - beta ** 2 * q ** (k - 1)) * prev) / (
            1.0 - q ** (k + 1)
        )
        prev, cur = cur, nxt
    return cur


def weight_oracle(theta, p, q):
    """The weight at one angle as the quotient of four scalar infinite
    products, each truncated at its own depth; no denominator screen."""
    e2 = cmath.exp(2j * theta)
    num = qpoch_infinite(p.gamma / p.delta * e2, q) * qpoch_infinite(p.delta / p.gamma / e2, q)
    den = qpoch_infinite(p.alpha / p.delta * e2, q) * qpoch_infinite(p.beta / p.gamma / e2, q)
    return num / den


def weight_moment(J, p, q):
    """The w^J coefficient mu_J of the weight, w = e^{2i theta}: with
    a = alpha/delta, b = beta/gamma, c = gamma/delta and d = delta/gamma the
    weight is (c w, d/w; q)_oo / (a w, b/w; q)_oo, and the q-binomial theorem
    (Gasper & Rahman, section 1.3) on each of its two quotients gives, for
    J >= 0,

        mu_J = (c/a; q)_J a^J / (q; q)_J 2phi1(c q^J/a, d/b; q^{J+1}; q, ab),

    one :func:`~qortho.hyper.phi_series` call; J < 0 swaps (a, c) with
    (b, d).  No quadrature, and no product kernel."""
    a, b = p.alpha / p.delta, p.beta / p.gamma
    c, d = p.gamma / p.delta, p.delta / p.gamma
    if J < 0:
        a, b, c, d, J = b, a, d, c, -J
    q = as_base(q)
    head = qpoch_finite(c / a, q, J) * a ** J / qpoch_finite(q, q, J)
    spec = PhiSpec((c * q ** J / a, d / b), (q ** (J + 1),), q, a * b)
    return head * phi_series(spec, growth_test=False)


def circle_lhs_from_moments(c_m, c_n, p, q):
    """The full-period integral of C_m C_n against the weight of ``p``, from
    the coefficient lists ``c_m`` and ``c_n``: the Laurent sum
    sum_k c_k e^{i(2k-D)theta} of their product, D = m + n, meets the
    weight's harmonic mu_J w^J only at J = D/2 - k, so the integral is
    2 pi sum_k c_k mu_{D/2-k}, and exactly 0 at odd D."""
    coefs = np.convolve(c_m, c_n)
    degree = len(coefs) - 1
    if degree % 2:
        return 0.0 + 0.0j
    return 2 * math.pi * sum(c * weight_moment(degree // 2 - k, p, q)
                             for k, c in enumerate(coefs))


def mp_qpoch(a, q):
    """(a;q)_oo at the current mpmath precision by an explicit factor loop,
    stopped once |a q^k| < 10^-dps (mpmath's qp does not converge near
    q = 1)."""
    eps = mpmath.mpf(10) ** -mpmath.mp.dps
    prod = mpmath.mpf(1)
    while abs(a) >= eps:
        prod *= 1 - a
        a *= q
    return prod


def mp_diag_rhs(n_max, p, q):
    """THM_1_1's closed diagonals h_0..h_{n_max} at the current mpmath
    precision, each the product form

        2 pi (ra, rb; q)_oo / (q, ra*rb; q)_oo * (1/(1 - ra q^n) + 1/(1 - rb q^n))
        * (ra*rb; q)_n (gamma delta)^n / (q;q)_n,

    ra = alpha/gamma, rb = beta/delta, its finite products and powers built
    up one factor per degree."""
    alpha, beta, gamma, delta = (mpmath.mpc(complex(v)) for v in p._values())
    q = mpmath.mpc(complex(q))
    ra, rb = alpha / gamma, beta / delta
    prefactor = (2 * mpmath.pi * mp_qpoch(ra, q) * mp_qpoch(rb, q)
                 / (mp_qpoch(q, q) * mp_qpoch(ra * rb, q)))
    out, poch_ratio = [], mpmath.mpf(1)  # (ra*rb;q)_n (gamma delta)^n / (q;q)_n
    for n in range(n_max + 1):
        qn = q ** n
        out.append(prefactor * (1 / (1 - ra * qn) + 1 / (1 - rb * qn)) * poch_ratio)
        poch_ratio *= (1 - ra * rb * qn) * gamma * delta / (1 - q * qn)
    return out


def mp_thm_1_2_rhs(p, s, t, q):
    """THM_1_2's right side at the current mpmath precision: the generating
    series sum_n h_n (s t)^n of :func:`mp_diag_rhs`, cut where
    |gamma delta s t|^n < 10^-(dps + 10); the other factors of h_n stay
    bounded in n."""
    x = abs(complex(p.gamma * p.delta * s * t))
    n_max = math.ceil((mpmath.mp.dps + 10) * math.log(10) / -math.log(x)) if x else 0
    st = mpmath.mpc(complex(s)) * mpmath.mpc(complex(t))
    return mpmath.fsum(h * st ** n for n, h in enumerate(mp_diag_rhs(n_max, p, q)))


def mp_phi_terms(numerators, denominators, q, z, count):
    """The first ``count`` terms (a_1, ...; q)_k z^k / ((q, b_1, ...; q)_k)
    of a basic hypergeometric series at the current mpmath precision, each
    factor of the term ratio multiplied out."""
    numerators = [mpmath.mpmathify(a) for a in numerators]
    denominators = [mpmath.mpmathify(b) for b in denominators]
    q, z = mpmath.mpmathify(q), mpmath.mpmathify(z)
    terms, term, qk = [], mpmath.mpf(1), mpmath.mpf(1)
    for _ in range(count):
        terms.append(term)
        for a in numerators:
            term *= 1 - a * qk
        for b in denominators:
            term /= 1 - b * qk
        term *= z / (1 - q * qk)
        qk *= q
    return terms


def mp_very_well_poised_6w5(a, b, c, d, q, z):
    """The very-well-poised 6phi5 sum

        sum_k (1 - a q^{2k}) / (1 - a) (a, b, c, d; q)_k
              / (q, aq/b, aq/c, aq/d; q)_k z^k

    at the current mpmath precision (real arguments stay real), from its own
    term ratio, not the library's expanded parameter list; stopped after
    three terms in a row below 10^-(dps + 3) of the partial sum."""
    a, b, c, d, q, z = map(mpmath.mpmathify, (a, b, c, d, q, z))
    eps = mpmath.mpf(10) ** -(mpmath.mp.dps + 3)
    aq_b, aq_c, aq_d = a * q / b, a * q / c, a * q / d
    poch, qk, total, small = mpmath.mpf(1), mpmath.mpf(1), mpmath.mpf(0), 0
    while small < 3:
        term = (1 - a * qk * qk) / (1 - a) * poch
        total += term
        small = small + 1 if abs(term) <= eps * abs(total) else 0
        poch *= ((1 - a * qk) * (1 - b * qk) * (1 - c * qk) * (1 - d * qk) * z
                 / ((1 - q * qk) * (1 - aq_b * qk) * (1 - aq_c * qk) * (1 - aq_d * qk)))
        qk *= q
    return total


def lattice_repr_oracle(n, x, y, p, q):
    """The lattice representation of Phi_n node by node: the integrand

        (q z/(gamma x), q z/(delta y); q)_oo z^n
        / (beta z/(gamma delta x), alpha z/(gamma delta y); q)_oo

    from four scalar infinite products at every node z = e q^k, each
    one-sided sum sum_k q^k f(e q^k) stopped after five terms in a row
    below 1e-20 of the partial sum, far below double precision; no screen.
    Returns the value and |prefactor| (1-q) max(|dy S(dy)|, |gx S(gx)|), the
    size of the two one-sided terms that cancel in it."""
    q, x, y = as_base(q), complex(x), complex(y)
    gx, dy = p.gamma * x, p.delta * y
    ra, rb = p.ratio_a, p.ratio_b
    num = qpoch_finite(ra * rb, q, n)
    for arg in (ra, rb, p.beta * y / gx, p.alpha * x / dy):
        num *= qpoch_infinite(arg, q)
    den = (1.0 - q) * dy
    for arg in (q, ra * rb, gx / dy, q * dy / gx):
        den *= qpoch_infinite(arg, q)
    gdx, gdy = p.gamma * p.delta * x, p.gamma * p.delta * y

    def f(z):
        upper = qpoch_infinite(q * z / gx, q) * qpoch_infinite(q * z / dy, q)
        lower = qpoch_infinite(p.beta * z / gdx, q) * qpoch_infinite(p.alpha * z / gdy, q)
        return upper / lower * z ** n

    def side(e):  # e S(e)
        total, small = 0.0, 0
        for qk in accumulate(repeat(q, 100000), mul, initial=1.0 + 0.0j):
            term = qk * f(e * qk)
            total += term
            small = small + 1 if abs(term) <= 1e-20 * abs(total) else 0
            if small == 5:
                return e * total
        raise RuntimeError("lattice sum did not settle")

    outer, inner = side(dy), side(gx)
    value = num / den * ((1.0 - q) * (outer - inner))
    return value, abs(num / den * (1.0 - q)) * max(abs(outer), abs(inner))
