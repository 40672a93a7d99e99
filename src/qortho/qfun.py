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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DomainError, NearSingular
from .qcore import (
    DEFAULT_POLICY,
    NEAR_SINGULAR_TOL,
    QBase,
    TruncationPolicy,
    finite_complex,
    min_factor_abs,
    qpoch_finite,
    qpoch_infinite,
    tail_start,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ParamSet4:
    """The quadruple (alpha, beta, gamma, delta) with gamma, delta != 0 and
    |alpha/gamma| <= 1, |beta/delta| <= 1.

    The boundary ratio 1 (alpha = gamma, beta = delta, where the generating
    quotient collapses to 1) is admitted for pointwise evaluation; the
    orthogonality checkers need the strict inequality and their sweep boxes
    stay inside it with margin."""

    alpha: complex
    beta: complex
    gamma: complex
    delta: complex

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "delta"):
            object.__setattr__(self, name, finite_complex(name, getattr(self, name)))
        if self.gamma == 0 or self.delta == 0:
            raise DomainError("gamma and delta must be nonzero")
        if abs(self.ratio_a) > 1.0:
            raise DomainError(
                f"|alpha/gamma| must be <= 1, got {abs(self.ratio_a):.6g}"
            )
        if abs(self.ratio_b) > 1.0:
            raise DomainError(f"|beta/delta| must be <= 1, got {abs(self.ratio_b):.6g}")

    @property
    def ratio_a(self) -> complex:
        return self.alpha / self.gamma

    @property
    def ratio_b(self) -> complex:
        return self.beta / self.delta

    @property
    def gd(self) -> complex:
        """The product gamma*delta, the only combination entering diagonals."""
        return self.gamma * self.delta

    @classmethod
    def from_reduced(cls, a, gamma, delta) -> "ParamSet4":
        """The reduced family alpha = a*gamma, beta = a*delta."""
        return cls(complex(a) * complex(gamma), complex(a) * complex(delta),
                   complex(gamma), complex(delta))


@dataclass(frozen=True)
class ReducedParams:
    """Reduction parameters (a, b) of the two-family identities; |a|, |b| < 1."""

    a: complex
    b: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", finite_complex("a", self.a))
        object.__setattr__(self, "b", finite_complex("b", self.b))
        if abs(self.a) >= 1.0 or abs(self.b) >= 1.0:
            raise DomainError(
                f"|a| and |b| must be < 1, got |a|={abs(self.a):.6g}, "
                f"|b|={abs(self.b):.6g}"
            )


@dataclass(frozen=True)
class EvaluationPoint:
    """Angle theta with derived unit-circle coordinates x = e^{i theta},
    y = e^{-i theta}; theta is normalized into [0, 2*pi)."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)

    @property
    def x(self) -> complex:
        return complex(math.cos(self.theta), math.sin(self.theta))

    @property
    def y(self) -> complex:
        return complex(math.cos(self.theta), -math.sin(self.theta))

    @classmethod
    def coerce(cls, value) -> "EvaluationPoint":
        if isinstance(value, EvaluationPoint):
            return value
        return cls(float(value))


def _poch_row(a: complex, q: complex, n: int) -> np.ndarray:
    """[(a;q)_0, ..., (a;q)_n] by cumulative products."""
    out = np.empty(n + 1, dtype=np.complex128)
    out[0] = 1.0
    w = complex(a)
    for k in range(1, n + 1):
        out[k] = out[k - 1] * (1.0 - w)
        w *= q
    return out


def expansion_weights(n: int, ra: complex, rb: complex, q) -> np.ndarray:
    """The n+1 coefficients (ra;q)_k (rb;q)_{n-k} / ((q;q)_k (q;q)_{n-k}),
    k = 0..n, shared by every double-sum evaluation."""
    qb = QBase.coerce(q)
    pa = _poch_row(ra, qb.q, n)
    pb = _poch_row(rb, qb.q, n)
    pq = _poch_row(qb.q, qb.q, n)
    return (pa / pq) * (pb / pq)[::-1]


def big_c_coeffs(n: int, p: ParamSet4, q) -> np.ndarray:
    """Laurent coefficients c_k of C_n(e^{i theta}) = sum_k c_k e^{i(2k-n)theta}."""
    qb = QBase.coerce(q)
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    k = np.arange(n + 1)
    return (
        expansion_weights(n, p.ratio_a, p.ratio_b, qb)
        * p.gamma ** k
        * p.delta ** (n - k)
    )


def big_c_eval(n: int, pt, p: ParamSet4, q) -> complex:
    """C_n at the point e^{i theta}; ``pt`` may be an EvaluationPoint or a
    bare angle in radians."""
    theta = EvaluationPoint.coerce(pt).theta
    coefs = big_c_coeffs(n, p, q)
    harmonics = 2 * np.arange(n + 1) - n
    return complex(np.sum(coefs * np.exp(1j * harmonics * theta)))


def big_c_eval_many(n: int, thetas: np.ndarray, p: ParamSet4, q) -> np.ndarray:
    """C_n at an array of angles (kernel-backed)."""
    coefs = big_c_coeffs(n, p, q)
    return kernels.laurent_eval(coefs, n, np.asarray(thetas, dtype=np.float64))


def phi_eval(n: int, x, y, p: ParamSet4, q) -> complex:
    """Phi_n(x, y) at general complex x, y: the (q;q)_n-scaled double sum in
    powers of (gamma x) and (delta y).  On the unit circle it reduces to
    (q;q)_n * C_n."""
    qb = QBase.coerce(q)
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    k = np.arange(n + 1)
    gx = p.gamma * complex(x)
    dy = p.delta * complex(y)
    total = np.sum(expansion_weights(n, p.ratio_a, p.ratio_b, qb) * gx ** k * dy ** (n - k))
    return complex(qpoch_finite(qb.q, qb, n) * total)


def cq_ultraspherical(n: int, theta: float, beta, q) -> complex:
    """The single-parameter circle polynomial

        sum_{k=0}^{n} (beta;q)_k (beta;q)_{n-k} / ((q;q)_k (q;q)_{n-k})
                      * cos((n-2k) theta),

    real-valued for real beta."""
    qb = QBase.coerce(q)
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    w = expansion_weights(n, complex(beta), complex(beta), qb)
    harmonics = n - 2 * np.arange(n + 1)
    return complex(np.sum(w * np.cos(harmonics * float(theta))))


def cq_ultraspherical_many(n: int, thetas: np.ndarray, beta, q) -> np.ndarray:
    """Vectorized cosine-sum evaluation at an array of angles."""
    qb = QBase.coerce(q)
    w = expansion_weights(n, complex(beta), complex(beta), qb)
    harmonics = n - 2 * np.arange(n + 1)
    return np.cos(np.outer(np.asarray(thetas, dtype=np.float64), harmonics)) @ w


def _weight_symbol_sets(p: ParamSet4):
    """(numerator coefs/exps, denominator coefs/exps) of the weight quotient."""
    num = np.array([p.gamma / p.delta, p.delta / p.gamma], dtype=np.complex128)
    den = np.array([p.alpha / p.delta, p.beta / p.gamma], dtype=np.complex128)
    exps = np.array([2, -2], dtype=np.int64)
    return num, exps, den, exps


def weight_kmax(p: ParamSet4, q, policy: TruncationPolicy = DEFAULT_POLICY) -> int:
    """Truncation depth covering every symbol of the weight quotient."""
    num, _, den, _ = _weight_symbol_sets(p)
    biggest = max(np.max(np.abs(num)), np.max(np.abs(den)))
    return tail_start(biggest, q, policy)


def weight_min_denominator(p: ParamSet4, q, policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """min over theta and the truncation range of |1 - w q^k e^{+-2i theta}|
    for the two denominator symbols.  The exact minimum over theta of
    |1 - c e^{2i theta}| is |1 - |c||, so only moduli enter."""
    qmag = abs(QBase.coerce(q).q)
    return min(
        min_factor_abs(abs(w), qmag, policy.rel_tol)
        for w in (p.alpha / p.delta, p.beta / p.gamma)
    )


def weight_omega(pt, p: ParamSet4, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """The orthogonality weight at one angle, as the quotient of four infinite
    products.  Raises :class:`NearSingular` when a denominator product drops
    below 1e-12 in magnitude."""
    theta = EvaluationPoint.coerce(pt).theta
    qb = QBase.coerce(q)
    e2 = complex(math.cos(2 * theta), math.sin(2 * theta))
    num = qpoch_infinite(p.gamma / p.delta * e2, qb, policy) * qpoch_infinite(
        p.delta / p.gamma / e2, qb, policy
    )
    den = qpoch_infinite(p.alpha / p.delta * e2, qb, policy) * qpoch_infinite(
        p.beta / p.gamma / e2, qb, policy
    )
    if abs(den) < NEAR_SINGULAR_TOL:
        raise NearSingular(
            f"weight denominator magnitude {abs(den):.3g} below {NEAR_SINGULAR_TOL}"
        )
    return num / den


def weight_omega_many(
    thetas: np.ndarray, p: ParamSet4, q, policy: TruncationPolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Weight values at an array of angles (kernel-backed).

    The denominator is screened analytically first: a symbol with
    min_k |1 - |w| q^k| below 1e-12 can vanish somewhere on the circle, and
    that check is sharper than any node scan."""
    if weight_min_denominator(p, q, policy) < NEAR_SINGULAR_TOL:
        raise NearSingular("weight denominator can vanish on the circle")
    qb = QBase.coerce(q)
    kmax = weight_kmax(p, qb, policy)
    num_c, num_e, den_c, den_e = _weight_symbol_sets(p)
    thetas = np.asarray(thetas, dtype=np.float64)
    num = kernels.poch_product_many(num_c, num_e, qb.q, kmax, thetas)
    den = kernels.poch_product_many(den_c, den_e, qb.q, kmax, thetas)
    return num / den


def h_norm(n: int, a, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Diagonal normalization of the single-parameter family:

        h_n(a|q) = (q, a^2; q)_oo (q;q)_n (1 - a q^n)
                   / (2 pi (a, a q; q)_oo (a^2; q)_n (1 - a)).
    """
    a = complex(a)
    qb = QBase.coerce(q)
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    if abs(a) >= 1.0:
        raise DomainError(f"|a| must be < 1, got {abs(a):.6g}")
    den_inf = qpoch_infinite(a, qb, policy) * qpoch_infinite(a * qb.q, qb, policy)
    if abs(den_inf) < NEAR_SINGULAR_TOL:
        raise NearSingular(
            f"(a;q)_oo (aq;q)_oo magnitude {abs(den_inf):.3g} below {NEAR_SINGULAR_TOL}"
        )
    num = (
        qpoch_infinite(qb.q, qb, policy)
        * qpoch_infinite(a * a, qb, policy)
        * qpoch_finite(qb.q, qb, n)
        * (1.0 - a * qb.q ** n)
    )
    den = TWO_PI * den_inf * qpoch_finite(a * a, qb, n) * (1.0 - a)
    return num / den


def diag_rhs_thm11(n: int, p: ParamSet4, q, policy: TruncationPolicy = DEFAULT_POLICY) -> complex:
    """Closed form of the diagonal full-period integral of C_n^2 against the
    weight:

        2 pi (ra, rb; q)_oo / (q, ra*rb; q)_oo
        * (1/(1 - ra q^n) + 1/(1 - rb q^n))
        * (ra*rb; q)_n (gamma delta)^n / (q;q)_n,

    with ra = alpha/gamma, rb = beta/delta."""
    qb = QBase.coerce(q)
    if n < 0:
        raise DomainError("n must be a nonnegative integer")
    ra, rb = p.ratio_a, p.ratio_b
    den_inf = qpoch_infinite(qb.q, qb, policy) * qpoch_infinite(ra * rb, qb, policy)
    if abs(den_inf) < NEAR_SINGULAR_TOL:
        raise NearSingular(
            f"(q, ra*rb; q)_oo magnitude {abs(den_inf):.3g} below {NEAR_SINGULAR_TOL}"
        )
    prefactor = TWO_PI * qpoch_infinite(ra, qb, policy) * qpoch_infinite(rb, qb, policy) / den_inf
    qn = qb.q ** n
    poles = 1.0 / (1.0 - ra * qn) + 1.0 / (1.0 - rb * qn)
    return (
        prefactor
        * poles
        * qpoch_finite(ra * rb, qb, n)
        * p.gd ** n
        / qpoch_finite(qb.q, qb, n)
    )


def connection_coeffs(m: int, r: ReducedParams, gamma_delta, q) -> np.ndarray:
    """Coefficients linking degree m of the b-family to degrees n <= m of the
    a-family (both at the same gamma, delta):

        coeff_n = (1 - a q^n) (b/a;q)_j (b;q)_{(m+n)/2} (a gamma delta)^j
                  / ((q;q)_j (a;q)_{(m+n)/2 + 1}),    j = (m-n)/2,

    for n = m, m-2, ...; entries of the opposite parity are zero."""
    if r.a == 0:
        raise DomainError("connection coefficients need a != 0")
    if m < 0:
        raise DomainError("m must be a nonnegative integer")
    qb = QBase.coerce(q)
    gd = complex(gamma_delta)
    out = np.zeros(m + 1, dtype=np.complex128)
    for n in range(m % 2, m + 1, 2):
        j = (m - n) // 2
        half_sum = (m + n) // 2
        out[n] = (
            (1.0 - r.a * qb.q ** n)
            * qpoch_finite(r.b / r.a, qb, j)
            * qpoch_finite(r.b, qb, half_sum)
            / (qpoch_finite(qb.q, qb, j) * qpoch_finite(r.a, qb, half_sum + 1))
            * (r.a * gd) ** j
        )
    return out


def growth_root(n: int, p: ParamSet4, q) -> float:
    """|C_n(1)|^{1/n}, a single-probe diagnostic for the exponential growth
    rate of the family at theta = 0; approaches max(|gamma|, |delta|).

    C_n(1) grows like M^n with M = max(|gamma|, |delta|) and overflows at
    large n.  C_n is homogeneous of degree n in (alpha, beta, gamma, delta),
    so it is evaluated for the quadruple divided by M and M is put back
    outside the root."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    scale = max(abs(p.gamma), abs(p.delta))
    unit = ParamSet4(p.alpha / scale, p.beta / scale, p.gamma / scale, p.delta / scale)
    return scale * abs(big_c_eval(n, 0.0, unit, q)) ** (1.0 / n)
