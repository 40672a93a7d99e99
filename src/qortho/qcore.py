"""Scalar q-product arithmetic, and the parameter types of the package.

Everything in this module is built from the shifted factorial

    (a;q)_0 = 1,    (a;q)_n = prod_{k=0}^{n-1} (1 - a q^k),

together with its infinite extension (a;q)_oo = prod_{k>=0} (1 - a q^k),
which converges for |q| < 1 because the factors approach 1 geometrically.
All functions accept complex scalars; ``q`` may be passed as a plain number
or wrapped in :class:`QBase`.  The parameter types (:class:`ParamSet4`,
:class:`ReducedParams`), :class:`Record`, the base of the package's immutable
records, and the coefficient rows of
the function family (:func:`expansion_weights`, :func:`big_c_coeffs`,
:func:`connection_coeffs`, as lists of complex) live here too, so that the
series checks, PROP_3_1 and the command line run without importing numpy.

Every check runs at one numerical setting, the named constants below (and
the circle rule's start, cap and stop in :mod:`~qortho.quad`); no function
takes a tuning argument.  A function reads a constant when it is called, so
a test may monkeypatch it.
"""

from __future__ import annotations

import cmath
import math
import operator
from itertools import accumulate, repeat

from .errors import DomainError, NearSingular, TruncationExceeded

# A factor |1 - a q^k| below this is treated as an exact zero of the product;
# downstream formulas divide by these symbols, so tiny factors must not leak
# rounding noise into quotients.
EXACT_ZERO_FACTOR = 1e-15

# Magnitude below which a denominator product counts as singular, and how close
# to 1 a series parameter times q^m must come to count as a (w;q)_k factor's zero.
NEAR_SINGULAR_TOL = 1e-12

# The relative truncation error of an infinite product (:func:`tail_start`), within
# the rounding of its head factors; also the |w q^k| floor of the denominator screens.
PRODUCT_TOL = 1e-14
_TAIL_BOUND = PRODUCT_TOL ** (1.0 / 3.0)

# The most factors in a product's head (:func:`tail_start`) and terms in a
# series (:func:`qortho.hyper.phi_series`); beyond it, :class:`TruncationExceeded`.
MAX_TERMS = 10000


def finite_complex(name: str, value) -> complex:
    """``value`` as a complex number; :class:`DomainError` unless it is
    finite (NaN slips through every modulus bound, since comparisons with it
    are false)."""
    z = complex(value)
    if not cmath.isfinite(z):
        raise DomainError(f"{name} must be finite, got {z!r}")
    return z


def int_power(z: complex, n: int) -> complex:
    """z^n for an int n >= 0, as a running product: it overflows to inf,
    where ``**`` on a complex raises :class:`OverflowError`."""
    return math.prod(repeat(z, n), start=1.0 + 0.0j)


def as_degree(name: str, value, positive: bool = False) -> int:
    """``value`` as an int; :class:`DomainError` unless ``operator.index``
    takes it (so 2.0 does not) and it is >= 0, or >= 1 when ``positive``."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or index < int(positive):
        kind = "positive" if positive else "nonnegative"
        raise DomainError(f"{name} must be a {kind} integer, got {value!r}")
    return index


class Record:
    """Base of the package's immutable records.  A subclass names its fields
    in ``_fields`` and sets each once, in ``__init__``, through :meth:`_set`.
    Equality, hash and repr are those of a frozen dataclass: equality and hash
    of the tuple of field values (equality only within one class), repr
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    :class:`AttributeError`."""

    _fields: tuple[str, ...] = ()

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class QBase(Record):
    """The base of all q-products. Construction requires |q| < 1 strictly."""

    _fields = ("q",)

    def __init__(self, q: complex) -> None:
        if abs(finite_complex("q", q)) >= 1.0:
            raise DomainError(f"|q| must be < 1, got |q| = {abs(q):.6g}")
        self._set(q=q)

    @classmethod
    def coerce(cls, q) -> "QBase":
        if isinstance(q, QBase):
            return q
        return cls(complex(q))


class ParamSet4(Record):
    """The quadruple (alpha, beta, gamma, delta) with gamma, delta != 0 and
    |alpha/gamma| <= 1, |beta/delta| <= 1.

    The boundary ratio 1 (alpha = gamma, beta = delta, where the generating
    quotient collapses to 1) is admitted for pointwise evaluation; the
    orthogonality checkers need the strict inequality and their sweep boxes
    stay inside it with margin."""

    _fields = ("alpha", "beta", "gamma", "delta")

    def __init__(self, alpha: complex, beta: complex, gamma: complex, delta: complex) -> None:
        alpha = finite_complex("alpha", alpha)
        beta = finite_complex("beta", beta)
        gamma = finite_complex("gamma", gamma)
        delta = finite_complex("delta", delta)
        if gamma == 0 or delta == 0:
            raise DomainError("gamma and delta must be nonzero")
        if abs(alpha / gamma) > 1.0:
            raise DomainError(f"|alpha/gamma| must be <= 1, got {abs(alpha / gamma):.6g}")
        if abs(beta / delta) > 1.0:
            raise DomainError(f"|beta/delta| must be <= 1, got {abs(beta / delta):.6g}")
        self._set(alpha=alpha, beta=beta, gamma=gamma, delta=delta)

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


class ReducedParams(Record):
    """Reduction parameters (a, b) of the two-family identities; |a|, |b| < 1."""

    _fields = ("a", "b")

    def __init__(self, a: complex, b: complex) -> None:
        a = finite_complex("a", a)
        b = finite_complex("b", b)
        if abs(a) >= 1.0 or abs(b) >= 1.0:
            raise DomainError(
                f"|a| and |b| must be < 1, got |a|={abs(a):.6g}, |b|={abs(b):.6g}"
            )
        self._set(a=a, b=b)


TWO_PI = 2.0 * math.pi
FULL_PERIOD = (0.0, TWO_PI)
HALF_PERIOD = (0.0, math.pi)


def _poch_row(a: complex, q: complex, n: int) -> list[complex]:
    """[(a;q)_0, ..., (a;q)_n] by cumulative products."""
    out = [1.0 + 0.0j]
    w = complex(a)
    for _ in range(n):
        out.append(out[-1] * (1.0 - w))
        w *= q
    return out


def qpoch_finite(a, q, n: int) -> complex:
    """Finite product (a;q)_n. Total for any complex a and n >= 0: the last
    entry of :func:`_poch_row` by the same multiplications, in O(1) memory."""
    q, n, w, prod = QBase.coerce(q).q, as_degree("n", n), complex(a), 1.0 + 0.0j
    for _ in range(n):
        prod, w = prod * (1.0 - w), w * q
    return prod


def closing_factors(q) -> tuple[complex, complex]:
    """The pair (r+, r-) with

        prod_{k>=0} (1 - y q^k) = (1 - r+ y)(1 - r- y) + O(|y/(1-q)|^3),

    which closes a product whose remaining factors have |y| small.  By
    Euler, log prod_{k>=0} (1 - y q^k) = -sum_{j>=1} y^j / (j (1 - q^j))
    (Gasper & Rahman, *Basic Hypergeometric Series*, section 1.3); to second
    order in s = y/(1-q) that is 1 - s + (q/(1+q)) s^2, whose two linear
    factors have r+- = (1 +- sqrt((1-3q)/(1+q))) / (2 (1-q)), complex for
    q > 1/3.  At q = 0 the pair is (1, 0) and the product exact."""
    q = complex(q)
    root = cmath.sqrt((1.0 - 3.0 * q) / (1.0 + q))
    half = 0.5 / (1.0 - q)
    return (1.0 + root) * half, (1.0 - root) * half


def _head_rows(q: complex, kmax: int) -> list[complex]:
    """The kmax + 2 rows p_k of a product whose head has kmax factors:
    1, q, ..., q^(kmax-1) as one running product, then r+ q^kmax and
    r- q^kmax, the :func:`closing_factors` pair in place of the factors from
    kmax on, so that prod_k (1 - p_k w) is (w;q)_oo as :func:`qpoch_infinite`
    forms it."""
    rows = list(accumulate(repeat(q, kmax), operator.mul, initial=1.0 + 0.0j))
    plus, minus = closing_factors(q)
    return [*rows[:-1], rows[-1] * plus, rows[-1] * minus]


def tail_start(a, q) -> int:
    """Smallest K with |a| |q|^K <= (1-|q|) PRODUCT_TOL^(1/3): the head depth
    of (a;q)_oo.  The factors from K on are replaced by the two
    :func:`closing_factors` of y = a q^K, which leaves a relative error
    O(|y/(1-q)|^3), of the order of PRODUCT_TOL.  Raises
    :class:`TruncationExceeded` when K exceeds MAX_TERMS, and when |a| is
    infinite or NaN."""
    mag = abs(complex(a))
    qmag = abs(complex(q) if not isinstance(q, QBase) else q.q)
    bound = (1.0 - qmag) * _TAIL_BOUND
    if mag <= bound:
        return 0
    if qmag == 0.0:
        return 1
    ratio = bound / mag
    # the ratio underflows for |a| beyond about 1e300; then take it in logs
    log_ratio = math.log(ratio) if ratio > 0.0 else math.log(bound) - math.log(mag)
    depth = log_ratio / math.log(qmag)
    if not depth <= MAX_TERMS:  # also an infinite or NaN |a|
        needed = math.ceil(depth) if math.isfinite(depth) else depth
        raise TruncationExceeded(
            f"a product of |a| = {mag:.6g} needs {needed} factors, cap is {MAX_TERMS}"
        )
    return max(math.ceil(depth), 0)


def quotient_depth(coefs, q) -> int:
    """The head depth K of a product quotient with coefficients ``coefs``:
    the :func:`tail_start` of the largest one, and its errors."""
    return tail_start(max(map(abs, coefs)), q)


def qpoch_infinite(a, q) -> complex:
    """Infinite product (a;q)_oo: the :func:`tail_start` factors 1 - a q^k,
    then the two :func:`closing_factors` of the rest, which leave a relative
    truncation error of the order of PRODUCT_TOL.

    Returns exactly 0 when :func:`min_factor_abs` finds a factor within
    EXACT_ZERO_FACTOR (1e-15) of 0 (a = q^-k), so quotient formulas can
    detect the singular symbols downstream; only factors with |a q^k| >= 1/2
    can be that small.  :class:`TruncationExceeded`, for a head beyond
    MAX_TERMS, comes first.
    """
    qb = QBase.coerce(q)
    q = qb.q
    nterms = tail_start(a, qb)
    w = complex(a)
    if min_factor_abs(w, q, 0.5)[0] < EXACT_ZERO_FACTOR:
        return 0.0 + 0.0j
    prod = 1.0 + 0.0j
    for _ in range(nterms):
        prod *= 1.0 - w
        w *= q
    plus, minus = closing_factors(q)
    return prod * (1.0 - plus * w) * (1.0 - minus * w)


def min_factor_abs(a, q, floor: float) -> tuple[float, int | None]:
    """The package's one q-chain scan: (gap, k), gap = min(1, min_k |1 - a q^k|)
    over the k with |a q^k| >= floor, k the first index of that minimum, or
    None when no factor is below 1.  It finds a product's exact zero, a
    near-singular denominator and a q^-m that ends a series.  With the moduli
    |a| and |q| it bounds the factors of (a e^{i theta}; q)_oo over all
    theta.  An infinite or NaN |a q^k| ends the scan."""
    smallest, where = 1.0, None
    w = a
    k = 0
    while floor <= abs(w) < math.inf:  # an infinite a has no finite factor
        gap = abs(1.0 - w)
        if gap < smallest:
            smallest, where = gap, k
        # every later factor has |1 - w q^j| >= 1 - |w| >= smallest
        if q == 0 or abs(w) <= 1.0 - smallest:
            break
        w *= q
        k += 1
    return smallest, where


def screen_denominator(symbols, qb: QBase, product: complex) -> None:
    """Raise :class:`NearSingular` when some factor 1 - w q^k of a symbol
    (name -> w) of the denominator ``product`` = prod_w (w;q)_oo with
    |w q^k| >= PRODUCT_TOL is below NEAR_SINGULAR_TOL, or when the product is
    exactly 0.  Its magnitude alone says nothing: at q = 0.95, (q;q)_oo is
    about 1e-13 with every factor >= 0.05."""
    for name, w in symbols.items():
        smallest, _ = min_factor_abs(w, qb.q, PRODUCT_TOL)
        if smallest < NEAR_SINGULAR_TOL:
            raise NearSingular(
                f"({name};q)_oo has a factor of magnitude {smallest:.3g}, "
                f"below {NEAR_SINGULAR_TOL}"
            )
    if product == 0:
        raise NearSingular(f"denominator ({', '.join(symbols)};q)_oo is exactly 0")


def expansion_weights(n: int, ra: complex, rb: complex, q) -> list[complex]:
    """The n+1 coefficients (ra;q)_k (rb;q)_{n-k} / ((q;q)_k (q;q)_{n-k}),
    k = 0..n; NaN where (q;q)_k or (q;q)_{n-k} underflows to 0 (q near 1)."""
    qb = QBase.coerce(q)
    n = as_degree("n", n)
    pa = _poch_row(ra, qb.q, n)
    pb = _poch_row(rb, qb.q, n)
    pq = [x or cmath.nan for x in _poch_row(qb.q, qb.q, n)]
    return [pa[k] / pq[k] * (pb[n - k] / pq[n - k]) for k in range(n + 1)]


def big_c_coeffs(n: int, p: ParamSet4, q) -> list[complex]:
    """Laurent coefficients c_k of C_n(e^{i theta}) = sum_k c_k e^{i(2k-n)theta},
    with running products for powers (they overflow to inf; ``**`` raises)."""
    weights = expansion_weights(n, p.ratio_a, p.ratio_b, q)
    gamma_k = list(accumulate(repeat(p.gamma, n), operator.mul, initial=1.0 + 0.0j))
    delta_k = list(accumulate(repeat(p.delta, n), operator.mul, initial=1.0 + 0.0j))
    return [w * gamma_k[k] * delta_k[n - k] for k, w in enumerate(weights)]


def connection_coeffs(m: int, r: ReducedParams, gamma_delta, q) -> list[complex]:
    """Coefficients linking degree m of the b-family to degrees n <= m of the
    a-family (both at the same gamma, delta):

        coeff_n = (1 - a q^n) (b/a;q)_j (b;q)_{(m+n)/2} (a gamma delta)^j
                  / ((q;q)_j (a;q)_{(m+n)/2 + 1}),    j = (m-n)/2,

    for n = m, m-2, ...; entries of the opposite parity are zero."""
    if r.a == 0:
        raise DomainError("connection coefficients need a != 0")
    m = as_degree("m", m)
    qb = QBase.coerce(q)
    gd = complex(gamma_delta)
    out = [0.0 + 0.0j] * (m + 1)
    for n in range(m % 2, m + 1, 2):
        j = (m - n) // 2
        half_sum = (m + n) // 2
        out[n] = (
            (1.0 - r.a * qb.q ** n)
            * qpoch_finite(r.b / r.a, qb, j)
            * qpoch_finite(r.b, qb, half_sum)
            / (qpoch_finite(qb.q, qb, j) * qpoch_finite(r.a, qb, half_sum + 1))
            * int_power(r.a * gd, j)
        )
    return out
