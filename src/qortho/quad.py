"""Numerical integration.

Full-period integrals use the equispaced rule

    integral_0^{2pi} f  ~  (2 pi / N) sum_{j<N} f(2 pi j / N),

which for 2pi-periodic analytic integrands converges geometrically in N and
is exact for trigonometric polynomials of degree < N.  Refinement doubles N,
reusing previous evaluations, until successive values agree, the doubled N
would exceed the node cap, or the values stop being finite.  It starts at 64
nodes: the analytic integrands checked here settle by 128-256 (at 128 for
93% of the default sweep draws at degrees up to 6, with the pole correction
below), and each doubling costs as much as everything before it.  The first
two levels come from one integrand call on the 2N-point grid 2 pi j / 2N:
its even nodes are the N-point start grid and its odd nodes that grid's
midpoints, bit for bit, since the two differ only by scalings by powers of
two (the nested rule of Trefethen & Weideman, SIAM Review 56, 2014).  Each
later level evaluates only the midpoints of the grid so far.  Every grid handed to the integrand
has an even length M and holds theta and theta + pi as its j-th and
(j + M/2)-th angle; an integrand that is pi-periodic in part may evaluate
that part on the first half and repeat it.  The grids are read-only
arrays built once per process (:func:`qortho.kernels.angle_table`).

A pole close to the circle slows the plain rule to the rate |a|^{N/2} of
its nearest pole a (Trefethen & Weideman, section 3).  An integrand that
carries a known pole pair, f = g r with z = e^{2i theta} and

    r = 1 / ((1 - a z)(1 - b/z))
      = (sum_{m>=0} a^m z^m + sum_{m>=1} b^m z^-m) / (1 - ab),   |a|, |b| < 1,

as the k = 0 denominator factors put into the orthogonality weight, gets a
corrected rule: each N-point level integrates g r~ instead, r~ the part of
r with |m| < e, e = ceil(N/4).  The tail r - r~ over r is
(a^e z^e (1 - b/z) + b^e z^-e (1 - a z)) / (1 - ab), so with
sigma = z^e at the nodes

    sum_j f_j r~_j / r_j = S - [a^e (A - b A_) + b^e (B - a B^)] / (1 - ab),

    S = sum f,  A = sum sigma f,  A_ = sum sigma f / z,
    B = sum f / sigma,  B^ = sum f z / sigma.

When g is a trigonometric polynomial of degree < N/2, g r~ has degree < N,
which the rule integrates exactly, and g (r - r~) has no constant term, so
the corrected rule is exact; in general its error follows the singularities
of g, not the pole pair.  When 4 divides N, sigma = (-1)^j and B, B^ are
A, sum sigma f z.  These sums are moments of f, one matrix product of each
call's values with a table of columns per grid.  On a doubled grid sigma is
+1 at the nodes so far and -1 at the new midpoints, so the running sums of
f, f z and f / z over the nodes so far and over the midpoints give each
later level: three columns per midpoint call, ten for the first call.
Without poles (a = b = 0) the correction is zero and the rule the plain
one.

Half-period integrals apply the same rule and halve the result.  That equals
the plain [0, pi] integral whenever the integrand's odd circle harmonics
cancel (in particular for every even integrand); all half-period identities
checked by this package are of that form, and the halved full-period rule is
what keeps the convergence geometric.

The lattice integral from a to b is the pair of geometric sums

    (1-q) b sum_{k>=0} q^k f(b q^k)  -  (1-q) a sum_{k>=0} q^k f(a q^k),

applied verbatim for complex endpoints.  For the integrand of
:func:`phi_qintegral_repr` each sum is one term-ratio recurrence per
endpoint (see :func:`_lattice_side`).
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, NearSingular
from .kernels import angle_table
from .qcore import (  # the quadrature types are re-exported from here
    DEFAULT_POLICY,
    DEFAULT_QUADRATURE,
    FULL_PERIOD,
    HALF_PERIOD,
    NEAR_SINGULAR_TOL,
    TWO_PI,
    ParamSet4,
    QBase,
    QuadratureSpec,
    TruncationPolicy,
    as_degree,
    int_power,
    min_factor_abs,
    qpoch_finite,
    qpoch_infinite,
    settled_sum,
)

class QuadResult(NamedTuple):
    value: complex
    nodes: int
    converged: bool
    est_error: float
    fscale: float  # max |f| over evaluated nodes times interval length


def _grid(n: int, midpoints: bool) -> np.ndarray:
    """The angles 2 pi j / n, or with ``midpoints`` 2 pi (j + 1/2) / n,
    j < n, as a read-only :func:`~qortho.kernels.angle_table`."""
    offset = 0.5 if midpoints else 0.0
    return angle_table(("grid", n, midpoints), lambda: TWO_PI * (np.arange(n) + offset) / n)


def _moment_columns(thetas: np.ndarray) -> np.ndarray:
    """The columns 1, z, 1/z at z = e^{2i theta}."""
    z = np.exp(2j * thetas)
    return np.stack((np.ones_like(z), z, z.conj()), axis=1)


def _start_table(count: int, n: int) -> np.ndarray:
    """The moment columns of the first integrand call, on ``count`` = n or
    2n angles 2 pi j / count.  Columns 0-6 sum over the n-point grid (the
    even angles when count = 2n): 1, z, 1/z, sigma, sigma/z, 1/sigma,
    z/sigma with sigma = z^e, e = ceil(n/4), which is (-1)^j times
    e^{i (2e - n/2) theta}, so exactly (-1)^j when 4 divides n.  When
    count = 2n, columns 7-9 sum 1, z, 1/z over the odd angles, the
    midpoints of the n-point grid."""
    def build():
        table = np.zeros((count, 10 if count > n else 7), dtype=np.complex128)
        thetas = _grid(n, False)
        e = -(-n // 4)
        sigma = np.where(np.arange(n) % 2, -1.0, 1.0) * np.exp(1j * (2 * e - n // 2) * thetas)
        columns = _moment_columns(thetas)
        start = table[:: count // n]
        start[:, :3] = columns
        start[:, 3:5] = sigma[:, None] * columns[:, (0, 2)]
        start[:, 5:7] = sigma.conj()[:, None] * columns[:, (0, 1)]
        if count > n:
            table[1::2, 7:] = _moment_columns(_grid(n, True))
        return table

    return angle_table(("start moments", count, n), build)


def _midpoint_table(n: int) -> np.ndarray:
    """The columns 1, z, 1/z at the midpoints of the n-point grid."""
    return angle_table(("midpoint moments", n), lambda: _moment_columns(_grid(n, True)))


def periodic_integral(
    f: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
    *,
    poles: tuple[complex, complex] = (0.0, 0.0),
) -> QuadResult:
    """Integrate a periodic analytic integrand over a full or half period.

    ``f`` must accept an ndarray of angles and return an ndarray of values.
    Its first call gets the 2N-point grid 2 pi j / 2N, N = ``spec.nodes``,
    which holds the start grid and its midpoints (only the N-point grid when
    ``spec.max_nodes`` is below 2N); each later call gets the midpoints of
    the grid so far, and no call takes the node count past
    ``spec.max_nodes``.  Each array it gets is read-only, has an even
    length M and holds theta_j + pi at index j + M/2 for every j < M/2, so
    ``f`` may compute a pi-periodic factor on the first half and repeat it.
    ``interval`` is ``FULL_PERIOD`` or ``HALF_PERIOD``; the half-period mode
    evaluates over the whole period and halves, see the module docstring.

    ``poles`` = (a, b), |a|, |b| < 1, says that f carries the factor
    r = 1/((1 - a e^{2i theta})(1 - b e^{-2i theta})).  Each level's sum
    then drops the part of r beyond the band that the n-point rule
    resolves, in closed form (see the module docstring), so the rule is
    exact whenever f/r is a trigonometric polynomial of degree < n/2, and
    its error no longer decays only like max(|a|, |b|)^{n/2}.  The default
    (0, 0) is the plain rule.

    Never raises on slow convergence: the result carries ``converged=False``
    when no further doubling fits in ``max_nodes`` and the residual is still
    above ``rel_tol``, or when a level's values are not all finite, which
    ends the refinement there.
    """
    if interval == FULL_PERIOD:
        factor = 1.0
    elif interval == HALF_PERIOD:
        factor = 0.5
    else:
        raise DomainError(f"interval must be FULL_PERIOD or HALF_PERIOD, got {interval}")
    a, b = map(complex, poles)
    if not (abs(a) < 1.0 and abs(b) < 1.0):
        raise DomainError(f"poles must lie inside the unit circle, got {poles}")
    length = TWO_PI * factor

    # Python complex arithmetic on the moments: an inf sum times the real
    # weight gives numpy's value without its warning for the 0 * inf
    def rule(n, s0, sigma, sigma_over_z, over_sigma, z_over_sigma):
        e = -(-n // 4)
        tail = (a ** e * (sigma - b * sigma_over_z)
                + b ** e * (over_sigma - a * z_over_sigma)) / (1.0 - a * b)
        return factor * TWO_PI / n * (s0 - tail)

    n = spec.nodes
    count = 2 * n if 2 * n <= spec.max_nodes else n
    values = np.asarray(f(_grid(count, False)), dtype=np.complex128)
    fmax = float(abs(values).max())
    if not math.isfinite(fmax):  # an overflowing integrand: no finer grid settles it
        return QuadResult(factor * TWO_PI / count * complex(values.sum()), count, False,
                          math.inf, fmax * length)
    # finite values only: the tables' zeros would turn an inf into a NaN
    s0, s1, s2, *moments = (values @ _start_table(count, n)).tolist()
    estimate = rule(n, s0, *moments[:4])
    mid = moments[4:]  # the midpoint sums of 1, z, 1/z; none without a doubling

    converged = False
    est_error = math.inf
    while mid:
        m0, m1, m2 = mid
        n *= 2
        # sigma = z^(n/4) is +1 at the nodes so far and -1 at the midpoints
        a0, a1, a2 = s0 - m0, s1 - m1, s2 - m2
        s0, s1, s2 = s0 + m0, s1 + m1, s2 + m2
        refined = rule(n, s0, a0, a2, a0, a1)
        if not cmath.isfinite(refined):
            estimate = refined
            break
        est_error = abs(refined - estimate)
        estimate = refined
        if est_error <= spec.rel_tol * max(abs(estimate), fmax * length):
            converged = True
            break
        if 2 * n > spec.max_nodes:
            break
        values = np.asarray(f(_grid(n, True)), dtype=np.complex128)
        top = float(abs(values).max())
        fmax = max(fmax, top)
        if not math.isfinite(top):
            n *= 2
            estimate = factor * TWO_PI / n * (s0 + complex(values.sum()))
            break
        mid = (values @ _midpoint_table(n)).tolist()
    return QuadResult(complex(estimate), n, converged, est_error, fmax * length)


def _lattice_side(e: complex, o: complex, u: complex, v: complex, n: int, qb: QBase,
                  policy: TruncationPolicy) -> complex:
    """sum_k q^k f(e q^k) for the integrand

        f(z) = (q z/e, q z/o; q)_oo z^n / (u z/e, v z/e; q)_oo

    on the lattice of endpoint e, o the other endpoint.  At z = e q^k each
    symbol is a fixed infinite product over a finite one, so with w = q e/o

        q^k f(e q^k) = K e^n t_k,   K = (q, w; q)_oo / (u, v; q)_oo,
        t_0 = 1,   t_{k+1} / t_k = q^{n+1} (1 - u q^k)(1 - v q^k)
                                   / ((1 - q^{k+1})(1 - w q^k)),

    and the t_k sum stops by :func:`qortho.qcore.settled_sum`."""
    q = qb.q
    w = q * e / o
    ratio = q ** (n + 1)

    def terms():
        t = qk = 1.0 + 0.0j
        for _ in range(policy.max_terms):
            yield t
            t *= ratio * (1.0 - u * qk) * (1.0 - v * qk) / ((1.0 - q * qk) * (1.0 - w * qk))
            qk *= q

    k_e = qpoch_infinite(q, qb, policy) * qpoch_infinite(w, qb, policy) / (
        qpoch_infinite(u, qb, policy) * qpoch_infinite(v, qb, policy))
    return k_e * int_power(e, n) * settled_sum(terms(), policy, "lattice sum")


def phi_qintegral_repr(
    n: int,
    x,
    y,
    p: ParamSet4,
    q,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Lattice-integral representation of Phi_n(x, y):

        (ra*rb;q)_n (ra, rb, beta y/(gamma x), alpha x/(delta y); q)_oo
        / ((1-q) delta y (q, ra*rb, gamma x/(delta y), q delta y/(gamma x); q)_oo)
        * integral_{gamma x}^{delta y}
              (q z/(gamma x), q z/(delta y); q)_oo z^n
              / ((beta z/(gamma delta x), alpha z/(gamma delta y); q)_oo)  d_q z,

    with ra = alpha/gamma, rb = beta/delta.  Must agree with
    :func:`qortho.qfun.phi_eval`; raises :class:`NearSingular` when any
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
    # Symbols that sit in a denominator anywhere: the prefactor's infinite
    # products and, across all lattice nodes z in {gx q^k} u {dy q^k}, the
    # integrand's (beta z/(gamma delta x); q)_oo and (alpha z/(gamma delta y); q)_oo
    # chains reduce to the four bases below.
    denominator_bases = [
        qb.q,
        ra * rb,
        gx / dy,
        qb.q * dy / gx,
        rb,  # beta z/(gamma delta x) at z = gx q^k
        by_gx,  # ... at z = dy q^k
        ax_dy,  # alpha z/(gamma delta y) at z = gx q^k
        ra,  # ... at z = dy q^k
    ]
    for base in denominator_bases:
        if min_factor_abs(base, qb.q, policy.rel_tol) < NEAR_SINGULAR_TOL:
            raise NearSingular(
                f"denominator symbol with base {base} has a factor within "
                f"{NEAR_SINGULAR_TOL} of zero"
            )

    prefactor_num = qpoch_finite(ra * rb, qb, n)
    for arg in (ra, rb, by_gx, ax_dy):
        prefactor_num *= qpoch_infinite(arg, qb, policy)
    prefactor_den = (1.0 - qb.q) * dy
    for arg in (qb.q, ra * rb, gx / dy, qb.q * dy / gx):
        prefactor_den *= qpoch_infinite(arg, qb, policy)
    if abs(prefactor_den) < NEAR_SINGULAR_TOL:
        raise NearSingular("prefactor denominator product is near zero")

    # the integrand's denominator symbols are (u z/e, v z/e; q)_oo with
    # u = beta e/(gamma delta x) and v = alpha e/(gamma delta y) at endpoint e
    integral = (1.0 - qb.q) * (dy * _lattice_side(dy, gx, by_gx, ra, n, qb, policy)
                               - gx * _lattice_side(gx, dy, rb, ax_dy, n, qb, policy))
    return prefactor_num / prefactor_den * integral


__all__ = [
    "FULL_PERIOD",
    "HALF_PERIOD",
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "QuadResult",
    "periodic_integral",
    "phi_qintegral_repr",
]
