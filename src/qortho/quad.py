"""Numerical integration.

Full-period integrals use the equispaced rule

    integral_0^{2pi} f  ~  (2 pi / N) sum_{j<N} f(2 pi j / N),

which for 2pi-periodic analytic integrands converges geometrically in N and
is exact for trigonometric polynomials of degree < N.  Refinement doubles N,
reusing previous evaluations, until successive values agree, the doubled N
would exceed the node cap, or the values stop being finite.  It starts at 64
nodes: the analytic integrands checked here settle by 128-256, and each
doubling costs as much as everything before it.  The first two levels come
from one integrand call on the 2N-point grid 2 pi j / 2N: its even nodes are
the N-point start grid and its odd nodes that grid's midpoints, bit for bit,
since the two differ only by scalings by powers of two (the nested rule of
Trefethen & Weideman, SIAM Review 56, 2014).  Each later level evaluates
only the midpoints of the grid so far.  Every grid handed to the integrand
has an even length M and holds theta and theta + pi as its j-th and
(j + M/2)-th angle; an integrand that is pi-periodic in part may evaluate
that part on the first half and repeat it.  The grids are read-only
arrays built once per process (:func:`qortho.kernels.angle_table`).

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


def _level_values(f, spec: QuadratureSpec):
    """The integrand's values level by level: the start grid of N =
    ``spec.nodes`` angles, then the midpoints of each grid so far while the
    doubled grid holds at most ``spec.max_nodes`` angles.  The first two
    levels come from one call on the 2N-point grid whenever 2N <= max_nodes,
    so the node counts are those of one call per level."""
    n = spec.nodes
    if 2 * n > spec.max_nodes:
        yield np.asarray(f(_grid(n, False)), dtype=np.complex128)
        return
    values = np.asarray(f(_grid(2 * n, False)), dtype=np.complex128)
    yield values[::2]
    yield values[1::2]
    n *= 2
    while 2 * n <= spec.max_nodes:
        # midpoints of the current grid = the odd nodes of the doubled grid
        yield np.asarray(f(_grid(n, True)), dtype=np.complex128)
        n *= 2


def _grid(n: int, midpoints: bool) -> np.ndarray:
    """The angles 2 pi j / n, or with ``midpoints`` 2 pi (j + 1/2) / n,
    j < n, as a read-only :func:`~qortho.kernels.angle_table`."""
    offset = 0.5 if midpoints else 0.0
    return angle_table(("grid", n, midpoints), lambda: TWO_PI * (np.arange(n) + offset) / n)


def periodic_integral(
    f: Callable[[np.ndarray], np.ndarray],
    interval: tuple[float, float],
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
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
    length = TWO_PI * factor

    levels = _level_values(f, spec)
    values = next(levels)
    n = spec.nodes
    # Python complex arithmetic from here on: an inf sum times the real
    # weight gives numpy's value without its warning for the 0 * inf
    running_sum = complex(values.sum())
    fmax = float(np.max(np.abs(values))) if values.size else 0.0
    estimate = factor * TWO_PI / n * running_sum

    converged = False
    est_error = math.inf
    for new_values in levels:
        running_sum += complex(new_values.sum())
        fmax = max(fmax, float(np.max(np.abs(new_values))))
        n *= 2
        refined = factor * TWO_PI / n * running_sum
        if not cmath.isfinite(refined):
            estimate = refined
            break  # an overflowing integrand: no finer grid settles it
        est_error = abs(refined - estimate)
        estimate = refined
        scale = max(abs(estimate), fmax * length)
        if est_error <= spec.rel_tol * scale:
            converged = True
            break
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
