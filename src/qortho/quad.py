"""The circle rule: numerical integration over one period.

Integrals over [0, 2 pi) use the equispaced rule

    integral_0^{2pi} f  ~  (2 pi / N) sum_{j<N} f(2 pi j / N),

which for 2pi-periodic analytic integrands converges geometrically in N and
is exact for trigonometric polynomials of degree < N.  Refinement doubles N,
reusing previous evaluations, until successive values agree to REL_TOL
(1e-10), the doubled N would exceed MAX_NODES (8192), or the values stop
being finite.  These two and the start grid, START_NODES (64), are the
rule's one setting, which :func:`periodic_integral` reads when called.  It
starts at 64 nodes: the analytic integrands checked here settle by 128-256
(at 128 for 93% of the default sweep draws at degrees up to 6, with the pole
correction below), and a level's fixed cost, not its node count, dominates:
one 16-node call costs 55-81% of a default check, and on 3000 benchmark
checks (2 vCPUs) a 32-node start ran 3537-4094 checks/s against 4048-4858
from 64.  The first
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
of g, not the pole pair.  These five sums are moments of f: the values of
the nodes evaluated so far are kept in the order of the grid, and level N
multiplies those of its N nodes by one read-only N x 5 table of the columns
1, sigma, sigma/z, 1/sigma, z/sigma, built once per N.  Without poles
(a = b = 0) the correction is zero and the rule the plain one.

With :mod:`~qortho.kernels`, this is the package's only numpy code; the
lattice integral of PROP_2_4 needs no array and lives in :mod:`~qortho.qfun`.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError
from .kernels import angle_table
from .qcore import TWO_PI

# The rule's start grid, its node cap and the agreement of two successive
# levels at which it stops.
START_NODES = 64
MAX_NODES = 8192
REL_TOL = 1e-10


class QuadResult(NamedTuple):
    value: complex
    nodes: int
    converged: bool
    est_error: float
    fscale: float  # max |f| over evaluated nodes times 2 pi


def _grid(n: int, midpoints: bool) -> np.ndarray:
    """The angles 2 pi j / n, or with ``midpoints`` 2 pi (j + 1/2) / n,
    j < n, as a read-only :func:`~qortho.kernels.angle_table`."""
    offset = 0.5 if midpoints else 0.0
    return angle_table(("grid", n, midpoints), lambda: TWO_PI * (np.arange(n) + offset) / n)


def _moment_table(n: int) -> np.ndarray:
    """The n x 5 columns 1, sigma, sigma/z, 1/sigma, z/sigma at the angles
    2 pi j / n, with z = e^{2i theta} and sigma = z^e, e = ceil(n/4).  The
    angle 2e theta_j is taken as the grid angle of index 2ej mod n, so sigma
    does not lose the digits of e theta."""
    def build():
        thetas = _grid(n, False)
        z = np.exp(2j * thetas)
        sigma = np.exp(1j * thetas[2 * -(-n // 4) * np.arange(n) % n])
        return np.stack((np.ones_like(z), sigma, sigma / z, sigma.conj(), z * sigma.conj()),
                        axis=1)

    return angle_table(("moments", n), build)


def periodic_integral(f: Callable[[np.ndarray], np.ndarray], *,
                      poles: tuple[complex, complex] = (0.0, 0.0)) -> QuadResult:
    """Integrate a 2 pi-periodic analytic integrand over [0, 2 pi).

    ``f`` must accept an ndarray of angles and return an ndarray of values.
    Its first call gets the 2N-point grid 2 pi j / 2N, N = START_NODES,
    which holds the start grid and its midpoints; each later call gets the
    midpoints of the grid so far, and no call takes the node count past
    MAX_NODES.  Each array it gets is read-only, has an even length M and
    holds theta_j + pi at index j + M/2 for every j < M/2, so ``f`` may
    compute a pi-periodic factor on the first half and repeat it.

    ``poles`` = (a, b), |a|, |b| < 1, says that f carries the factor
    r = 1/((1 - a e^{2i theta})(1 - b e^{-2i theta})).  Each level's sum
    then drops the part of r beyond the band that the n-point rule
    resolves, in closed form (see the module docstring), so the rule is
    exact whenever f/r is a trigonometric polynomial of degree < n/2, and
    its error no longer decays only like max(|a|, |b|)^{n/2}.  The default
    (0, 0) is the plain rule.

    Never raises on slow convergence: the result carries ``converged=False``
    when no further doubling fits in MAX_NODES and the residual is still
    above REL_TOL.  A call that returns a value that is not finite, or
    a level whose sum is not, ends the refinement: the result is then the
    plain sum over every node evaluated, with ``converged=False`` and
    ``est_error`` infinite.
    """
    a, b = map(complex, poles)
    if not (abs(a) < 1.0 and abs(b) < 1.0):
        raise DomainError(f"poles must lie inside the unit circle, got {poles}")

    def rule(n):
        """The corrected n-point rule on every (len(values) / n)-th value."""
        s0, sigma, sigma_over_z, over_sigma, z_over_sigma = (
            values[:: values.shape[0] // n] @ _moment_table(n)).tolist()
        e = -(-n // 4)
        tail = (a ** e * (sigma - b * sigma_over_z)
                + b ** e * (over_sigma - a * z_over_sigma)) / (1.0 - a * b)
        return TWO_PI / n * (s0 - tail)

    # the values of the nodes so far, in the order of the grid 2 pi j / len(values)
    n = START_NODES
    values = np.asarray(f(_grid(2 * n, False)), dtype=np.complex128)
    fmax = float(abs(values).max())
    estimate, est_error, converged = None, math.inf, False
    while math.isfinite(fmax):
        refined = rule(n)
        if not cmath.isfinite(refined):  # finite values whose sums overflow
            break
        if estimate is not None:
            est_error = abs(refined - estimate)
            converged = est_error <= REL_TOL * max(abs(refined), fmax * TWO_PI)
        estimate = refined
        if converged or 2 * n > MAX_NODES:
            return QuadResult(complex(estimate), n, converged, est_error, fmax * TWO_PI)
        if values.shape[0] == n:
            mid = np.asarray(f(_grid(n, True)), dtype=np.complex128)
            fmax = max(float(abs(mid).max()), fmax)  # a NaN first stays NaN
            merged = np.empty(2 * n, dtype=np.complex128)
            merged[::2], merged[1::2] = values, mid
            values = merged
        n *= 2
    # an overflowing integrand: no finer grid settles it
    count = values.shape[0]
    return QuadResult(TWO_PI / count * complex(values.sum()), count, False, math.inf, fmax * TWO_PI)


__all__ = ["QuadResult", "periodic_integral"]
