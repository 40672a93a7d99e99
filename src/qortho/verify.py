"""Identity checkers, the identity registry and randomized parameter sweeps.

Each checker computes a left-hand side by quadrature or series evaluation and
a right-hand side from closed-form products, through deliberately independent
code paths, then assembles an immutable :class:`VerificationReport`.  Numeric
trouble (near-singular denominators, truncation caps, divergent series, slow
quadrature) is surfaced as report flags, never as exceptions escaping a
checker.

:data:`REGISTRY` describes each identity once: its default tolerance, sweep
box, drawer and the parameter schema of its checker ``check_<identity>``.
:func:`draw_params`, :func:`run_sweep` and the ``qortho verify`` flags all
read it.  :class:`IdentityId` says in one line what each identity checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import kernels
from .errors import (
    DivergentSeries,
    DomainError,
    NearSingular,
    TruncationExceeded,
)
from .qcore import (
    DEFAULT_POLICY,
    NEAR_SINGULAR_TOL,
    QBase,
    TruncationPolicy,
    min_factor_abs,
    qpoch_finite,
    qpoch_infinite,
    settled_sum,
    tail_start,
)
from .hyper import PhiSpec, phi_series, qbinomial_product_ratio, rogers_6w5_rhs, very_well_poised
from .qfun import (
    ParamSet4,
    ReducedParams,
    big_c_coeffs,
    big_c_eval,
    connection_coeffs,
    cq_ultraspherical_many,
    diag_rhs_thm11,
    growth_root,
    h_norm,
    weight_min_denominator,
    weight_omega_many,
)
from .quad import (
    DEFAULT_QUADRATURE,
    FULL_PERIOD,
    HALF_PERIOD,
    QuadratureSpec,
    periodic_integral,
    phi_qintegral_repr,
)
from .qfun import phi_eval

TWO_PI = 2.0 * math.pi
NAN = complex("nan")


class IdentityId(str, enum.Enum):
    THM_1_1 = "THM_1_1"  # full-period orthogonality of the four-parameter family
    THM_1_2 = "THM_1_2"  # seven-parameter product integral vs. single series
    THM_1_3 = "THM_1_3"  # half-period bi-orthogonality of the a- and b-families
    PROP_2_1_2 = "PROP_2_1_2"  # Phi on the circle equals (q;q)_n times C_n
    PROP_2_1_3 = "PROP_2_1_3"  # growth-root diagnostic approaches max(|gamma|, |delta|)
    PROP_2_2 = "PROP_2_2"  # majorant series for the diagonal generating sum is Cauchy
    PROP_2_4 = "PROP_2_4"  # lattice-integral representation reproduces Phi_n
    PROP_3_1 = "PROP_3_1"  # connection expansion between the b- and a-families
    ROGERS_6W5 = "ROGERS_6W5"  # very-well-poised six-parameter sum vs. closed product form
    QBINOMIAL = "QBINOMIAL"  # binomial series vs. product ratio
    ULTRA_ORTHO = "ULTRA_ORTHO"  # half-period orthogonality of the single-parameter family


_FLAG_ORDER = ("NearSingular", "NoConvergence", "TruncationExceeded", "DivergentSeries")
_NUMERIC_ERRORS = (NearSingular, TruncationExceeded, DivergentSeries)


@dataclass(frozen=True)
class VerificationReport:
    """One identity check: inputs, both sides, residuals, verdict.

    ``passed`` is true iff the flags are empty and the residual criterion
    holds: relative residual <= tolerance when |rhs| > tolerance, else
    absolute residual <= tolerance * scale (so expected-zero sides are judged
    against the problem's magnitude, not against zero)."""

    identity_id: str
    inputs: Mapping[str, object]
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool
    flags: tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def build(
        cls,
        identity_id: IdentityId | str,
        inputs: Mapping[str, object],
        lhs: complex,
        rhs: complex,
        tolerance: float | None,
        scale: float = 0.0,
        flags: Sequence[str] = (),
    ) -> "VerificationReport":
        """``tolerance=None`` takes the identity's default from the registry."""
        identity_id = IdentityId(identity_id)
        if tolerance is None:
            tolerance = REGISTRY[identity_id].tolerance
        flags = tuple(
            sorted(
                set(flags),
                key=lambda f: (_FLAG_ORDER.index(f) if f in _FLAG_ORDER else len(_FLAG_ORDER), f),
            )
        )
        if flags:
            abs_residual = math.inf
            rel_residual = math.inf
            passed = False
        else:
            abs_residual = abs(lhs - rhs)
            scale = max(abs(lhs), abs(rhs), scale, 1e-300)
            rel_residual = abs_residual / scale
            if abs(rhs) > tolerance:
                passed = rel_residual <= tolerance
            else:
                passed = abs_residual <= tolerance * scale
        return cls(
            identity_id=identity_id.value,
            inputs=dict(inputs),
            lhs=complex(lhs),
            rhs=complex(rhs),
            abs_residual=abs_residual,
            rel_residual=rel_residual,
            tolerance=tolerance,
            passed=passed,
            flags=flags,
        )

    def to_record(self) -> dict:
        """Flat record with complex values split into _re/_im fields."""
        rec: dict = {"identity": self.identity_id, "inputs": _flatten_inputs(self.inputs)}
        rec["lhs_re"] = self.lhs.real
        rec["lhs_im"] = self.lhs.imag
        rec["rhs_re"] = self.rhs.real
        rec["rhs_im"] = self.rhs.imag
        rec["abs_residual"] = self.abs_residual
        rec["rel_residual"] = self.rel_residual
        rec["tolerance"] = self.tolerance
        rec["passed"] = self.passed
        rec["flags"] = list(self.flags)
        return rec

    @classmethod
    def from_record(cls, rec: Mapping[str, object]) -> "VerificationReport":
        return cls(
            identity_id=str(rec["identity"]),
            inputs=_unflatten_inputs(rec["inputs"]),
            lhs=complex(rec["lhs_re"], rec["lhs_im"]),
            rhs=complex(rec["rhs_re"], rec["rhs_im"]),
            abs_residual=float(rec["abs_residual"]),
            rel_residual=float(rec["rel_residual"]),
            tolerance=float(rec["tolerance"]),
            passed=bool(rec["passed"]),
            flags=tuple(rec["flags"]),
        )


def _flatten_inputs(inputs: Mapping[str, object]) -> dict:
    flat: dict = {}
    for key, value in inputs.items():
        if isinstance(value, complex):
            flat[f"{key}_re"] = value.real
            flat[f"{key}_im"] = value.imag
        elif isinstance(value, (list, tuple, np.ndarray)):
            flat[key] = [float(v) for v in value]
        elif isinstance(value, (np.integer,)):
            flat[key] = int(value)
        elif isinstance(value, (np.floating,)):
            flat[key] = float(value)
        else:
            flat[key] = value
    return flat


def _unflatten_inputs(flat: Mapping[str, object]) -> dict:
    out: dict = {}
    seen_im = {k[:-3] for k in flat if k.endswith("_im")}
    for key, value in flat.items():
        if key.endswith("_re") and key[:-3] in seen_im:
            out[key[:-3]] = complex(value, flat[key[:-3] + "_im"])
        elif key.endswith("_im") and key[:-3] in seen_im:
            continue
        else:
            out[key] = value
    return out


def _paramset_inputs(p: ParamSet4, q: QBase) -> dict:
    return {
        "alpha": p.alpha,
        "beta": p.beta,
        "gamma": p.gamma,
        "delta": p.delta,
        "q": q.q,
    }


# ---------------------------------------------------------------------------
# checkers, and the paths they share
# ---------------------------------------------------------------------------


def _evaluate(side: Callable[[], object], flags: list[str], failed: object = NAN):
    """``side()``, or ``failed`` with the name of the numerical error it
    raised added to ``flags``."""
    try:
        return side()
    except _NUMERIC_ERRORS as exc:
        flags.append(type(exc).__name__)
        return failed


def _check(identity_id, inputs, tolerance, lhs, rhs) -> VerificationReport:
    """Report from ``lhs()`` and then ``rhs()``, two plain values."""
    flags: list[str] = []
    lhs_value = _evaluate(lhs, flags)
    rhs_value = _evaluate(rhs, flags)
    return VerificationReport.build(identity_id, inputs, lhs_value, rhs_value, tolerance,
                                    flags=flags)


def _circle_check(
    identity_id, inputs, tolerance, weight: ParamSet4, qb: QBase, policy, qspec, interval,
    integrand: Callable[[], Callable[[np.ndarray], np.ndarray]], rhs: Callable[[], complex],
) -> VerificationReport:
    """The path every circle identity shares: screen the denominator of the
    weight of ``weight``, integrate ``integrand()`` over ``interval``, flag
    slow quadrature, then evaluate ``rhs()``."""
    if weight_min_denominator(weight, qb, policy) < NEAR_SINGULAR_TOL:
        return VerificationReport.build(identity_id, inputs, NAN, NAN, tolerance,
                                        flags=["NearSingular"])
    result = periodic_integral(integrand(), interval, qspec)
    flags = [] if result.converged else ["NoConvergence"]
    rhs_value = _evaluate(rhs, flags)
    return VerificationReport.build(
        identity_id, inputs, result.value, rhs_value, tolerance, scale=result.fscale, flags=flags
    )


def _laurent(n: int, p: ParamSet4, qb: QBase) -> Callable[[np.ndarray], np.ndarray]:
    """C_n of the family ``p`` at an array of angles."""
    coefs = big_c_coeffs(n, p, qb)
    return lambda thetas: kernels.laurent_eval(coefs, n, thetas)


def _weighted_pair(f_m, f_n, p: ParamSet4, qb: QBase, policy):
    """The integrand f_m f_n omega, omega the weight of ``p``."""
    return lambda thetas: f_m(thetas) * f_n(thetas) * weight_omega_many(thetas, p, qb, policy)


def check_thm_1_1(
    p: ParamSet4,
    q,
    m: int,
    n: int,
    qspec: QuadratureSpec = DEFAULT_QUADRATURE,
    policy: TruncationPolicy = DEFAULT_POLICY,
    tolerance: float | None = None,
) -> VerificationReport:
    """Full-period orthogonality: quadrature of C_m C_n against the weight vs.
    the closed diagonal (zero off the diagonal)."""
    qb = QBase.coerce(q)
    return _circle_check(
        IdentityId.THM_1_1, _paramset_inputs(p, qb) | {"m": m, "n": n}, tolerance,
        p, qb, policy, qspec, FULL_PERIOD,
        lambda: _weighted_pair(_laurent(m, p, qb), _laurent(n, p, qb), p, qb, policy),
        lambda: diag_rhs_thm11(n, p, qb, policy) if m == n else 0.0 + 0.0j,
    )


def _thm_1_2_hypothesis(p: ParamSet4, s: complex, t: complex, q: QBase) -> dict[str, float]:
    """The seven moduli that must all be < 1."""
    return {
        "|q|": abs(q.q),
        "|alpha/gamma|": abs(p.ratio_a),
        "|beta/delta|": abs(p.ratio_b),
        "|gamma*s|": abs(p.gamma * s),
        "|gamma*t|": abs(p.gamma * t),
        "|delta*s|": abs(p.delta * s),
        "|delta*t|": abs(p.delta * t),
    }


def check_thm_1_2(
    p: ParamSet4,
    s,
    t,
    q,
    qspec: QuadratureSpec = DEFAULT_QUADRATURE,
    policy: TruncationPolicy = DEFAULT_POLICY,
    tolerance: float | None = None,
) -> VerificationReport:
    """Seven-parameter product integral: quadrature of the 12-product
    integrand vs. the prefactor times a single geometric-type series in
    (gamma delta s t)^n."""
    qb = QBase.coerce(q)
    s = complex(s)
    t = complex(t)
    for name, value in _thm_1_2_hypothesis(p, s, t, qb).items():
        if value >= 1.0:
            raise DomainError(
                f"hypothesis max(|q|, |alpha/gamma|, |beta/delta|, |gamma*s|, "
                f"|gamma*t|, |delta*s|, |delta*t|) < 1 violated: {name} = {value:.6g}"
            )

    def integrand():
        num_coefs = np.array(
            [p.alpha * t, p.beta * t, p.alpha * s, p.beta * s,
             p.gamma / p.delta, p.delta / p.gamma],
            dtype=np.complex128,
        )
        den_coefs = np.array(
            [p.gamma * t, p.delta * t, p.gamma * s, p.delta * s,
             p.alpha / p.delta, p.beta / p.gamma],
            dtype=np.complex128,
        )
        exps = np.array([1, -1, 1, -1, 2, -2], dtype=np.int64)
        kmax = tail_start(
            max(np.max(np.abs(num_coefs)), np.max(np.abs(den_coefs))), qb, policy
        )
        return lambda thetas: (
            kernels.poch_product_many(num_coefs, exps, qb.q, kmax, thetas)
            / kernels.poch_product_many(den_coefs, exps, qb.q, kmax, thetas)
        )

    return _circle_check(
        IdentityId.THM_1_2, _paramset_inputs(p, qb) | {"s": s, "t": t}, tolerance,
        p, qb, policy, qspec, FULL_PERIOD,
        integrand, lambda: thm_1_2_rhs_series(p, s, t, qb, policy),
    )


def thm_1_2_rhs_series(
    p: ParamSet4, s: complex, t: complex, q, policy: TruncationPolicy = DEFAULT_POLICY
) -> complex:
    """2 pi (ra, rb;q)_oo / (q, ra*rb;q)_oo times
    sum_n (1/(1-ra q^n) + 1/(1-rb q^n)) (ra*rb;q)_n / (q;q)_n (gd s t)^n;
    |gd s t| < 1 makes the tail geometric."""
    qb = QBase.coerce(q)
    ra, rb = p.ratio_a, p.ratio_b
    den = qpoch_infinite(qb.q, qb, policy) * qpoch_infinite(ra * rb, qb, policy)
    if abs(den) < NEAR_SINGULAR_TOL:
        raise NearSingular("(q, ra*rb;q)_oo is near zero")
    prefactor = TWO_PI * qpoch_infinite(ra, qb, policy) * qpoch_infinite(rb, qb, policy) / den
    arg = p.gd * s * t

    def terms():
        poch_ratio = 1.0 + 0.0j  # (ra*rb;q)_n / (q;q)_n
        argn = 1.0 + 0.0j
        qn = 1.0 + 0.0j
        for _ in range(policy.max_terms):
            yield (1.0 / (1.0 - ra * qn) + 1.0 / (1.0 - rb * qn)) * poch_ratio * argn
            poch_ratio *= (1.0 - ra * rb * qn) / (1.0 - qb.q * qn)
            qn *= qb.q
            argn *= arg

    return prefactor * settled_sum(terms(), policy, "diagonal series")


def check_thm_1_3(
    r: ReducedParams,
    gamma,
    delta,
    q,
    m: int,
    n: int,
    qspec: QuadratureSpec = DEFAULT_QUADRATURE,
    policy: TruncationPolicy = DEFAULT_POLICY,
    tolerance: float | None = None,
) -> VerificationReport:
    """Half-period bi-orthogonality: degree m of the b-family against degree n
    of the a-family under the a-family weight.  Zero when m and n have
    opposite parity; otherwise the closed form requires m >= n."""
    qb = QBase.coerce(q)
    gamma = complex(gamma)
    delta = complex(delta)
    same_parity = (m - n) % 2 == 0
    if same_parity and m < n:
        raise DomainError(
            "the closed form's product indices (m-n)/2 require m >= n"
        )
    for name, value in (("|a*gamma/delta|", abs(r.a * gamma / delta)),
                        ("|a*delta/gamma|", abs(r.a * delta / gamma))):
        if value >= 1.0:
            raise DomainError(
                f"weight regularity needs {name} < 1, got {value:.6g}"
            )
    p_a = ParamSet4.from_reduced(r.a, gamma, delta)
    p_b = ParamSet4.from_reduced(r.b, gamma, delta)
    inputs = {
        "a": r.a, "b": r.b, "gamma": gamma, "delta": delta, "q": qb.q,
        "m": m, "n": n,
    }
    return _circle_check(
        IdentityId.THM_1_3, inputs, tolerance, p_a, qb, policy, qspec, HALF_PERIOD,
        lambda: _weighted_pair(_laurent(m, p_b, qb), _laurent(n, p_a, qb), p_a, qb, policy),
        lambda: thm_1_3_rhs(r, gamma, delta, qb, m, n, policy),
    )


def thm_1_3_rhs(
    r: ReducedParams, gamma, delta, q, m: int, n: int,
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> complex:
    """Closed form for m >= n, m = n (mod 2):

        (gd)^n (1 - a q^n) (b/a;q)_j (b;q)_{(m+n)/2} (a gd)^j
        / ((1 - a) h_n(a|q) (q;q)_j (a q;q)_{(m+n)/2}),   j = (m-n)/2;

    zero for opposite parities."""
    if (m - n) % 2 != 0:
        return 0.0 + 0.0j
    qb = QBase.coerce(q)
    gd = complex(gamma) * complex(delta)
    j = (m - n) // 2
    half_sum = (m + n) // 2
    hn = h_norm(n, r.a, qb, policy)
    return (
        gd ** n
        * (1.0 - r.a * qb.q ** n)
        * qpoch_finite(r.b / r.a, qb, j)
        * qpoch_finite(r.b, qb, half_sum)
        * (r.a * gd) ** j
        / (
            (1.0 - r.a)
            * hn
            * qpoch_finite(qb.q, qb, j)
            * qpoch_finite(r.a * qb.q, qb, half_sum)
        )
    )


def check_prop_3_1(
    r: ReducedParams,
    gamma,
    delta,
    q,
    m: int,
    thetas: Sequence[float] | None = None,
    tolerance: float | None = None,
) -> VerificationReport:
    """Connection expansion: degree m of the b-family equals the parity-matched
    combination of a-family degrees n <= m.  The report carries the worst
    pointwise residual over the probe angles."""
    qb = QBase.coerce(q)
    gamma = complex(gamma)
    delta = complex(delta)
    if thetas is None:
        thetas = TWO_PI * np.arange(16) / 16
    thetas = np.asarray(thetas, dtype=np.float64)
    p_a = ParamSet4.from_reduced(r.a, gamma, delta)
    p_b = ParamSet4.from_reduced(r.b, gamma, delta)
    inputs = {
        "a": r.a, "b": r.b, "gamma": gamma, "delta": delta, "q": qb.q,
        "m": m, "thetas": thetas,
    }

    def sides():
        coeffs = connection_coeffs(m, r, gamma * delta, qb)
        lhs_vals = _laurent(m, p_b, qb)(thetas)
        rhs_vals = np.zeros_like(lhs_vals)
        for nn in range(m % 2, m + 1, 2):
            rhs_vals += coeffs[nn] * _laurent(nn, p_a, qb)(thetas)
        worst = int(np.argmax(np.abs(lhs_vals - rhs_vals)))
        return complex(lhs_vals[worst]), complex(rhs_vals[worst]), float(np.max(np.abs(lhs_vals)))

    flags: list[str] = []
    lhs, rhs, scale = _evaluate(sides, flags, failed=(NAN, NAN, 0.0))
    return VerificationReport.build(
        IdentityId.PROP_3_1, inputs, lhs, rhs, tolerance, scale=scale, flags=flags
    )


def check_ultra_ortho(
    beta,
    q,
    m: int,
    n: int,
    qspec: QuadratureSpec = DEFAULT_QUADRATURE,
    policy: TruncationPolicy = DEFAULT_POLICY,
    tolerance: float | None = None,
) -> VerificationReport:
    """Half-period orthogonality of the single-parameter family under the
    (beta, beta, 1, 1) specialization of the weight; diagonal 1/h_n."""
    qb = QBase.coerce(q)
    beta = complex(beta)
    p = ParamSet4(beta, beta, 1.0, 1.0)
    return _circle_check(
        IdentityId.ULTRA_ORTHO, {"beta": beta, "q": qb.q, "m": m, "n": n}, tolerance,
        p, qb, policy, qspec, HALF_PERIOD,
        lambda: _weighted_pair(
            lambda thetas: cq_ultraspherical_many(m, thetas, beta, qb),
            lambda thetas: cq_ultraspherical_many(n, thetas, beta, qb),
            p, qb, policy,
        ),
        lambda: 1.0 / h_norm(n, beta, qb, policy) if m == n else 0.0 + 0.0j,
    )


def check_prop_2_1_2(
    p: ParamSet4,
    q,
    n: int,
    theta: float = 0.0,
    tolerance: float | None = None,
) -> VerificationReport:
    """Phi at (e^{i theta}, e^{-i theta}) equals (q;q)_n C_n(e^{i theta})."""
    qb = QBase.coerce(q)
    x = complex(math.cos(theta), math.sin(theta))
    return _check(
        IdentityId.PROP_2_1_2, _paramset_inputs(p, qb) | {"n": n, "theta": float(theta)},
        tolerance,
        lambda: phi_eval(n, x, x.conjugate(), p, qb),
        lambda: qpoch_finite(qb.q, qb, n) * big_c_eval(n, theta, p, qb),
    )


def check_prop_2_1_3(
    p: ParamSet4,
    q,
    n: int = 200,
    tolerance: float | None = None,
) -> VerificationReport:
    """Growth-root diagnostic |C_n(1)|^{1/n} against max(|gamma|, |delta|)."""
    qb = QBase.coerce(q)
    return _check(
        IdentityId.PROP_2_1_3, _paramset_inputs(p, qb) | {"n": n}, tolerance,
        lambda: complex(growth_root(n, p, qb)),
        lambda: complex(max(abs(p.gamma), abs(p.delta))),
    )


def check_prop_2_2(
    p: ParamSet4,
    q,
    k: int = 0,
    t_fraction: float = 0.9,
    partial_terms: int = 200,
    tail_terms: int = 100,
    tolerance: float | None = None,
) -> VerificationReport:
    """Majorant Cauchy check for the diagonal generating sum: with
    |t| = t_fraction * min(1/|gamma|, 1/|delta|), the tail of

        sum_n C_{n+k}(1) C_n(1) |(q;q)_{n+k} / (ra*rb;q)_{n+k}| |t|^n

    beyond ``partial_terms`` must stay below tolerance times the partial sum.
    The report's lhs is the tail, rhs is zero, scale is the partial sum."""
    qb = QBase.coerce(q)
    inputs = _paramset_inputs(p, qb) | {
        "k": k, "t_fraction": t_fraction, "partial_terms": partial_terms,
        "tail_terms": tail_terms,
    }
    t_abs = t_fraction * min(1.0 / abs(p.gamma), 1.0 / abs(p.delta))
    ra_rb = p.ratio_a * p.ratio_b

    c_at_one = [
        abs(big_c_eval(nn, 0.0, p, qb))
        for nn in range(partial_terms + tail_terms + k)
    ]
    partial = 0.0
    tail = 0.0
    poch_ratio = abs(
        qpoch_finite(qb.q, qb, k) / qpoch_finite(ra_rb, qb, k)
    )
    tn = 1.0
    for nn in range(partial_terms + tail_terms):
        term = c_at_one[nn + k] * c_at_one[nn] * poch_ratio * tn
        if nn < partial_terms:
            partial += term
        else:
            tail += term
        poch_ratio *= abs((1.0 - qb.q ** (nn + k + 1)) / (1.0 - ra_rb * qb.q ** (nn + k)))
        tn *= t_abs
    return VerificationReport.build(
        IdentityId.PROP_2_2, inputs, complex(tail), 0.0 + 0.0j, tolerance, scale=partial
    )


def check_prop_2_4(
    p: ParamSet4,
    q,
    n: int,
    x,
    y,
    policy: TruncationPolicy = DEFAULT_POLICY,
    tolerance: float | None = None,
) -> VerificationReport:
    """Lattice-integral representation vs. the double-sum evaluation of Phi_n."""
    qb = QBase.coerce(q)
    x = complex(x)
    y = complex(y)
    return _check(
        IdentityId.PROP_2_4, _paramset_inputs(p, qb) | {"n": n, "x": x, "y": y}, tolerance,
        lambda: phi_qintegral_repr(n, x, y, p, qb, policy),
        lambda: phi_eval(n, x, y, p, qb),
    )


def check_rogers_6w5(
    a,
    b,
    c,
    d,
    q,
    policy: TruncationPolicy = DEFAULT_POLICY,
    tolerance: float | None = None,
) -> VerificationReport:
    """Very-well-poised six-parameter sum at z = a q/(b c d) vs. its closed
    product form."""
    qb = QBase.coerce(q)
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    z = a * qb.q / (b * c * d)
    return _check(
        IdentityId.ROGERS_6W5, {"a": a, "b": b, "c": c, "d": d, "q": qb.q}, tolerance,
        lambda: very_well_poised(a, [b, c, d], qb, z, policy),
        lambda: rogers_6w5_rhs(a, b, c, d, qb, policy),
    )


def check_qbinomial(
    a,
    z,
    q,
    policy: TruncationPolicy = DEFAULT_POLICY,
    tolerance: float | None = None,
) -> VerificationReport:
    """Binomial series sum_n (a;q)_n z^n/(q;q)_n vs. (az;q)_oo/(z;q)_oo."""
    qb = QBase.coerce(q)
    a = complex(a)
    z = complex(z)
    return _check(
        IdentityId.QBINOMIAL, {"a": a, "z": z, "q": qb.q}, tolerance,
        lambda: phi_series(PhiSpec((a,), (), qb, z), policy),
        lambda: qbinomial_product_ratio(a, z, qb, policy),
    )


# ---------------------------------------------------------------------------
# the identity registry and randomized sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Seeded randomized sweep: ``box`` entries override the identity's
    default parameter ranges (see the ``box`` of each :data:`REGISTRY`
    record for the keys it reads); degree draws are capped by m_max / n_max."""

    seed: int
    draws: int
    box: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    m_max: int = 6
    n_max: int = 6

    def __post_init__(self) -> None:
        if self.draws < 0:
            raise DomainError("draws must be >= 0")


# All default sweeps draw real parameters; q stays within (0, 0.8].  The boxes
# were chosen so that every hypothesis of the target identity holds with
# margin and the weight denominator moduli |alpha/delta|, |beta/gamma| stay
# below 1 - WEIGHT_MARGIN.  The latter is not only a conditioning concern: the
# full-period orthogonality genuinely fails once those moduli cross 1 (the
# closed diagonal assumes the weight denominators expand as geometric series
# on the circle), so draws are restricted to the sub-box where the identity
# holds.
WEIGHT_MARGIN = 0.08

_MAX_REJECTS = 500


def _weight_ok(p: ParamSet4) -> bool:
    """Weight denominator moduli below 1 with margin.  |w| <= 1 - margin
    keeps every factor |1 - w q^k e^{2i theta}| >= margin on the circle and
    keeps the parameters inside the identity's validity domain."""
    return (
        abs(p.alpha / p.delta) <= 1.0 - WEIGHT_MARGIN
        and abs(p.beta / p.gamma) <= 1.0 - WEIGHT_MARGIN
    )


def _chain_clear(w: float, q: float) -> bool:
    """Every |1 - |w| q^k| with |w| q^k >= 1e-3 is at least WEIGHT_MARGIN."""
    return min_factor_abs(abs(w), q, 1e-3) >= WEIGHT_MARGIN


def _uniform(rng: np.random.Generator, lo_hi: tuple[float, float]) -> float:
    lo, hi = lo_hi
    return float(rng.uniform(lo, hi))


def _degrees(rng: np.random.Generator, spec: SweepSpec) -> dict:
    return {"m": int(rng.integers(0, spec.m_max + 1)), "n": int(rng.integers(0, spec.n_max + 1))}


def _draw_paramset(rng, box) -> ParamSet4:
    for _ in range(_MAX_REJECTS):
        gamma = _uniform(rng, box["scale"])
        delta = _uniform(rng, box["scale"])
        ra = _uniform(rng, box["ratio"])
        rb = _uniform(rng, box["ratio"])
        p = ParamSet4(ra * gamma, rb * delta, gamma, delta)
        if _weight_ok(p):
            return p
    raise RuntimeError("could not draw a well-conditioned parameter set")


# Drawers longer than one expression.  Each takes (rng, box, q, spec), q
# already drawn, and returns checker arguments; values are drawn in the order
# written.


def _draw_thm_1_2(rng, box, q, spec) -> dict:
    for _ in range(_MAX_REJECTS):
        p = _draw_paramset(rng, box)
        biggest = max(abs(p.gamma), abs(p.delta))
        s = _uniform(rng, box["st_fraction"]) * 0.7 / biggest
        t = _uniform(rng, box["st_fraction"]) * 0.7 / biggest
        if max(_thm_1_2_hypothesis(p, s, t, QBase.coerce(q)).values()) <= 0.7:
            return {"p": p, "s": s, "t": t, "q": q}
    raise RuntimeError("could not draw an admissible seven-parameter set")


def _draw_thm_1_3(rng, box, q, spec) -> dict:
    for _ in range(_MAX_REJECTS):
        a, b = _uniform(rng, box["ab"]), _uniform(rng, box["ab"])
        gamma, delta = _uniform(rng, box["scale"]), _uniform(rng, box["scale"])
        if (max(abs(a * gamma / delta), abs(a * delta / gamma)) < 1.0 - WEIGHT_MARGIN
                and _weight_ok(ParamSet4.from_reduced(a, gamma, delta))):
            m, n = _degrees(rng, spec).values()
            if (m - n) % 2 == 0 and m < n:
                m, n = n, m
            return {"r": ReducedParams(a, b), "gamma": gamma, "delta": delta,
                    "q": q, "m": m, "n": n}
    raise RuntimeError("could not draw an admissible reduced parameter set")


def _draw_prop_3_1(rng, box, q, spec) -> dict:
    a = _uniform(rng, (max(box["ab"][0], 0.05), box["ab"][1]))
    b = _uniform(rng, box["ab"])
    gamma, delta = _uniform(rng, box["scale"]), _uniform(rng, box["scale"])
    return {"r": ReducedParams(a, b), "gamma": gamma, "delta": delta,
            "q": q, "m": int(rng.integers(0, spec.m_max + 1))}


def _draw_prop_2_4(rng, box, q, spec) -> dict:
    for _ in range(_MAX_REJECTS):
        p = _draw_paramset(rng, box)
        x, y = _uniform(rng, box["xy"]), _uniform(rng, box["xy"])
        gx_over_dy = abs(p.gamma * x / (p.delta * y))
        # endpoints must be distinct and the quotient clear of the q-chain
        if (1.0 / 3.0 <= gx_over_dy <= 3.0 and _chain_clear(gx_over_dy, q)
                and _chain_clear(1.0 / gx_over_dy, q)):
            return {"p": p, "q": q, "n": int(rng.integers(0, spec.n_max + 1)), "x": x, "y": y}
    raise RuntimeError("could not draw an admissible lattice configuration")


def _draw_rogers_6w5(rng, box, q, spec) -> dict:
    for _ in range(_MAX_REJECTS):
        b, c, d = (_uniform(rng, box["bcd"]) for _ in range(3))
        z = _uniform(rng, box["z"])
        a = z * b * c * d / q
        aq = a * q
        if abs(a) < 0.9 and all(_chain_clear(w, q) for w in (aq / b, aq / c, aq / d, z)):
            return {"a": a, "b": b, "c": c, "d": d, "q": q}
    raise RuntimeError("could not draw an admissible six-parameter set")


class ParamKind(enum.Enum):
    """How one checker parameter is spelled: a ParamSet4 (alpha, beta, gamma,
    delta), a ReducedParams pair (a, b), or one complex, int or float value."""

    PARAMSET = "paramset"
    REDUCED = "reduced"
    COMPLEX = "complex"
    INT = "int"
    FLOAT = "float"


@dataclass(frozen=True)
class Identity:
    """Everything the package states about one identity.  ``params`` is the
    checker's schema: (name, kind) of each identity parameter; its other
    arguments are tuning knobs.  ``draw(rng, box, q, spec)`` returns checker
    arguments for one sweep draw from ``box``, this ``box`` with overrides."""

    id: IdentityId
    tolerance: float
    box: Mapping[str, tuple[float, float]]
    params: tuple[tuple[str, ParamKind], ...]
    draw: Callable[..., dict]

    @property
    def checker(self) -> Callable[..., VerificationReport]:
        """The module-level ``check_<id>`` function, looked up on each use so
        that a rebound module attribute takes effect."""
        return globals()[f"check_{self.id.value.lower()}"]


_PARAMSET = ("p", ParamKind.PARAMSET)
_REDUCED = ("r", ParamKind.REDUCED)
_Q = ("q", ParamKind.FLOAT)
_M = ("m", ParamKind.INT)
_N = ("n", ParamKind.INT)


def _complex(*names: str) -> tuple[tuple[str, ParamKind], ...]:
    return tuple((name, ParamKind.COMPLEX) for name in names)


_PARAM_BOX = {"q": (0.1, 0.7), "ratio": (0.05, 0.6), "scale": (0.5, 1.5)}
_REDUCED_BOX = {"q": (0.1, 0.7), "ab": (0.1, 0.6), "scale": (0.5, 1.5)}

# Quadrature-vs-closed-form identities tolerate 1e-8 (double-precision products
# lose roughly two digits over hundreds of factors); series-vs-product ones
# hold tighter.
REGISTRY: Mapping[IdentityId, Identity] = {record.id: record for record in (
    Identity(IdentityId.THM_1_1, 1e-8, _PARAM_BOX, (_PARAMSET, _Q, _M, _N),
             lambda rng, box, q, spec: {"p": _draw_paramset(rng, box), "q": q,
                                        **_degrees(rng, spec)}),
    Identity(IdentityId.THM_1_2, 1e-8, _PARAM_BOX | {"st_fraction": (0.1, 1.0)},
             (_PARAMSET, *_complex("s", "t"), _Q), _draw_thm_1_2),
    Identity(IdentityId.THM_1_3, 1e-8, _REDUCED_BOX,
             (_REDUCED, *_complex("gamma", "delta"), _Q, _M, _N), _draw_thm_1_3),
    Identity(IdentityId.PROP_2_1_2, 1e-12, _PARAM_BOX,
             (_PARAMSET, _Q, _N, ("theta", ParamKind.FLOAT)),
             lambda rng, box, q, spec: {"p": _draw_paramset(rng, box), "q": q,
                                        "n": int(rng.integers(0, spec.n_max + 1)),
                                        "theta": _uniform(rng, (0.0, TWO_PI))}),
    Identity(IdentityId.PROP_2_1_3, 0.05, _PARAM_BOX, (_PARAMSET, _Q, _N),
             lambda rng, box, q, spec: {"p": _draw_paramset(rng, box), "q": q}),
    Identity(IdentityId.PROP_2_2, 1e-10, _PARAM_BOX | {"scale": (0.5, 0.9)},
             (_PARAMSET, _Q, ("k", ParamKind.INT)),
             lambda rng, box, q, spec: {"p": _draw_paramset(rng, box), "q": q,
                                        "k": int(rng.integers(0, 4))}),
    Identity(IdentityId.PROP_2_4, 1e-10,
             {"q": (0.1, 0.7), "ratio": (0.05, 0.5), "scale": (0.5, 1.2), "xy": (0.4, 1.1)},
             (_PARAMSET, _Q, _N, *_complex("x", "y")), _draw_prop_2_4),
    Identity(IdentityId.PROP_3_1, 1e-9, _REDUCED_BOX,
             (_REDUCED, *_complex("gamma", "delta"), _Q, _M), _draw_prop_3_1),
    Identity(IdentityId.ROGERS_6W5, 1e-9, {"q": (0.2, 0.7), "bcd": (0.3, 0.8), "z": (0.05, 0.65)},
             (*_complex("a", "b", "c", "d"), _Q), _draw_rogers_6w5),
    Identity(IdentityId.QBINOMIAL, 1e-11, {"q": (0.1, 0.8), "a": (-0.9, 0.9), "z": (-0.7, 0.7)},
             (*_complex("a", "z"), _Q),
             lambda rng, box, q, spec: {"a": _uniform(rng, box["a"]),
                                        "z": _uniform(rng, box["z"]), "q": q}),
    Identity(IdentityId.ULTRA_ORTHO, 1e-8, {"q": (0.1, 0.7), "beta": (0.05, 0.7)},
             (*_complex("beta"), _Q, _M, _N),
             lambda rng, box, q, spec: {"beta": _uniform(rng, box["beta"]), "q": q,
                                        **_degrees(rng, spec)}),
)}

# Read-only views of the registry, kept under their earlier public names.
DEFAULT_TOLERANCES: Mapping[IdentityId, float] = MappingProxyType(
    {i: record.tolerance for i, record in REGISTRY.items()}
)
DEFAULT_BOXES: Mapping[IdentityId, Mapping[str, tuple[float, float]]] = MappingProxyType(
    {i: MappingProxyType(record.box) for i, record in REGISTRY.items()}
)


def draw_params(identity_id: IdentityId, rng: np.random.Generator, spec: SweepSpec) -> dict:
    """One deterministic parameter draw for the given identity; rejection
    sampling keeps weight denominators clear of the unit circle."""
    record = REGISTRY[IdentityId(identity_id)]
    box = dict(record.box) | dict(spec.box)
    return record.draw(rng, box, _uniform(rng, box["q"]), spec)


def run_sweep(
    identity_id: IdentityId | str,
    spec: SweepSpec,
    tolerance: float | None = None,
) -> list[VerificationReport]:
    """Run ``spec.draws`` seeded checks of one identity.  Deterministic given
    the seed; individual failures and flags land in the reports, the sweep
    itself never aborts mid-run."""
    record = REGISTRY[IdentityId(identity_id)]
    rng = np.random.default_rng(spec.seed)
    checker = record.checker
    return [
        checker(**draw_params(record.id, rng, spec), tolerance=tolerance)
        for _ in range(spec.draws)
    ]
