"""Identity checkers, the identity registry and randomized parameter sweeps.

Each checker computes a left-hand side by quadrature or series evaluation and
a right-hand side from closed-form products, through deliberately independent
code paths, then assembles an immutable :class:`VerificationReport`.  Numeric
trouble (near-singular denominators, truncation caps, divergent series, slow
quadrature) is surfaced as report flags, never as exceptions escaping a
checker.  The four circle checkers hand their integrand to one path as data:
the coefficients of C_m and C_n, or THM_1_2's extra product symbols in the
layout of :func:`~qortho.kernels.poch_product_many`; the weight is screened,
the truncation depth chosen and C_m C_n multiplied into one Laurent
polynomial once per check.  The weight depends on theta only through
e^{2i theta}, so it is evaluated on the first half of each quadrature grid
and repeated on the second, whose angles are the first's plus pi; the C_n
product and extra symbols are evaluated on the whole grid.

:data:`REGISTRY` describes each identity once: its tolerance, sweep box and
drawer; :meth:`VerificationReport.build`, :func:`draw_params` and
:func:`run_sweep` read it when they are called.  The identity's parameters
are the positional parameters of its checker ``check_<identity>``, from which
``qortho verify`` builds its flags.  No checker takes a tuning argument or a
tolerance: every check runs at the one numerical setting, the constants of
:mod:`~qortho.qcore` and :mod:`~qortho.quad`, and is judged at its
identity's tolerance.  :class:`IdentityId` says in one line what each
identity checks.

Importing this module loads no numpy, and neither do the checks off the
circle.  A function imports the modules it calls where it calls them:
``qfun`` in each checker that takes a side from it, and numpy, ``kernels``
and ``quad`` in :func:`_circle_check`, :func:`check_prop_2_2` and
:func:`run_sweep`.  A check calls ``qfun.h_norm(...)``, so a function patched
in its own module is the one it calls.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from typing import Callable, Mapping, Sequence

from .errors import DivergentSeries, DomainError, NearSingular, TruncationExceeded
from .qcore import (
    FULL_PERIOD,
    HALF_PERIOD,
    NEAR_SINGULAR_TOL,
    TWO_PI,
    ParamSet4,
    Record,
    ReducedParams,
    as_base,
    as_degree,
    big_c_coeffs,
    connection_coeffs,
    finite_complex,
    min_factor_abs,
    qpoch_finite,
    quotient_depth,
)
from .hyper import (PhiSpec, phi_series, qbinomial_product_ratio, rogers_6w5_argument,
                    rogers_6w5_rhs, very_well_poised)

NAN = complex("nan")


class IdentityId(str, enum.Enum):
    THM_1_1 = "THM_1_1"  # full-period orthogonality of the four-parameter family
    THM_1_2 = "THM_1_2"  # seven-parameter product integral vs. single series
    THM_1_3 = "THM_1_3"  # half-period bi-orthogonality of the a- and b-families
    PROP_2_1_2 = "PROP_2_1_2"  # Phi on the circle equals (q;q)_n times C_n
    PROP_2_1_3 = "PROP_2_1_3"  # growth-root diagnostic approaches max(|gamma|, |delta|)
    PROP_2_2 = "PROP_2_2"  # majorant series for the diagonal generating sum is Cauchy
    PROP_2_4 = "PROP_2_4"  # lattice-integral representation reproduces Phi_n
    PROP_3_1 = "PROP_3_1"  # connection expansion between the b- and a-families, per coefficient
    ROGERS_6W5 = "ROGERS_6W5"  # very-well-poised six-parameter sum vs. closed product form
    QBINOMIAL = "QBINOMIAL"  # binomial series vs. product ratio
    ULTRA_ORTHO = "ULTRA_ORTHO"  # half-period orthogonality of the single-parameter family


_FLAG_ORDER = ("NearSingular", "NoConvergence", "TruncationExceeded", "DivergentSeries")
_NUMERIC_ERRORS = (NearSingular, TruncationExceeded, DivergentSeries)


class VerificationReport(Record):
    """One identity check: inputs, both sides, residuals, verdict.

    ``tolerance`` is the identity's :data:`REGISTRY` tolerance, and ``passed``
    is true iff the flags are empty and rel_residual <= tolerance, where
    rel_residual = abs_residual / scale and scale is the largest of |lhs|,
    |rhs| and the problem's magnitude (so an expected-zero side is judged
    against the problem, not against zero)."""

    _fields = ("identity_id", "inputs", "lhs", "rhs", "abs_residual", "rel_residual",
               "tolerance", "passed", "flags")

    def __init__(self, identity_id: str, inputs: Mapping[str, object], lhs: complex,
                 rhs: complex, abs_residual: float, rel_residual: float, tolerance: float,
                 passed: bool, flags: tuple[str, ...] = ()) -> None:
        self._set(identity_id=identity_id, inputs=inputs, lhs=lhs, rhs=rhs,
                  abs_residual=abs_residual, rel_residual=rel_residual, tolerance=tolerance,
                  passed=passed, flags=flags)

    @classmethod
    def build(
        cls,
        identity_id: IdentityId | str,
        inputs: Mapping[str, object],
        lhs: complex,
        rhs: complex,
        scale: float = 0.0,
        flags: Sequence[str] = (),
    ) -> "VerificationReport":
        """The report of ``lhs`` against ``rhs`` at the identity's tolerance,
        read from :data:`REGISTRY` on each call; ``scale`` is the problem's
        magnitude, ``flags`` names of :data:`_FLAG_ORDER`."""
        identity_id = IdentityId(identity_id)
        tolerance = REGISTRY[identity_id].tolerance
        flags = tuple(sorted(set(flags), key=_FLAG_ORDER.index))
        if flags:
            abs_residual = math.inf
            rel_residual = math.inf
            passed = False
        else:
            abs_residual = abs(lhs - rhs)
            scale = max(abs(lhs), abs(rhs), scale, 1e-300)
            rel_residual = abs_residual / scale
            passed = rel_residual <= tolerance
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
        return {
            "identity": self.identity_id, "inputs": _flatten_inputs(self.inputs),
            "lhs_re": self.lhs.real, "lhs_im": self.lhs.imag,
            "rhs_re": self.rhs.real, "rhs_im": self.rhs.imag,
            "abs_residual": self.abs_residual, "rel_residual": self.rel_residual,
            "tolerance": self.tolerance, "passed": self.passed, "flags": list(self.flags),
        }

    @classmethod
    def from_record(cls, rec: Mapping[str, object]) -> "VerificationReport":
        """The report of :meth:`to_record`'s ``rec``, or of the JSON the CLI
        writes, where every non-finite number is null: a null reads back as NaN."""
        num = {key: math.nan if value is None else value for key, value in rec.items()}
        return cls(
            identity_id=str(rec["identity"]),
            inputs=_unflatten_inputs(rec["inputs"]),
            lhs=complex(num["lhs_re"], num["lhs_im"]),
            rhs=complex(num["rhs_re"], num["rhs_im"]),
            abs_residual=float(num["abs_residual"]),
            rel_residual=float(num["rel_residual"]),
            tolerance=float(num["tolerance"]),
            passed=bool(rec["passed"]),
            flags=tuple(rec["flags"]),
        )


def _flatten_inputs(inputs: Mapping[str, object]) -> dict:
    numpy = sys.modules.get("numpy")  # no value is a numpy one unless it is loaded
    flat: dict = {}
    for key, value in inputs.items():
        if isinstance(value, complex):
            flat[f"{key}_re"] = value.real
            flat[f"{key}_im"] = value.imag
        elif numpy and isinstance(value, numpy.integer):
            flat[key] = int(value)
        elif numpy and isinstance(value, numpy.floating):
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


def _paramset_inputs(p: ParamSet4, q: complex) -> dict:
    return dict(zip(p._fields, p._values()), q=q)


# ---------------------------------------------------------------------------
# checkers, and the paths they share
# ---------------------------------------------------------------------------


def _evaluate(side: Callable[[], object], flags: list[str]):
    """``side()``, or NaN with the name of the numerical error it raised
    added to ``flags``."""
    try:
        return side()
    except _NUMERIC_ERRORS as exc:
        flags.append(type(exc).__name__)
        return NAN


def _check(identity_id, inputs, lhs, rhs) -> VerificationReport:
    """Report from ``lhs()`` and then ``rhs()``, two plain values."""
    flags: list[str] = []
    lhs_value = _evaluate(lhs, flags)
    rhs_value = _evaluate(rhs, flags)
    return VerificationReport.build(identity_id, inputs, lhs_value, rhs_value, flags=flags)


def _circle_check(
    identity_id, inputs, weight: ParamSet4, q: complex, interval,
    c_m_n: tuple[Sequence[complex], Sequence[complex]] | None, rhs: Callable[[], complex],
    extra: Sequence[complex] | None = None,
) -> VerificationReport:
    """The path every circle identity shares: screen the weight of ``weight``
    once, integrate over ``interval`` C_m C_n, from the coefficient lists
    ``c_m_n`` (None for THM_1_2), times the product quotient of the weight's
    :func:`~qortho.qfun.weight_symbols` and of the ``extra`` table (THM_1_2's
    alpha t, beta t, alpha s, beta s over gamma t, delta t, gamma s, delta s,
    on e^{+-i theta}), both at the depth of all their coefficients; flag a
    finite integral that the rule leaves unsettled at
    :data:`~qortho.quad.MAX_NODES` (an overflow fails the report unflagged),
    then evaluate ``rhs()``.  A weight pole on the circle or a depth beyond
    :data:`~qortho.qcore.MAX_TERMS` is flagged before any quadrature runs.
    The C_n sums are multiplied once per check into one Laurent polynomial (the
    convolution of their coefficients, degree the sum of theirs), so each
    integrand call makes one Laurent evaluation and one kernel call per
    quotient.  The weight's two denominator symbols, inside the circle for
    every caller, are the rule's pole pair (:func:`~qortho.quad.periodic_integral`).

    The weight, a function of e^{2i theta}, is evaluated on the first half of
    each grid and repeated: :func:`~qortho.quad.periodic_integral` grids hold theta + pi
    N/2 places after theta.  The C_n product stays on the whole grid, so an
    odd total degree still integrates to a quadrature value, not to 0 by
    construction."""
    import numpy as np
    from . import kernels, qfun, quad

    coefs, exps = qfun.weight_symbols(weight)
    flags: list[str] = []
    if qfun.weight_min_denominator(weight, q) < NEAR_SINGULAR_TOL:
        flags.append("NearSingular")
    else:
        kmax = _evaluate(lambda: quotient_depth((*(extra or ()), *coefs), q), flags)
    if flags:
        return VerificationReport.build(identity_id, inputs, NAN, NAN, flags=flags)
    own = np.array(coefs, dtype=np.complex128), np.array(exps, dtype=np.float64)
    if extra is not None:
        extra_arrays = (np.array(extra, dtype=np.complex128),
                        np.array((1, -1) * 4, dtype=np.float64))
    if c_m_n is not None:
        laurent = np.convolve(*c_m_n), len(c_m_n[0]) + len(c_m_n[1]) - 2

    def integrand(thetas):
        half = kernels.poch_product_many(*own, q, kmax, thetas[: thetas.shape[0] // 2], 2)
        values = np.concatenate((half, half))
        if c_m_n is not None:
            values *= kernels.laurent_eval(*laurent, thetas)
        if extra is not None:
            values *= kernels.poch_product_many(*extra_arrays, q, kmax, thetas, 4)
        return values

    # the k = 0 factors of the weight's denominator hold the poles nearest the circle
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the report
        result = quad.periodic_integral(integrand, interval, poles=coefs[2:])
    if not result.converged and cmath.isfinite(result.value):  # an overflow fails unflagged
        flags.append("NoConvergence")
    rhs_value = _evaluate(rhs, flags)
    return VerificationReport.build(
        identity_id, inputs, result.value, rhs_value, scale=result.fscale, flags=flags
    )


def _require(moduli: Mapping[str, float]) -> None:
    """:class:`DomainError` naming the first of an identity's ``moduli`` (its
    ``_<identity>_moduli``, which its drawer passes to :func:`_admits`) not below 1."""
    for name, value in moduli.items():
        if value >= 1.0:
            raise DomainError(f"the hypothesis {name} < 1 fails: {name} = {value:.6g}")


def _weight_moduli(p: ParamSet4) -> dict[str, float]:
    """The weight's moduli: at 1 it has a pole on the circle, beyond it no orthogonality."""
    return {"|alpha/delta|": abs(p.alpha / p.delta), "|beta/gamma|": abs(p.beta / p.gamma)}


def check_thm_1_1(p: ParamSet4, q, m: int, n: int) -> VerificationReport:
    """Full-period orthogonality: quadrature of C_m C_n against the weight vs.
    the closed diagonal (zero off the diagonal).  The weight's denominator
    symbols need |alpha/delta| < 1 and |beta/gamma| < 1."""
    from . import qfun

    q = as_base(q)
    _require(_weight_moduli(p))
    return _circle_check(
        IdentityId.THM_1_1, _paramset_inputs(p, q) | {"m": m, "n": n},
        p, q, FULL_PERIOD,
        (big_c_coeffs(m, p, q), big_c_coeffs(n, p, q)),
        lambda: qfun.diag_rhs_thm11(n, p, q) if m == n else 0.0 + 0.0j,
    )


def _thm_1_2_moduli(p: ParamSet4, s: complex, t: complex, q: complex) -> dict[str, float]:
    """The seven moduli of the q-beta integral's hypothesis."""
    return {
        "|q|": abs(q),
        "|alpha/gamma|": abs(p.ratio_a),
        "|beta/delta|": abs(p.ratio_b),
        "|gamma*s|": abs(p.gamma * s),
        "|gamma*t|": abs(p.gamma * t),
        "|delta*s|": abs(p.delta * s),
        "|delta*t|": abs(p.delta * t),
    }


def check_thm_1_2(p: ParamSet4, s, t, q) -> VerificationReport:
    """Seven-parameter product integral: quadrature of the 12-product
    integrand, whose extra products generate the C_m t^m and C_n s^n, vs.
    sum_n h_n (s t)^n over THM_1_1's closed diagonal h_n.  The weight's
    denominator symbols need |alpha/delta| < 1 and |beta/gamma| < 1, as for
    :func:`check_thm_1_1`."""
    from . import qfun

    q = as_base(q)
    s = finite_complex("s", s)
    t = finite_complex("t", t)
    _require(_thm_1_2_moduli(p, s, t, q) | _weight_moduli(p))
    return _circle_check(
        IdentityId.THM_1_2, _paramset_inputs(p, q) | {"s": s, "t": t},
        p, q, FULL_PERIOD,
        None, lambda: qfun.thm_1_2_rhs_series(p, s, t, q),
        (p.alpha * t, p.beta * t, p.alpha * s, p.beta * s,
         p.gamma * t, p.delta * t, p.gamma * s, p.delta * s),
    )


def _thm_1_3_moduli(a, gamma, delta) -> dict[str, float]:
    """:func:`_weight_moduli` of the a-family, alpha = a gamma, beta = a delta."""
    return {"|a*gamma/delta|": abs(a * gamma / delta), "|a*delta/gamma|": abs(a * delta / gamma)}


def check_thm_1_3(r: ReducedParams, gamma, delta, q, m: int, n: int) -> VerificationReport:
    """Half-period bi-orthogonality: degree m of the b-family against degree n
    of the a-family under the a-family weight, against
    :func:`~qortho.qfun.thm_1_3_rhs`: zero when m and n have opposite parity
    or m < n, the closed form otherwise.  The closed form needs a != 0."""
    from . import qfun

    q = as_base(q)
    gamma = finite_complex("gamma", gamma)
    delta = finite_complex("delta", delta)
    if r.a == 0:
        raise DomainError("the closed form divides by a; a must be nonzero")
    p_a = ParamSet4.from_reduced(r.a, gamma, delta)  # gamma, delta != 0
    p_b = ParamSet4.from_reduced(r.b, gamma, delta)
    _require(_thm_1_3_moduli(r.a, gamma, delta))
    inputs = {"a": r.a, "b": r.b, "gamma": gamma, "delta": delta, "q": q, "m": m, "n": n}
    return _circle_check(
        IdentityId.THM_1_3, inputs, p_a, q, HALF_PERIOD,
        (big_c_coeffs(m, p_b, q), big_c_coeffs(n, p_a, q)),
        lambda: qfun.thm_1_3_rhs(r, gamma, delta, q, m, n),
    )


def check_prop_3_1(r: ReducedParams, gamma, delta, q, m: int) -> VerificationReport:
    """Connection expansion: degree m of the b-family equals the parity-matched
    combination of a-family degrees n <= m.  Both sides are Laurent
    polynomials of degree m, compared coefficient by coefficient: the
    coefficients of C_n shift by (m - n)/2 into those of degree m.  The report
    carries both sides at the worst coefficient (a NaN residual counts as the
    worst), against the largest coefficient of the b-family side."""
    q = as_base(q)
    gamma = finite_complex("gamma", gamma)
    delta = finite_complex("delta", delta)
    p_a = ParamSet4.from_reduced(r.a, gamma, delta)
    p_b = ParamSet4.from_reduced(r.b, gamma, delta)
    inputs = {"a": r.a, "b": r.b, "gamma": gamma, "delta": delta, "q": q, "m": m}
    coeffs = connection_coeffs(m, r, gamma * delta, q)
    lhs = big_c_coeffs(m, p_b, q)
    rhs = [0.0 + 0.0j] * len(lhs)
    for nn in range(m % 2, m + 1, 2):
        shift = (m - nn) // 2
        for k, c in enumerate(big_c_coeffs(nn, p_a, q)):
            rhs[k + shift] += coeffs[nn] * c
    worst = max(range(len(lhs)), key=lambda k: (math.isnan(d := abs(lhs[k] - rhs[k])), d))
    return VerificationReport.build(IdentityId.PROP_3_1, inputs, lhs[worst], rhs[worst],
                                    scale=max(map(abs, lhs)))


def _ultra_ortho_moduli(beta) -> dict[str, float]:
    """:func:`_weight_moduli` at (beta, beta, 1, 1), both |beta|."""
    return {"|beta|": abs(beta)}


def check_ultra_ortho(beta, q, m: int, n: int) -> VerificationReport:
    """Half-period orthogonality of the single-parameter family under the
    (beta, beta, 1, 1) specialization of the weight, which needs |beta| < 1;
    diagonal 1/h_n."""
    from . import qfun

    q = as_base(q)
    beta = finite_complex("beta", beta)
    _require(_ultra_ortho_moduli(beta))
    p = ParamSet4(beta, beta, 1.0, 1.0)
    return _circle_check(
        IdentityId.ULTRA_ORTHO, {"beta": beta, "q": q, "m": m, "n": n},
        p, q, HALF_PERIOD,
        (big_c_coeffs(m, p, q), big_c_coeffs(n, p, q)),
        lambda: 1.0 / qfun.h_norm(n, beta, q) if m == n else 0.0 + 0.0j,
    )


def check_prop_2_1_2(p: ParamSet4, q, n: int, theta: float = 0.0) -> VerificationReport:
    """Phi at (e^{i theta}, e^{-i theta}) equals (q;q)_n C_n(e^{i theta}),
    for a real angle theta."""
    from . import qfun

    q = as_base(q)
    theta = finite_complex("theta", theta)
    if theta.imag:
        raise DomainError(f"theta must be real, got {theta!r}")
    theta = theta.real
    x = complex(math.cos(theta), math.sin(theta))
    return _check(
        IdentityId.PROP_2_1_2, _paramset_inputs(p, q) | {"n": n, "theta": theta},
        lambda: qfun.phi_eval(n, x, x.conjugate(), p, q),
        lambda: qpoch_finite(q, q, n) * qfun.laurent_at(big_c_coeffs(n, p, q), n, theta),
    )


def check_prop_2_1_3(p: ParamSet4, q, n: int = 200) -> VerificationReport:
    """Growth-root diagnostic |C_n(1)|^{1/n} against max(|gamma|, |delta|)."""
    from . import qfun

    q = as_base(q)
    return _check(
        IdentityId.PROP_2_1_3, _paramset_inputs(p, q) | {"n": n},
        lambda: complex(qfun.growth_root(n, p, q)),
        lambda: complex(max(abs(p.gamma), abs(p.delta))),
    )


# PROP_2_2's majorant, fixed, and recorded in each of its reports' inputs.
PROP_2_2_MAJORANT = {"t_fraction": 0.9, "partial_terms": 200, "tail_terms": 100}


def check_prop_2_2(p: ParamSet4, q, k: int = 0) -> VerificationReport:
    """Majorant Cauchy check for the diagonal generating sum: with
    |t| = t_fraction * min(1/|gamma|, 1/|delta|), the tail of

        sum_n C_{n+k}(1) C_n(1) |(q;q)_{n+k} / (ra*rb;q)_{n+k}| |t|^n

    (its tail_terms terms beyond the first partial_terms, all three values
    those of :data:`PROP_2_2_MAJORANT`) must stay below tolerance times the
    partial sum.  The report's lhs is the tail, rhs is zero, scale is the
    partial sum.  Needs k >= 0 and ra*rb != 1 (else (ra*rb;q)_{n+k} vanishes)."""
    import numpy as np
    from . import kernels

    q = as_base(q)
    as_degree("k", k)
    ra_rb = p.ratio_a * p.ratio_b
    if ra_rb == 1.0:
        raise DomainError("ra*rb = (alpha/gamma)(beta/delta) must not be 1")
    t_fraction, partial_terms, tail_terms = PROP_2_2_MAJORANT.values()
    inputs = _paramset_inputs(p, q) | {"k": k} | PROP_2_2_MAJORANT
    t_abs = t_fraction * min(1.0 / abs(p.gamma), 1.0 / abs(p.delta))

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the report
        c_at_one = np.abs(kernels.big_c_at_one(partial_terms + tail_terms + k, p, q)).tolist()
    poch_ratio = abs(qpoch_finite(q, q, k) / qpoch_finite(ra_rb, q, k))
    tn = 1.0
    terms = []
    for nn in range(partial_terms + tail_terms):
        terms.append(c_at_one[nn + k] * c_at_one[nn] * poch_ratio * tn)
        poch_ratio *= abs((1.0 - q ** (nn + k + 1)) / (1.0 - ra_rb * q ** (nn + k)))
        tn *= t_abs
    partial, tail = sum(terms[:partial_terms]), sum(terms[partial_terms:])
    return VerificationReport.build(
        IdentityId.PROP_2_2, inputs, complex(tail), 0.0 + 0.0j, scale=partial
    )


def check_prop_2_4(p: ParamSet4, q, n: int, x, y) -> VerificationReport:
    """Lattice-integral representation vs. the double-sum evaluation of Phi_n."""
    from . import qfun

    q = as_base(q)
    x = finite_complex("x", x)
    y = finite_complex("y", y)
    return _check(
        IdentityId.PROP_2_4, _paramset_inputs(p, q) | {"n": n, "x": x, "y": y},
        lambda: qfun.phi_qintegral_repr(n, x, y, p, q),
        lambda: qfun.phi_eval(n, x, y, p, q),
    )


def check_rogers_6w5(a, b, c, d, q) -> VerificationReport:
    """Very-well-poised six-parameter sum at z = a q/(b c d) vs. its closed
    product form."""
    q = as_base(q)
    a, b, c, d = (finite_complex(name, v) for name, v in zip("abcd", (a, b, c, d)))
    z = rogers_6w5_argument(a, b, c, d, q)
    return _check(
        IdentityId.ROGERS_6W5, {"a": a, "b": b, "c": c, "d": d, "q": q},
        lambda: very_well_poised(a, [b, c, d], q, z),
        lambda: rogers_6w5_rhs(a, b, c, d, q),
    )


def check_qbinomial(a, z, q) -> VerificationReport:
    """Binomial series sum_n (a;q)_n z^n/(q;q)_n vs. (az;q)_oo/(z;q)_oo."""
    q = as_base(q)
    a = finite_complex("a", a)
    z = finite_complex("z", z)
    return _check(
        IdentityId.QBINOMIAL, {"a": a, "z": z, "q": q},
        lambda: phi_series(PhiSpec((a,), (), q, z)),
        lambda: qbinomial_product_ratio(a, z, q),
    )


# ---------------------------------------------------------------------------
# the identity registry and randomized sweeps
# ---------------------------------------------------------------------------


class SweepSpec(Record):
    """Seeded randomized sweep: ``box`` entries override the identity's
    default parameter ranges (see the ``box`` of each :data:`REGISTRY`
    record for the keys it reads; None is a new empty box); degree draws are
    capped by m_max / n_max.  The seed and the counts are nonnegative
    integers (:func:`~qortho.qcore.as_degree`), so a sweep never draws from
    OS entropy."""

    _fields = ("seed", "draws", "box", "m_max", "n_max")

    def __init__(self, seed: int, draws: int,
                 box: Mapping[str, tuple[float, float]] | None = None,
                 m_max: int = 6, n_max: int = 6) -> None:
        self._set(seed=as_degree("seed", seed), draws=as_degree("draws", draws),
                  box={} if box is None else box,
                  m_max=as_degree("m_max", m_max), n_max=as_degree("n_max", n_max))


# All default sweeps draw real parameters; q stays within (0, 0.8].  A drawer
# admits the moduli its checker requires below 1 up to a bound: 0.7 for
# THM_1_2's seven, 1 - WEIGHT_MARGIN for the weight's, which keeps each factor
# |1 - w q^k e^{2i theta}| >= WEIGHT_MARGIN on the circle; beyond 1 the
# orthogonality relations fail.  Its other tests are conditioning margins.
WEIGHT_MARGIN = 0.08

_MAX_REJECTS = 500


def _admits(moduli: Mapping[str, float], bound: float = 1.0 - WEIGHT_MARGIN) -> bool:
    """Whether a drawer accepts: every modulus (name -> value) <= ``bound``."""
    return all(value <= bound for value in moduli.values())


def _chain_clear(w: float, q: float) -> bool:
    """Every |1 - |w| q^k| with |w| q^k >= 1e-3 is at least WEIGHT_MARGIN."""
    return min_factor_abs(abs(w), q, 1e-3)[0] >= WEIGHT_MARGIN


def _uniform(rng: np.random.Generator, lo_hi: tuple[float, float]) -> float:
    return float(rng.uniform(*lo_hi))


def _degrees(rng: np.random.Generator, spec: SweepSpec) -> dict:
    return {"m": int(rng.integers(0, spec.m_max + 1)), "n": int(rng.integers(0, spec.n_max + 1))}


def _draw_paramset(rng, box) -> ParamSet4:
    """Real parameters from ``scale`` and ``ratio``, until :func:`_admits` the weight's."""
    for _ in range(_MAX_REJECTS):
        gamma, delta = _uniform(rng, box["scale"]), _uniform(rng, box["scale"])
        ra, rb = _uniform(rng, box["ratio"]), _uniform(rng, box["ratio"])
        p = ParamSet4(ra * gamma, rb * delta, gamma, delta)
        if _admits(weight := _weight_moduli(p)):
            return p
    raise DomainError(f"no draw from scale {box['scale']} and ratio {box['ratio']} has "
                      f"{' and '.join(weight)} <= {1.0 - WEIGHT_MARGIN:g}")


# Drawers longer than one expression.  Each takes (rng, box, q, spec), q
# already drawn, and returns checker arguments, or None to reject the
# attempt; values are drawn in the order written.


def _draw_thm_1_2(rng, box, q, spec) -> dict | None:
    p = _draw_paramset(rng, box)
    biggest = max(abs(p.gamma), abs(p.delta))
    s = _uniform(rng, box["st_fraction"]) * 0.7 / biggest
    t = _uniform(rng, box["st_fraction"]) * 0.7 / biggest
    if _admits(_thm_1_2_moduli(p, s, t, q), 0.7):
        return {"p": p, "s": s, "t": t, "q": q}


def _draw_thm_1_3(rng, box, q, spec) -> dict | None:
    a, b = _uniform(rng, box["ab"]), _uniform(rng, box["ab"])
    gamma, delta = _uniform(rng, box["scale"]), _uniform(rng, box["scale"])
    if _admits(_thm_1_3_moduli(a, gamma, delta)):
        m, n = _degrees(rng, spec).values()
        # same-parity m < n draws check the closed form's zero too, but the
        # swap keeps every seeded sweep's draws as they were
        if (m - n) % 2 == 0 and m < n:
            m, n = n, m
        return {"r": ReducedParams(a, b), "gamma": gamma, "delta": delta, "q": q, "m": m, "n": n}


def _draw_prop_3_1(rng, box, q, spec) -> dict:
    a = _uniform(rng, (max(box["ab"][0], 0.05), box["ab"][1]))
    b = _uniform(rng, box["ab"])
    gamma, delta = _uniform(rng, box["scale"]), _uniform(rng, box["scale"])
    return {"r": ReducedParams(a, b), "gamma": gamma, "delta": delta,
            "q": q, "m": int(rng.integers(0, spec.m_max + 1))}


def _draw_prop_2_4(rng, box, q, spec) -> dict | None:
    p = _draw_paramset(rng, box)
    x, y = _uniform(rng, box["xy"]), _uniform(rng, box["xy"])
    gx_over_dy = abs(p.gamma * x / (p.delta * y))
    # endpoints must be distinct and the quotient clear of the q-chain
    if (1.0 / 3.0 <= gx_over_dy <= 3.0 and _chain_clear(gx_over_dy, q)
            and _chain_clear(1.0 / gx_over_dy, q)):
        return {"p": p, "q": q, "n": int(rng.integers(0, spec.n_max + 1)), "x": x, "y": y}


def _draw_rogers_6w5(rng, box, q, spec) -> dict | None:
    b, c, d = (_uniform(rng, box["bcd"]) for _ in range(3))
    a = _uniform(rng, box["z"]) * b * c * d / q
    z = rogers_6w5_argument(a, b, c, d, q)
    aq = a * q
    if abs(a) < 0.9 and all(_chain_clear(w, q) for w in (aq / b, aq / c, aq / d, z)):
        return {"a": a, "b": b, "c": c, "d": d, "q": q}


def _draw_ultra_ortho(rng, box, q, spec) -> dict | None:
    beta = _uniform(rng, box["beta"])
    if _admits(_ultra_ortho_moduli(beta)):
        return {"beta": beta, "q": q, **_degrees(rng, spec)}


class Identity(Record):
    """Everything the package states about one identity besides its checker,
    whose positional parameters are the identity's parameters.  Every report
    of the identity is judged at ``tolerance``.  ``draw(rng, box, q, spec)``
    returns checker arguments for one sweep draw from ``box``, this ``box``
    with overrides, or None to reject the attempt."""

    _fields = ("id", "tolerance", "box", "draw")

    def __init__(self, id: IdentityId, tolerance: float, box: Mapping[str, tuple[float, float]],
                 draw: Callable[..., dict]) -> None:
        self._set(id=id, tolerance=tolerance, box=box, draw=draw)

    @property
    def checker(self) -> Callable[..., VerificationReport]:
        """The module-level ``check_<id>`` function, looked up on each use so
        that a rebound module attribute takes effect."""
        return globals()[f"check_{self.id.value.lower()}"]


_PARAM_BOX = {"q": (0.1, 0.7), "ratio": (0.05, 0.6), "scale": (0.5, 1.5)}
_REDUCED_BOX = {"q": (0.1, 0.7), "ab": (0.1, 0.6), "scale": (0.5, 1.5)}

# Quadrature-vs-closed-form identities tolerate 1e-8 (double-precision products
# lose roughly two digits over hundreds of factors); series-vs-product ones
# hold tighter.
REGISTRY: Mapping[IdentityId, Identity] = {record.id: record for record in (
    Identity(IdentityId.THM_1_1, 1e-8, _PARAM_BOX,
             lambda rng, box, q, spec: {"p": _draw_paramset(rng, box), "q": q,
                                        **_degrees(rng, spec)}),
    Identity(IdentityId.THM_1_2, 1e-8, _PARAM_BOX | {"st_fraction": (0.1, 1.0)}, _draw_thm_1_2),
    Identity(IdentityId.THM_1_3, 1e-8, _REDUCED_BOX, _draw_thm_1_3),
    Identity(IdentityId.PROP_2_1_2, 1e-12, _PARAM_BOX,
             lambda rng, box, q, spec: {"p": _draw_paramset(rng, box), "q": q,
                                        "n": int(rng.integers(0, spec.n_max + 1)),
                                        "theta": _uniform(rng, (0.0, TWO_PI))}),
    Identity(IdentityId.PROP_2_1_3, 0.05, _PARAM_BOX,
             lambda rng, box, q, spec: {"p": _draw_paramset(rng, box), "q": q}),
    Identity(IdentityId.PROP_2_2, 1e-10, _PARAM_BOX | {"scale": (0.5, 0.9)},
             lambda rng, box, q, spec: {"p": _draw_paramset(rng, box), "q": q,
                                        "k": int(rng.integers(0, 4))}),
    Identity(IdentityId.PROP_2_4, 1e-10,
             {"q": (0.1, 0.7), "ratio": (0.05, 0.5), "scale": (0.5, 1.2), "xy": (0.4, 1.1)},
             _draw_prop_2_4),
    Identity(IdentityId.PROP_3_1, 1e-9, _REDUCED_BOX, _draw_prop_3_1),
    Identity(IdentityId.ROGERS_6W5, 1e-9, {"q": (0.2, 0.7), "bcd": (0.3, 0.8), "z": (0.05, 0.65)},
             _draw_rogers_6w5),
    Identity(IdentityId.QBINOMIAL, 1e-11, {"q": (0.1, 0.8), "a": (-0.9, 0.9), "z": (-0.7, 0.7)},
             lambda rng, box, q, spec: {"a": _uniform(rng, box["a"]),
                                        "z": _uniform(rng, box["z"]), "q": q}),
    Identity(IdentityId.ULTRA_ORTHO, 1e-8, {"q": (0.1, 0.7), "beta": (0.05, 0.7)},
             _draw_ultra_ortho),
)}


def draw_params(identity_id: IdentityId, rng: np.random.Generator, spec: SweepSpec) -> dict:
    """One deterministic parameter draw for the given identity from its box with
    ``spec.box`` overrides: q, then its drawer's attempts until one is admitted
    (:func:`_admits` its moduli, and its margins hold); :class:`DomainError`
    naming the identity and the box if none of ``_MAX_REJECTS`` is."""
    record = REGISTRY[IdentityId(identity_id)]
    box = dict(record.box) | dict(spec.box)
    q = _uniform(rng, box["q"])
    for _ in range(_MAX_REJECTS):
        if (params := record.draw(rng, box, q, spec)) is not None:
            return params
    raise DomainError(f"no {record.id.value} draw from the box {box} is admissible "
                      f"in {_MAX_REJECTS} attempts")


def run_sweep(identity_id: IdentityId | str, spec: SweepSpec) -> list[VerificationReport]:
    """Run ``spec.draws`` seeded checks of one identity.  Deterministic given
    the seed; individual failures and flags land in the reports.  The sweep
    aborts only with the :class:`DomainError` of :func:`draw_params`, for a
    box that holds no admissible draw."""
    import numpy as np

    record = REGISTRY[IdentityId(identity_id)]
    rng = np.random.default_rng(spec.seed)
    checker = record.checker
    return [checker(**draw_params(record.id, rng, spec)) for _ in range(spec.draws)]
