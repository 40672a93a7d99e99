"""References with a known answer for the circle checks, at complex
parameters: a classical closed form and an exact symmetry of THM_1_1.

- At alpha = beta = 0 the weight is (c w, 1/(c w); q)_oo with c = gamma/delta
  and w = e^{2i theta}.  By the Jacobi triple product (Gasper & Rahman,
  *Basic Hypergeometric Series*, (1.6.1)) its constant term in w is
  2 / (q;q)_oo, so its full-period integral is 4 pi / (q;q)_oo whatever the
  phases of gamma and delta are.
- The rotation (alpha e^{i phi}, beta e^{-i phi}, gamma e^{i phi},
  delta e^{-i phi}) turns C_n(e^{i theta}) into C_n(e^{i(theta + phi)}) and
  shifts the weight by phi, so no full-period integral changes.

Each reference is computed here with its own plain loop, not with ``qfun``'s
products."""

import cmath
import math

import numpy as np

from qortho import ParamSet4, SweepSpec, check_thm_1_1
from qortho.qfun import diag_rhs_thm11
from qortho.verify import IdentityId, draw_params

DRAWS = 200


def q_q_infinity(q: float) -> float:
    """(q;q)_oo, by multiplying its factors until they are 1 in double."""
    product, qk = 1.0, q
    while abs(qk) > 1e-18:
        product *= 1.0 - qk
        qk *= q
    return product


def test_the_weight_at_alpha_beta_zero_integrates_to_the_jacobi_triple_product():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(DRAWS):
        gamma = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
        delta = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(-math.pi, math.pi))
        q = rng.uniform(0.0, 0.7)
        report = check_thm_1_1(ParamSet4(0, 0, gamma, delta), q, 0, 0)
        reference = 4.0 * math.pi / q_q_infinity(q)
        assert report.passed and not report.flags, (gamma, delta, q)
        worst = max(worst, abs(report.lhs - reference) / reference)
    # 1.8e-15 measured
    assert worst <= 1e-13


def test_a_rotation_of_the_parameters_leaves_thm_1_1_unchanged():
    rng = np.random.default_rng(5)
    spec = SweepSpec(seed=5, draws=DRAWS)
    worst = 0.0
    for _ in range(DRAWS):
        draw = draw_params(IdentityId.THM_1_1, rng, spec)
        p, q, m, n = draw["p"], draw["q"], draw["m"], draw["n"]
        turn = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        rotated = ParamSet4(p.alpha * turn, p.beta / turn, p.gamma * turn, p.delta / turn)
        report, turned = check_thm_1_1(p, q, m, n), check_thm_1_1(rotated, q, m, n)
        assert (turned.passed, turned.flags) == (report.passed, report.flags), draw
        # h_n depends on alpha/gamma, beta/delta and gamma delta only, which
        # the rotation keeps
        h = max(abs(diag_rhs_thm11(m, p, q)), abs(diag_rhs_thm11(n, p, q)))
        worst = max(worst, abs(turned.lhs - report.lhs) / h)
    # 7.2e-14 measured; swapping the weight's two denominator symbols moves it to 156
    assert worst <= 1e-12
