"""Acceptance suite: every identity at its stated tolerance, desk scale.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
even when everything is green).  Parameter draws are seeded; the boxes match
the stated ranges with the weight-denominator moduli kept below 1 (the
identities' validity domain, see the sweep-box notes in qortho.verify).
"""

import math
import time

import numpy as np
import pytest

from qortho import (
    ParamSet4,
    ReducedParams,
    SweepSpec,
    big_c_coeffs,
    check_prop_2_1_3,
    check_thm_1_1,
    check_thm_1_3,
    check_ultra_ortho,
    connection_coeffs,
    diag_rhs_thm11,
    h_norm,
    qpoch_finite,
    qpoch_infinite,
    run_sweep,
)
from qortho.qfun import thm_1_2_rhs_series
from qortho.verify import REGISTRY, IdentityId, draw_params

SEED = 20260809


def report_line(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number:2d}: {status} — {detail}")
    assert passed, detail


def thm_1_1_param_draws(count, seed=SEED):
    rng = np.random.default_rng(seed)
    spec = SweepSpec(seed=seed, draws=count)
    return [draw_params(IdentityId.THM_1_1, rng, spec) for _ in range(count)]


def test_the_quadrature_criteria_are_judged_at_1e_8():
    # criteria 1, 2, 4, 11 and 12 check these identities at their registry tolerance
    circle = (IdentityId.THM_1_1, IdentityId.THM_1_3, IdentityId.ULTRA_ORTHO)
    assert {i: REGISTRY[i].tolerance for i in circle} == dict.fromkeys(circle, 1e-8)


def test_criterion_01_full_period_off_diagonal():
    t0 = time.perf_counter()
    worst = 0.0
    for params in thm_1_1_param_draws(20):
        p, q = params["p"], params["q"]
        for m in range(7):
            for n in range(m + 1, 7):
                rep = check_thm_1_1(p, q, m, n)
                assert rep.rhs == 0
                worst = max(worst, rep.abs_residual / max(abs(rep.lhs), 1e-300))
                if not rep.passed:
                    report_line(1, False, f"off-diagonal m={m} n={n} inputs={rep.inputs}")
    elapsed = time.perf_counter() - t0
    report_line(
        1,
        elapsed < 30.0,
        f"20 draws x 21 off-diagonal pairs, |LHS| <= 1e-8*scale, {elapsed:.1f}s",
    )


def test_criterion_02_full_period_diagonal_and_exponent_discrimination():
    worst = 0.0
    for params in thm_1_1_param_draws(20):
        p, q = params["p"], params["q"]
        for n in range(7):
            rep = check_thm_1_1(p, q, n, n)
            worst = max(worst, rep.rel_residual)
            if not rep.passed:
                report_line(2, False, f"diagonal n={n} inputs={rep.inputs}")
    # the closed form carries (gamma delta)^n, not (gamma delta)^2: check that
    # the wrong exponent is numerically rejected when |gamma delta| is away
    # from 1
    for gamma, delta in ((0.9, 0.8), (1.2, 1.1)):
        p = ParamSet4(0.25 * gamma, 0.4 * delta, gamma, delta)
        q = 0.5
        gd = gamma * delta
        for n in (0, 1, 3):
            rep = check_thm_1_1(p, q, n, n)
            assert rep.passed
            wrong = diag_rhs_thm11(n, p, q) / gd ** n * gd ** 2
            mismatch = abs(rep.lhs - wrong) / abs(wrong)
            if mismatch <= 1e-2:
                report_line(2, False, f"wrong exponent accepted at n={n}, gd={gd}")
    report_line(2, True, f"diagonal rel residual <= 1e-8 (worst {worst:.2e}); "
                         f"(gamma*delta)^2 variant rejected for n in {{0,1,3}}")


def test_criterion_03_seven_parameter_integral():
    reports = run_sweep(IdentityId.THM_1_2, SweepSpec(seed=SEED, draws=10))
    worst = max(r.rel_residual for r in reports)
    ok = all(r.passed for r in reports) and worst <= 1e-8
    # s <-> t swap leaves the closed side untouched
    p = ParamSet4(0.2, 0.1, 0.8, 0.9)
    swap_ok = thm_1_2_rhs_series(p, 0.4, 0.5, 0.5) == thm_1_2_rhs_series(p, 0.5, 0.4, 0.5)
    report_line(3, ok and swap_ok,
                f"10 draws rel <= 1e-8 (worst {worst:.2e}); s<->t swap identical")


def test_criterion_04_half_period_biorthogonality():
    rng = np.random.default_rng(SEED)
    spec = SweepSpec(seed=SEED, draws=6)
    worst_parity = 0.0
    worst_closed = 0.0
    for _ in range(6):
        drawn = draw_params(IdentityId.THM_1_3, rng, spec)
        r, gamma, delta, q = drawn["r"], drawn["gamma"], drawn["delta"], drawn["q"]
        for m in range(6):
            for n in range(6):
                if (m - n) % 2 == 1:
                    rep = check_thm_1_3(r, gamma, delta, q, m, n)
                    worst_parity = max(worst_parity, rep.rel_residual)
                    if not rep.passed:
                        report_line(4, False, f"parity m={m} n={n} inputs={rep.inputs}")
                else:  # the closed form at m >= n, its zero at m < n
                    rep = check_thm_1_3(r, gamma, delta, q, m, n)
                    worst_closed = max(worst_closed, rep.rel_residual)
                    if not rep.passed:
                        report_line(4, False, f"closed m={m} n={n} inputs={rep.inputs}")
        # b = a diagonal against (gamma delta)^n / h_n
        same = ReducedParams(r.a, r.a)
        for n in range(4):
            rep = check_thm_1_3(same, gamma, delta, q, n, n)
            expected = (gamma * delta) ** n / h_norm(n, r.a, q)
            assert rep.rhs == pytest.approx(expected, rel=1e-12)
            if not rep.passed:
                report_line(4, False, f"b=a diagonal n={n} inputs={rep.inputs}")
    report_line(4, True, f"parity zeros (worst {worst_parity:.2e}) and closed forms "
                         f"(worst {worst_closed:.2e}) at 1e-8")


def test_criterion_05_very_well_poised_summation():
    reports = run_sweep(IdentityId.ROGERS_6W5, SweepSpec(seed=SEED, draws=50))
    worst = max(r.rel_residual for r in reports)
    report_line(5, all(r.passed for r in reports) and worst <= 1e-9,
                f"50 draws rel <= 1e-9 (worst {worst:.2e})")


def test_criterion_06_binomial_series():
    reports = run_sweep(IdentityId.QBINOMIAL, SweepSpec(seed=SEED, draws=100))
    worst = max(r.rel_residual for r in reports)
    report_line(6, all(r.passed for r in reports) and worst <= 1e-11,
                f"100 draws rel <= 1e-11 (worst {worst:.2e})")


def test_criterion_07_lattice_integral_representation():
    reports = run_sweep(IdentityId.PROP_2_4, SweepSpec(seed=SEED, draws=50, n_max=10))
    worst = max(r.rel_residual for r in reports)
    report_line(7, all(r.passed for r in reports) and worst <= 1e-10,
                f"50 draws n <= 10, rel <= 1e-10 (worst {worst:.2e})")


def test_criterion_08_circle_reduction():
    reports = run_sweep(IdentityId.PROP_2_1_2, SweepSpec(seed=SEED, draws=20, n_max=12))
    worst = max(r.rel_residual for r in reports)
    report_line(8, all(r.passed for r in reports) and worst <= 1e-12,
                f"20 draws n <= 12, rel <= 1e-12 (worst {worst:.2e})")


def test_criterion_09_growth_root():
    cases = [
        ParamSet4(0.3 * 0.7, 0.3 * 0.4, 0.7, 0.4),
        ParamSet4(0.2 * 0.7, 0.5 * 0.7, 0.7, 0.7),
        ParamSet4(0.3 * 1.0, 0.3 * 0.6, 1.0, 0.6),
        ParamSet4(0.4 * 1.0, 0.2 * 1.0, 1.0, 1.0),
        ParamSet4(0.3 * 1.5, 0.3 * 0.8, 1.5, 0.8),
    ]
    worst = 0.0
    for p in cases:
        rep = check_prop_2_1_3(p, 0.5, n=200)
        worst = max(worst, rep.rel_residual)
        if not rep.passed:
            report_line(9, False, f"target {rep.rhs.real}: root {rep.lhs.real}")
    report_line(9, worst <= 0.05,
                f"5 parameter sets, max(|gamma|,|delta|) in {{0.7,1.0,1.5}}, "
                f"root within 5% (worst {worst:.1%})")


def test_criterion_10_connection_expansion():
    # all m+1 Laurent coefficients of degree m of the b-family against the
    # shifted coefficients of the a-family degrees, recomputed here
    reports = run_sweep(IdentityId.PROP_3_1, SweepSpec(seed=SEED, draws=10, m_max=6))
    worst = 0.0
    for rep in reports:
        i = rep.inputs
        m, r = i["m"], ReducedParams(i["a"], i["b"])
        lhs = np.array(big_c_coeffs(m, ParamSet4.from_reduced(r.b, i["gamma"], i["delta"]),
                                    i["q"]))
        rhs = np.zeros(m + 1, dtype=complex)
        coeffs = connection_coeffs(m, r, i["gamma"] * i["delta"], i["q"])
        for n in range(m % 2, m + 1, 2):
            shift = (m - n) // 2
            rhs[shift:shift + n + 1] += coeffs[n] * np.array(
                big_c_coeffs(n, ParamSet4.from_reduced(r.a, i["gamma"], i["delta"]), i["q"]))
        worst = max(worst, np.max(np.abs(lhs - rhs)) / np.max(np.abs(lhs)))
    ok = all(r.passed for r in reports)
    report_line(10, ok and worst <= 1e-9,
                f"10 draws m <= 6, all m+1 coefficients agree to 1e-9 (worst {worst:.2e})")


def test_criterion_11_single_parameter_orthogonality():
    worst = 0.0
    for beta in (0.1, 0.3, 0.6):
        for m in range(6):
            for n in range(6):
                rep = check_ultra_ortho(beta, 0.5, m, n)
                worst = max(worst, rep.rel_residual if m == n else 0.0)
                if not rep.passed:
                    report_line(11, False, f"beta={beta} m={m} n={n}")
    report_line(11, True,
                f"beta in {{0.1,0.3,0.6}}, m,n <= 5, diagonal 1/h_n at 1e-8 "
                f"(worst {worst:.2e})")


def test_criterion_12_reduction_consistency():
    # gamma = delta = 1 reduces the closed diagonal to the five-parameter form
    q = 0.5
    p_unit = ParamSet4(0.25, 0.4, 1.0, 1.0)
    for m, n in ((0, 0), (1, 1), (0, 3), (2, 2)):
        rep = check_thm_1_1(p_unit, q, m, n)
        if not rep.passed:
            report_line(12, False, f"gamma=delta=1 case m={m} n={n}")

    # alpha = a gamma, beta = a delta reproduces the same-family full-period
    # display: 4 pi (a,a;q)_oo (a^2;q)_n (gd)^n / ((q,a^2;q)_oo (q;q)_n (1-a q^n))
    a, gamma, delta = 0.3, 0.9, 1.1
    p_red = ParamSet4.from_reduced(a, gamma, delta)
    worst = 0.0
    for n in range(4):
        rep = check_thm_1_1(p_red, q, n, n)
        display = (
            4 * math.pi * qpoch_infinite(a, q) ** 2 * qpoch_finite(a * a, q, n)
            * (gamma * delta) ** n
            / (
                qpoch_infinite(q, q) * qpoch_infinite(a * a, q)
                * qpoch_finite(q, q, n) * (1 - a * q ** n)
            )
        )
        worst = max(worst, abs(rep.lhs - display) / abs(display))
        assert rep.rhs == pytest.approx(display, rel=1e-12)
        if not rep.passed:
            report_line(12, False, f"reduced-family diagonal n={n}")
    report_line(12, worst <= 1e-8,
                f"gamma=delta=1 and alpha=a*gamma,beta=a*delta reductions "
                f"reproduced (worst {worst:.2e})")
