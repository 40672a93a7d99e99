import inspect
import math

import mpmath
import numpy as np
import pytest

from qortho import (
    DomainError,
    NearSingular,
    ParamSet4,
    QuadResult,
    TruncationExceeded,
    periodic_integral,
    phi_eval,
    phi_qintegral_repr,
    weight_omega_many,
)
from qortho import qcore, quad
from qortho.quad import _grid, _moment_table
from qortho.verify import IdentityId, draw_params

from oracles import lattice_repr_oracle, mp_phi_terms


def rule_setting(monkeypatch, start, cap, stop=quad.REL_TOL):
    """Set the circle rule's start grid, node cap and stop for one test."""
    monkeypatch.setattr(quad, "START_NODES", start)
    monkeypatch.setattr(quad, "MAX_NODES", cap)
    monkeypatch.setattr(quad, "REL_TOL", stop)


def one_call_per_level_integral(f):
    """The refinement loop with one integrand call per level: the start grid,
    then the midpoints of each grid so far."""
    length = 2 * math.pi
    n = quad.START_NODES
    values = f(2 * math.pi * np.arange(n) / n)
    running_sum = values.sum()
    fmax = float(np.max(np.abs(values)))
    estimate = length / n * running_sum
    converged, est_error = False, math.inf
    while 2 * n <= quad.MAX_NODES:
        new_values = f(2 * math.pi * (np.arange(n) + 0.5) / n)
        running_sum += new_values.sum()
        fmax = max(fmax, float(np.max(np.abs(new_values))))
        n *= 2
        refined = length / n * running_sum
        est_error = abs(refined - estimate)
        estimate = refined
        if est_error <= quad.REL_TOL * max(abs(estimate), fmax * length):
            converged = True
            break
    return QuadResult(complex(estimate), n, converged, est_error, fmax * length)


class TestPeriodicIntegral:
    def test_pure_harmonic_integrates_to_zero(self):
        res = periodic_integral(lambda th: np.exp(3j * th))
        assert abs(res.value) < 1e-14
        assert res.converged

    def test_constant(self):
        res = periodic_integral(lambda th: np.ones_like(th, dtype=complex))
        assert res.value == pytest.approx(2 * math.pi, rel=1e-15)

    def test_cosine_squared(self):
        # antiderivative (th + sin th cos th)/2 over [0, 2pi] gives pi
        res = periodic_integral(lambda th: np.cos(th) ** 2 + 0j)
        assert res.value == pytest.approx(math.pi, rel=1e-14)

    def test_half_period_even_integrand(self):
        # pi-periodic, so half the full-period value is the [0, pi] integral
        res = periodic_integral(lambda th: np.cos(th) ** 2 + 0j)
        assert 0.5 * res.value == pytest.approx(math.pi / 2, rel=1e-14)

    def test_half_period_even_harmonics(self):
        # f = 3 + e^{2i th} + e^{-2i th}: half-period integral is 3 pi
        res = periodic_integral(lambda th: 3.0 + np.exp(2j * th) + np.exp(-2j * th))
        assert 0.5 * res.value == pytest.approx(3 * math.pi, rel=1e-13)

    def test_the_rule_takes_no_interval(self):
        # one period, [0, 2 pi); a half-period identity halves the value itself
        params = inspect.signature(periodic_integral).parameters
        assert list(params) == ["f", "poles"]
        assert params["poles"].kind is inspect.Parameter.KEYWORD_ONLY
        with pytest.raises(TypeError):
            periodic_integral(lambda th: th, (0.0, math.pi))

    def test_no_convergence_flag(self):
        # poles at theta = +-i t, cosh t = 1 + 1e-7: the rule's error falls
        # like e^{-N t}, t about 4.5e-4, so no grid of up to 8192 nodes settles it
        grids = []

        def f(th):
            grids.append(th.shape[0])
            return 1.0 / (1.0 + 1e-7 - np.cos(th)) + 0j

        res = periodic_integral(f)
        assert not res.converged
        assert res.nodes == sum(grids) == quad.MAX_NODES == 8192
        assert math.isfinite(res.est_error)

    def test_the_default_rule(self):
        assert (quad.START_NODES, quad.MAX_NODES, quad.REL_TOL) == (64, 8192, 1e-10)

    @pytest.mark.parametrize("start, max_nodes, counts", [
        (16, 63, [32]),
        (16, 64, [32, 32]),
        (64, 8192, [128, 128, 256, 512, 1024, 2048, 4096]),
    ])
    def test_no_grid_takes_the_node_count_past_max_nodes(self, monkeypatch, start, max_nodes,
                                                         counts):
        grids = []

        def f(th):
            grids.append(th.shape[0])
            return 1.0 / (1.0005 - np.cos(th)) + 0j

        # a tolerance no estimate meets, so the rule refines as far as it may
        rule_setting(monkeypatch, start, max_nodes, 1e-300)
        res = periodic_integral(f)
        assert grids == counts
        assert res.nodes == sum(counts) <= max_nodes
        assert not res.converged

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("bad_call, counts", [(0, [128]), (2, [128, 128, 256])])
    def test_refinement_stops_at_the_first_level_that_is_not_finite(self, monkeypatch, bad,
                                                                     bad_call, counts):
        # no finer grid settles an overflow: refining would double up to
        # max_nodes on NaN, and inf against an infinite scale reads as converged
        grids = []

        def f(th):
            values = 1.0 / (1.0005 - np.cos(th)) + 0j
            if len(grids) == bad_call:
                values[3] = bad
            grids.append(th.shape[0])
            return values

        monkeypatch.setattr(quad, "REL_TOL", 1e-300)
        res = periodic_integral(f)
        assert grids == counts
        assert res.nodes == sum(counts)
        assert not res.converged and res.est_error == math.inf
        assert not np.isfinite(res.value)

    def test_a_level_whose_sums_overflow_ends_the_refinement(self, monkeypatch):
        # every value is finite, but their sum is not: no finer grid helps
        grids = []

        def f(th):
            grids.append(th.shape[0])
            return np.full(th.shape, 1e308 + 0j)

        monkeypatch.setattr(quad, "REL_TOL", 1e-300)
        with np.errstate(over="ignore", invalid="ignore"):
            res = periodic_integral(f)
        assert grids == [128]
        assert res.nodes == 128
        assert not res.converged and res.est_error == math.inf
        assert not np.isfinite(res.value)

    @pytest.mark.parametrize("start", [16, 64, 66])
    def test_every_grid_pairs_theta_with_theta_plus_pi(self, monkeypatch, start):
        grids = []

        def f(th):
            grids.append(th)
            return 1.0 / (1.0005 - np.cos(th)) + 0j  # too peaked to settle by 8x

        rule_setting(monkeypatch, start, start * 8)
        periodic_integral(f)
        # the first call covers the first two levels on one 2N-point grid
        assert [th.shape[0] for th in grids] == [2 * start, 2 * start, 4 * start]
        for th in grids:
            half = th.shape[0] // 2
            assert th.shape[0] == 2 * half
            assert np.max(np.abs(th[half:] - th[:half] - math.pi)) < 1e-14

    @pytest.mark.parametrize("start, max_nodes", [(16, 32), (16, 128), (64, 8192), (66, 528)])
    @pytest.mark.parametrize("peak", [1.5, 1.05, 1.0005])
    def test_matches_one_call_per_level(self, monkeypatch, start, max_nodes, peak):
        f = lambda th: 1.0 / (peak - np.cos(th)) + np.exp(1j * th) / (peak + np.sin(th))
        rule_setting(monkeypatch, start, max_nodes, 1e-12)
        got = periodic_integral(f)
        assert periodic_integral(f, poles=(0.0, 0.0)) == got
        want = one_call_per_level_integral(f)
        assert (got.nodes, got.converged, got.fscale) == (want.nodes, want.converged, want.fscale)
        assert abs(got.value - want.value) <= 1e-15 * abs(want.value)
        assert abs(got.est_error - want.est_error) <= 1e-15 * want.fscale

    def test_spectral_accuracy_on_weight_integrand(self, monkeypatch):
        # default box weight: nodes >= 128 already at the refinement plateau
        p = ParamSet4(0.2, 0.1, 0.8, 0.9)
        f = lambda th: weight_omega_many(th, p, 0.6)
        rule_setting(monkeypatch, 128, 256)
        small = periodic_integral(f)
        rule_setting(monkeypatch, 512, 8192)
        big = periodic_integral(f)
        assert small.value == pytest.approx(big.value, rel=1e-10)
        assert small.converged and big.converged


def pole_pair_integrand(coefs, poles):
    """f = g r with g = sum_k coefs[k] e^{i (k - d) theta}, d = the degree,
    and r = 1/((1 - a e^{2i theta})(1 - b e^{-2i theta})); and its exact
    integral over the period, 2 pi sum_m g_{-2m} r_m with r_m = a^m/(1 - ab)
    for m >= 0 and b^{-m}/(1 - ab) for m < 0."""
    a, b = poles
    degree = (len(coefs) - 1) // 2
    ks = np.arange(-degree, degree + 1)

    def f(th):
        z = np.exp(2j * th)
        return np.exp(1j * np.multiply.outer(th, ks)) @ coefs / ((1 - a * z) * (1 - b / z))

    exact = 2 * math.pi * sum(coefs[degree - 2 * m] * (a ** m if m >= 0 else b ** -m)
                              for m in range(-(degree // 2), degree // 2 + 1)) / (1 - a * b)
    return f, exact


class TestPoleCorrectedRule:
    POLES = [(0.95, 0.95), (0.95 * np.exp(0.7j), 0.95 * np.exp(-1.3j)), (0.95, 0.0),
             (0.0, -0.95j)]

    @pytest.mark.parametrize("poles", POLES)
    @pytest.mark.parametrize("nodes, degree", [(64, 31), (66, 32), (18, 8)])
    def test_exact_for_a_polynomial_of_degree_below_half_the_grid_times_r(
            self, monkeypatch, poles, nodes, degree, rng):
        # 66 and 18 are 2 mod 4, where sigma = z^ceil(n/4) is not +-1 on the grid
        coefs = rng.normal(size=2 * degree + 1) + 1j * rng.normal(size=2 * degree + 1)
        f, exact = pole_pair_integrand(coefs, poles)
        # the rule's last level is the one on the grid of ``nodes`` points
        rule_setting(monkeypatch, nodes // 2, nodes)
        got = periodic_integral(f, poles=poles)
        assert got.nodes == nodes
        assert abs(got.value - exact) <= 1e-14 * got.fscale
        # the plain rule on that grid is far off, and settles only by 1024 nodes
        plain = periodic_integral(f)
        assert abs(plain.value - exact) > 1e-4 * plain.fscale
        rule_setting(monkeypatch, nodes, 8192)
        assert periodic_integral(f).nodes >= 1024
        refined = periodic_integral(f, poles=poles)
        assert refined.converged and refined.nodes == 2 * nodes
        assert abs(refined.value - exact) <= 1e-14 * refined.fscale

    def test_half_period_halves_the_corrected_rule(self, rng):
        coefs = rng.normal(size=41) + 0j
        f, exact = pole_pair_integrand(coefs, (0.9, 0.8))
        got = periodic_integral(f, poles=(0.9, 0.8))
        assert got.nodes == 128
        assert abs(0.5 * got.value - exact / 2) <= 1e-14 * (0.5 * got.fscale)

    @pytest.mark.parametrize("n", [16, 18, 64, 66])
    def test_moment_table_holds_the_five_columns_of_the_grid(self, n):
        table = _moment_table(n)
        assert table.shape == (n, 5) and not table.flags.writeable
        z = np.exp(2j * _grid(n, False))
        sigma = z ** -(-n // 4)
        want = np.stack((np.ones(n), sigma, sigma / z, 1 / sigma, z / sigma), axis=1)
        assert np.max(np.abs(table - want)) <= 1e-13
        assert _moment_table(n) is table

    def test_a_refined_level_is_the_one_grid_rule_on_its_nodes(self, monkeypatch):
        # 32 + 32 nodes in the first call and 64 midpoints later give the
        # 128-node grid, and level 128 reads them in its order
        poles = (0.9, 0.8)

        def f(th):
            z = np.exp(2j * th)
            return np.exp(np.cos(3 * th) + 0.5j * np.sin(th)) / ((1 - 0.9 * z) * (1 - 0.8 / z))

        rule_setting(monkeypatch, 32, 128, 1e-300)
        refined = periodic_integral(f, poles=poles)
        # one call on the 128-point grid, whose last level is 128
        rule_setting(monkeypatch, 64, 128, 1e-300)
        one_grid = periodic_integral(f, poles=poles)
        assert (refined.nodes, refined.converged) == (one_grid.nodes, one_grid.converged) == (
            128, False)
        assert refined.value == one_grid.value

    @pytest.mark.parametrize("poles", [(1.0, 0.0), (0.0, -1j), (0.6, 1.2), (math.nan, 0.0)])
    def test_poles_on_or_outside_the_circle_rejected(self, poles):
        with pytest.raises(DomainError, match="inside the unit circle"):
            periodic_integral(lambda th: np.ones_like(th, dtype=complex), poles=poles)


class TestPhiQIntegralRepr:
    def test_spot_value_matches_double_sum(self):
        p = ParamSet4(0.2, 0.1, 0.8, 0.9)
        q = 0.5
        lhs = phi_qintegral_repr(2, 1.0, 0.6, p, q)
        rhs = phi_eval(2, 1.0, 0.6, p, q)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_random_draws(self, rng):
        count = 0
        while count < 25:
            gamma = rng.uniform(0.5, 1.2)
            delta = rng.uniform(0.5, 1.2)
            p = ParamSet4(
                rng.uniform(0.05, 0.5) * gamma, rng.uniform(0.05, 0.5) * delta,
                gamma, delta,
            )
            q = rng.uniform(0.1, 0.7)
            x = rng.uniform(0.4, 1.1)
            y = rng.uniform(0.4, 1.1)
            ratio = abs(p.gamma * x / (p.delta * y))
            if not (1 / 3 <= ratio <= 3) or min(abs(ratio - 1), abs(1 / ratio - 1)) < 0.1:
                continue
            n = int(rng.integers(0, 11))
            lhs = phi_qintegral_repr(n, x, y, p, q)
            rhs = phi_eval(n, x, y, p, q)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-30)
            count += 1

    @pytest.mark.parametrize("seed, degree_max, rotate",
                             [(1, 6, False), (2, 10, False), (3, 6, True)])
    def test_matches_the_node_by_node_sum_on_sweep_draws(self, seed, degree_max, rotate):
        # the one-sided sums cancel each other, so the error is measured
        # against the larger of them, not against the value; ``rotate`` turns
        # x and y by random phases
        rng = np.random.default_rng(seed)
        for _ in range(120):
            d = draw_params(IdentityId.PROP_2_4, rng, degree_max)
            x, y = d["x"], d["y"]
            if rotate:
                x, y = (v * np.exp(1j * rng.uniform(0.0, 2 * math.pi)) for v in (x, y))
            want, scale = lattice_repr_oracle(d["n"], x, y, d["p"], d["q"])
            got = phi_qintegral_repr(d["n"], x, y, d["p"], d["q"])
            assert abs(got - want) <= 1e-12 * scale, (d, x, y)

    def test_a_lattice_sum_beyond_max_terms_is_truncation(self, monkeypatch):
        # every product fits in 48 factors at q = 0.5, the n = 0 sums do not;
        # the sums stop at t_54, the first term after which the true tail is
        # within 2^-53 (next test), so 53 raises too
        p = ParamSet4(0.2, 0.1, 0.8, 0.9)
        for cap in (48, 53):
            monkeypatch.setattr(qcore, "MAX_TERMS", cap)
            with pytest.raises(TruncationExceeded, match="tail bound"):
                phi_qintegral_repr(0, 1.0, 0.6, p, 0.5)
        monkeypatch.setattr(qcore, "MAX_TERMS", 54)
        phi_qintegral_repr(0, 1.0, 0.6, p, 0.5)

    def test_no_2_53_stop_of_those_lattice_sums_comes_before_t_54(self):
        # each one-sided sum is K e^n 2phi1(u, v; w; q, q^{n+1}), u and v the
        # integrand's denominator symbols at z = e, w = q e/o; its terms fall
        # by about 1/2 a step, so after t_53 (max_terms = 53) the true tail
        # is still above 2^-53 of the sum, and after t_54 it is not
        alpha, beta, gamma, delta, x, y, q = 0.2, 0.1, 0.8, 0.9, 1.0, 0.6, 0.5
        gx, dy, gd = gamma * x, delta * y, gamma * delta
        for e, o in ((gx, dy), (dy, gx)):
            with mpmath.workdps(40):
                terms = mp_phi_terms((beta * e / (gd * x), alpha * e / (gd * y)),
                                     (q * e / o,), q, q, 200)
                bound = 2.0 ** -53 * mpmath.fsum(terms)
                assert mpmath.fsum(terms[54:]) > bound
                assert mpmath.fsum(terms[55:]) <= bound

    def test_a_lattice_sum_that_rises_before_it_falls_is_summed(self):
        # q = 0.95: the dy side's terms rise for 32 indices, the gx side's
        # for 24, from the 1/(1 - q^{k+1}) of their early ratios; the sums
        # have no growth test, and Phi_0 = 1
        p = ParamSet4(0.2, 0.1, 0.8, 0.9)
        got = phi_qintegral_repr(0, -1.0, 0.6, p, 0.95)
        assert abs(got - phi_eval(0, -1.0, 0.6, p, 0.95)) <= 1e-14

    def test_coincident_endpoints_rejected(self):
        # gamma x = delta y zeroes a prefactor denominator symbol
        p = ParamSet4(0.2, 0.1, 0.8, 0.8)
        with pytest.raises(NearSingular):
            phi_qintegral_repr(1, 0.9, 0.9, p, 0.5)

    def test_degenerate_parameters_flag_near_singular(self):
        # alpha = gamma, beta = delta puts (1;q)_oo in the prefactor
        # denominator and poles at the lattice endpoints; rejected rather
        # than resolved as a 0/0 limit
        p = ParamSet4(0.8, 0.9, 0.8, 0.9)
        with pytest.raises(NearSingular):
            phi_qintegral_repr(0, 1.0, 0.6, p, 0.5)
