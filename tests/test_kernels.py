"""The numpy kernels must agree to rounding with direct references (loops
over every factor of the infinite products, in double precision or at 20
digits) on every workload shape the package uses, and the circle checkers
built on them must keep the values they gave before the product kernel was
vectorized.  Their angle tables must give the values of the formulas they
memoise bit for bit, and hold at most ``TABLE_BYTES``."""

import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from oracles import mp_qpoch
from qortho import ParamSet4, big_c_coeffs, kernels, quad
from qortho.qcore import _head_rows, closing_factors, quotient_depth
from qortho.verify import REGISTRY, IdentityId, draw_params, run_sweep


def loop_qpoch(a, q):
    """(a;q)_oo in double precision, every factor with |a q^k| >= 1e-18."""
    acc, w = 1.0 + 0.0j, complex(a)
    while abs(w) >= 1e-18:
        acc *= 1.0 - w
        w *= q
    return acc


def mp20_qpoch(a, q):
    """(a;q)_oo at 20 digits."""
    with mpmath.workdps(20):
        return complex(mp_qpoch(mpmath.mpc(a), mpmath.mpc(q)))


def reference_poch_product(coefs, exps, q, thetas, qpoch=loop_qpoch):
    """prod_c (coef_c e^{i exps_c theta}; q)_oo by ``qpoch`` per symbol and
    node."""
    out = np.empty(len(thetas), dtype=np.complex128)
    for j, theta in enumerate(thetas):
        acc = 1.0 + 0.0j
        for c, e in zip(coefs, exps):
            acc *= qpoch(complex(c) * complex(np.exp(1j * int(e) * theta)), complex(q))
        out[j] = acc
    return out


def random_coefs(rng, size, largest=None):
    """Coefficients of moduli below 0.95; with ``largest``, scaled so that the
    largest modulus is ``largest``."""
    coefs = rng.uniform(-0.9, 0.9, size=size) + 1j * rng.uniform(-0.3, 0.3, size=size)
    return coefs if largest is None else coefs * (largest / np.max(np.abs(coefs)))


def nodes(count):
    return 2 * np.pi * np.arange(count) / count


@pytest.fixture
def workload(rng):
    exps = np.array([1, -1, 2, -2, 0], dtype=np.int64)
    return random_coefs(rng, 5), exps, 0.55 + 0.0j, nodes(64)


def assert_matches_reference(coefs, exps, q, thetas, qpoch=loop_qpoch):
    got = kernels.poch_product_many(coefs, exps, q, quotient_depth(coefs, q), thetas,
                                    len(coefs))
    ref = reference_poch_product(coefs, exps, q, thetas, qpoch)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13
    return got, ref


def test_numpy_poch_matches_reference(workload):
    got, ref = assert_matches_reference(*workload, qpoch=mp20_qpoch)
    assert np.max(np.abs(got - ref)) < 1e-12


# name: (exps, q, largest |coef|, node count, head depth); the shallow
# shapes, where the closing pair carries the whole tail, are checked against
# 20-digit products, the deep ones against double-precision loops
EDGE_SHAPES = {
    "depth_zero": ([1, -1, 0], 0.5, 1e-5, 16, 0),
    "depth_one": ([1, -1, 2, -2, 0], 0.55, 1.5e-5, 64, 1),
    "depth_ninety": ([2, -2], 0.868, 0.9, 256, 90),
    "thm_1_2_six_symbols": ([1, -1, 1, -1, 2, -2], 0.6, 0.95, 512, 23),
    "complex_q": ([1, -1, 2, -2, 0], 0.4 + 0.35j, 0.95, 128, 19),
    "depth_beyond_one_chunk": ([1, -1, 2], 0.95, 0.95, 64, 267),  # > kernels.DEPTH_CHUNK
}


def edge_shape(shape):
    exps, q, largest, count, head = EDGE_SHAPES[shape]
    return exps, q, largest, nodes(count), head, mp20_qpoch if head <= 1 else loop_qpoch


@pytest.mark.parametrize("shape", list(EDGE_SHAPES))
def test_numpy_poch_matches_reference_on_edge_shapes(shape, rng):
    exps, q, largest, thetas, head, qpoch = edge_shape(shape)
    coefs = random_coefs(rng, len(exps), largest)
    assert quotient_depth(coefs, q) == head
    assert_matches_reference(coefs, np.array(exps, dtype=np.int64), q, thetas, qpoch)


@pytest.mark.parametrize("shape", list(EDGE_SHAPES))
def test_split_quotient_matches_ratio_of_reference_products(shape, rng):
    # numerator and denominator symbols share the shape's exponents, as the
    # weight's do; the denominators are kept off zero on the circle
    exps, q, largest, thetas, head, qpoch = edge_shape(shape)
    num = random_coefs(rng, len(exps), largest)
    den = random_coefs(rng, len(exps), largest)
    both = np.concatenate((num, den))
    assert quotient_depth(both, q) == head
    got = kernels.poch_product_many(both, np.array(exps * 2), q, head, thetas, len(exps))
    want = (reference_poch_product(num, exps, q, thetas, qpoch)
            / reference_poch_product(den, exps, q, thetas, qpoch))
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


def test_working_memory_stays_within_two_depth_chunks(rng):
    # six symbols at kmax > DEPTH_CHUNK: the block over depths and symbols
    # holds at most DEPTH_CHUNK x N values, not one such block per symbol,
    # for a product and for a quotient alike
    exps = np.array([1, -1, 1, -1, 2, -2], dtype=np.int64)
    thetas = nodes(4096)
    coefs = random_coefs(rng, len(exps))
    for split in (len(exps), 3):
        tracemalloc.start()
        try:
            kernels.poch_product_many(coefs, exps, 0.95, 700, thetas, split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * kernels.DEPTH_CHUNK * thetas.shape[0] * 16


def test_numpy_laurent_matches_direct(rng):
    coefs = rng.uniform(-1, 1, size=9) + 1j * rng.uniform(-1, 1, size=9)
    thetas = rng.uniform(0, 2 * np.pi, size=33)
    got = kernels.laurent_eval(coefs, 8, thetas)
    direct = np.array(
        [sum(c * np.exp(1j * (2 * k - 8) * t) for k, c in enumerate(coefs)) for t in thetas]
    )
    assert np.max(np.abs(got - direct)) < 1e-12


def direct_laurent(coefs, n, thetas):
    return sum(c * np.exp(1j * (2 * k - n) * thetas) for k, c in enumerate(coefs))


@pytest.mark.parametrize("degree", [0, 1, 7, 30, 60])
@pytest.mark.parametrize("count", [16, 128, 8192])
def test_laurent_powers_from_two_exponentials_match_the_direct_sum(rng, degree, count):
    # the powers e^{i(2k-n) theta} come from one running product over k,
    # whose rounding grows with k; degree 60 is C_30 C_30
    coefs = random_coefs(rng, degree + 1)
    thetas = nodes(count)
    got = kernels.laurent_eval(coefs, degree, thetas)
    assert np.max(np.abs(got - direct_laurent(coefs, degree, thetas))) < 1e-13 * np.sum(
        np.abs(coefs))


@pytest.mark.parametrize("m, n", [(0, 0), (2, 3), (6, 6), (30, 29)])
def test_convolved_laurent_coefficients_give_the_product(m, n):
    # the circle checks multiply C_m and C_n into one Laurent polynomial
    p = ParamSet4(0.2, 0.1, 0.8, 0.9)
    a, b = big_c_coeffs(m, p, 0.5), big_c_coeffs(n, p, 0.5)
    thetas = nodes(256)
    product = kernels.laurent_eval(a, m, thetas) * kernels.laurent_eval(b, n, thetas)
    got = kernels.laurent_eval(np.convolve(a, b), m + n, thetas)
    scale = np.sum(np.abs(a)) * np.sum(np.abs(b))
    assert np.max(np.abs(got - product)) < 1e-13 * scale


# Report lhs of the first three draws at seed 0 of each circle identity, as
# the sequential product loop gave them.  The off-diagonal ones are rounding
# noise around zero; every one of these reports judges its residual against
# a scale of at least 2, so all are held to 1e-13 times max(|lhs|, 1).
PINNED_LHS = {
    "THM_1_1": [
        3.7521835326233486e-15 + 4.35983562251079e-17j,
        -2.2398655510649183e-15 - 8.71967124502158e-17j,
        48.610907845752024 - 3.1608808263203227e-16j,
    ],
    "THM_1_2": [
        23.915518910353086 + 7.847704120519421e-16j,
        22.214082409723456 - 1.3951473992034527e-15j,
        23.743147705773918 + 0j,
    ],
    "THM_1_3": [
        0.9053062058504763 + 1.883448988924661e-14j,
        1.063784433605337 + 1.743934249004316e-16j,
        4.185442197610358e-15 - 9.766031794424169e-15j,
    ],
    "ULTRA_ORTHO": [
        9.379096382926336e-14 - 5.869094541045152e-17j,
        2.2664332993895935e-15 + 1.0799833275767834e-18j,
        -8.71967124502158e-17 + 1.59097360566612e-17j,
    ],
}


@pytest.mark.parametrize("identity", list(PINNED_LHS))
def test_circle_lhs_of_first_draws_are_pinned(identity):
    record = REGISTRY[IdentityId(identity)]
    rng = np.random.default_rng(0)
    for want in PINNED_LHS[identity]:
        report = record.checker(**draw_params(record.id, rng, 6))
        assert report.passed
        assert abs(report.lhs - want) <= 1e-13 * max(abs(want), 1.0)


def uncached_rows(q, kmax):
    """The q-power rows 1, q, ..., q^(kmax-1), r+ q^kmax, r- q^kmax as a
    numpy cumulative product, the reference for ``_head_rows``."""
    qpow = np.cumprod(np.r_[1.0, np.full(kmax + 1, complex(q))])
    plus, minus = closing_factors(q)
    qpow[kmax + 1] = qpow[kmax] * minus
    qpow[kmax] *= plus
    return qpow


def uncached_poch(coefs, exps, q, kmax, thetas, split):
    """``poch_product_many`` without tables: the phases from ``exp`` on
    every call, one running product over depth chunks."""
    w = np.exp(1j * np.multiply.outer(np.asarray(exps, dtype=np.float64), thetas))
    w *= np.asarray(coefs, dtype=np.complex128)[:, None]
    qpow = uncached_rows(q, kmax)
    chunk = max(1, kernels.DEPTH_CHUNK // len(coefs))
    per_symbol = np.ones(w.shape, dtype=np.complex128)
    for start in range(0, kmax + 2, chunk):
        per_symbol *= (1.0 - np.multiply.outer(qpow[start : start + chunk], w)).prod(axis=0)
    return per_symbol[:split].prod(axis=0) / per_symbol[split:].prod(axis=0)


def uncached_laurent(coefs, n, thetas):
    """``laurent_eval`` without tables: the power matrix built on every
    call."""
    powers = np.empty((len(thetas), len(coefs)), dtype=np.complex128)
    powers[:, 0] = np.exp(-1j * n * thetas)
    powers[:, 1:] = np.exp(2j * thetas)[:, None]
    np.cumprod(powers, axis=1, out=powers)
    return powers @ np.asarray(coefs, dtype=np.complex128)


# the quad grids as the circle checks see them, and arrays no grid is
ANGLE_ARRAYS = {
    "grid_128": lambda: quad._grid(128, False),
    "grid_128_first_half": lambda: quad._grid(128, False)[:64],
    "midpoints_256": lambda: quad._grid(256, True),
    "single_angle": lambda: np.array([0.7]),
    "non_contiguous": lambda: nodes(96)[1::3],
    "signed_zeros": lambda: np.array([-0.0, 0.0, 1.5, -0.0]),
}


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("angles", list(ANGLE_ARRAYS))
@pytest.mark.parametrize("kmax, split", [(0, 4), (12, 2), (300, 3)])
def test_warm_product_tables_give_the_uncached_values_bit_for_bit(angles, kmax, split, rng,
                                                                  cleared_tables):
    # kmax 300 takes more than one depth chunk
    thetas = ANGLE_ARRAYS[angles]()
    coefs = random_coefs(rng, 4)
    exps = np.array([2.0, -2.0, 1.0, -1.0])
    want = uncached_poch(coefs, exps, 0.6 + 0.1j, kmax, thetas, split)
    for _ in range(2):  # cold, then warm
        got = kernels.poch_product_many(coefs, exps, 0.6 + 0.1j, kmax, thetas, split)
        assert same_bits(got, want)


@pytest.mark.parametrize("angles", list(ANGLE_ARRAYS))
@pytest.mark.parametrize("degree", [0, 12])
def test_warm_power_tables_give_the_uncached_values_bit_for_bit(angles, degree, rng,
                                                                cleared_tables):
    thetas = ANGLE_ARRAYS[angles]()
    coefs = random_coefs(rng, degree + 1)
    for _ in range(2):
        assert same_bits(kernels.laurent_eval(coefs, degree, thetas),
                         uncached_laurent(coefs, degree, thetas))


@pytest.mark.parametrize("q", [0.5, 0.5 + 0j, -0.0, 0.6 + 0.1j, -0.7, 0.95])
@pytest.mark.parametrize("kmax", [0, 12, 300])
def test_head_rows_are_the_numpy_rows_bit_for_bit(q, kmax, rng):
    # q = -0.0: the Python running product keeps numpy's signed zeros
    assert same_bits(np.array(_head_rows(complex(q), kmax)), uncached_rows(q, kmax))
    coefs = random_coefs(rng, 4)
    exps = np.array([2.0, -2.0, 1.0, -1.0])
    assert same_bits(kernels.poch_product_many(coefs, exps, q, kmax, nodes(64), 2),
                     uncached_poch(coefs, exps, q, kmax, nodes(64), 2))


def test_a_returned_table_is_read_only():
    table = kernels.angle_table(("test", "read-only"), lambda: np.zeros(3))
    with pytest.raises(ValueError):
        table[0] = 1.0
    assert kernels.angle_table(("test", "read-only"), lambda: np.ones(3)) is table
    with pytest.raises(ValueError):
        quad._grid(64, False)[0] = 1.0


def test_the_tables_hold_at_most_table_bytes(cleared_tables):
    # 24 distinct grids of 8192 angles, each with a 1.7 MB power matrix, and
    # a degree-60 matrix (8 MB) that alone exceeds the bound and is not kept
    coefs = np.ones(13)
    for shift in range(24):
        thetas = nodes(8192) + shift * 1e-3
        kernels.laurent_eval(coefs, 12, thetas)
        held = [table for table, _ in kernels._tables.values()]
        assert sum(map(sys.getsizeof, held)) <= kernels._held <= kernels.TABLE_BYTES
    assert 0 < len(held) < 24
    kept = len(kernels._tables)
    big = random_coefs(np.random.default_rng(0), 61)
    got = kernels.laurent_eval(big, 60, thetas)
    assert len(kernels._tables) == kept
    assert same_bits(got, uncached_laurent(big, 60, thetas))


@pytest.mark.parametrize("identity", list(PINNED_LHS))
def test_sweep_records_are_the_same_with_cleared_and_with_warm_tables(identity, cleared_tables):
    def records():
        return [r.to_record() for r in run_sweep(identity, 1, 20)]

    cold = records()
    assert records() == cold
