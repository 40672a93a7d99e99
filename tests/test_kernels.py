"""The numpy kernels must agree to rounding with direct loop references on
every workload shape the package uses, and the circle checkers built on them
must keep the values they gave before the product kernel was vectorized."""

import numpy as np
import pytest

from qortho import SweepSpec, kernels
from qortho.verify import REGISTRY, IdentityId, draw_params


def reference_poch_product(coefs, exps, q, kmax, thetas):
    out = np.empty(len(thetas), dtype=np.complex128)
    for j, theta in enumerate(thetas):
        acc = 1.0 + 0.0j
        for c, e in zip(coefs, exps):
            w = complex(c) * complex(np.exp(1j * int(e) * theta))
            for k in range(kmax):
                acc *= 1.0 - w * complex(q) ** k
        out[j] = acc
    return out


def random_coefs(rng, size):
    return rng.uniform(-0.9, 0.9, size=size) + 1j * rng.uniform(-0.3, 0.3, size=size)


def nodes(count):
    return 2 * np.pi * np.arange(count) / count


@pytest.fixture
def workload(rng):
    exps = np.array([1, -1, 2, -2, 0], dtype=np.int64)
    return random_coefs(rng, 5), exps, 0.55 + 0.0j, 40, nodes(64)


def assert_matches_reference(coefs, exps, q, kmax, thetas):
    got = kernels.poch_product_many(coefs, exps, q, kmax, thetas)
    ref = reference_poch_product(coefs, exps, q, kmax, thetas)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-13
    return got, ref


def test_numpy_poch_matches_reference(workload):
    got, ref = assert_matches_reference(*workload)
    assert np.max(np.abs(got - ref)) < 1e-12


# name: (exps, q, kmax, node count)
EDGE_SHAPES = {
    "depth_zero": ([1, -1, 0], 0.5, 0, 16),
    "depth_one": ([1, -1, 2, -2, 0], 0.55, 1, 64),
    "depth_ninety": ([2, -2], 0.7, 90, 256),
    "thm_1_2_six_symbols": ([1, -1, 1, -1, 2, -2], 0.6, 90, 512),
    "complex_q": ([1, -1, 2, -2, 0], 0.4 + 0.35j, 50, 128),
    "depth_beyond_one_chunk": ([1, -1, 2], 0.95, 700, 64),  # kmax > kernels.DEPTH_CHUNK
}


@pytest.mark.parametrize("shape", list(EDGE_SHAPES))
def test_numpy_poch_matches_reference_on_edge_shapes(shape, rng):
    exps, q, kmax, count = EDGE_SHAPES[shape]
    coefs = random_coefs(rng, len(exps))
    assert_matches_reference(coefs, np.array(exps, dtype=np.int64), q, kmax, nodes(count))


def test_numpy_laurent_matches_direct(rng):
    coefs = rng.uniform(-1, 1, size=9) + 1j * rng.uniform(-1, 1, size=9)
    thetas = rng.uniform(0, 2 * np.pi, size=33)
    got = kernels.laurent_eval(coefs, 8, thetas)
    direct = np.array(
        [sum(c * np.exp(1j * (2 * k - 8) * t) for k, c in enumerate(coefs)) for t in thetas]
    )
    assert np.max(np.abs(got - direct)) < 1e-12


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
    spec = SweepSpec(seed=0, draws=3)
    for want in PINNED_LHS[identity]:
        report = record.checker(**draw_params(record.id, rng, spec))
        assert report.passed
        assert abs(report.lhs - want) <= 1e-13 * max(abs(want), 1.0)
