"""The numpy kernels must agree to rounding with direct loop references on
every workload shape the package uses."""

import numpy as np
import pytest

from qortho import kernels


def reference_poch_product(coefs, exps, q, kmax, thetas):
    out = np.empty(len(thetas), dtype=np.complex128)
    for j, theta in enumerate(thetas):
        acc = 1.0 + 0.0j
        for c, e in zip(coefs, exps):
            w = c * np.exp(1j * e * theta)
            for k in range(kmax):
                acc *= 1.0 - w * q ** k
        out[j] = acc
    return out


@pytest.fixture
def workload(rng):
    coefs = (rng.uniform(-0.9, 0.9, size=5) + 1j * rng.uniform(-0.3, 0.3, size=5)).astype(
        np.complex128
    )
    exps = np.array([1, -1, 2, -2, 0], dtype=np.int64)
    thetas = 2 * np.pi * np.arange(64) / 64
    return coefs, exps, 0.55 + 0.0j, 40, thetas


def test_numpy_poch_matches_reference(workload):
    coefs, exps, q, kmax, thetas = workload
    got = kernels.poch_product_many(coefs, exps, q, kmax, thetas)
    ref = reference_poch_product(coefs, exps, q, kmax, thetas)
    assert np.max(np.abs(got - ref)) < 1e-12


def test_numpy_laurent_matches_direct(rng):
    coefs = rng.uniform(-1, 1, size=9) + 1j * rng.uniform(-1, 1, size=9)
    thetas = rng.uniform(0, 2 * np.pi, size=33)
    got = kernels.laurent_eval(coefs, 8, thetas)
    direct = np.array(
        [sum(c * np.exp(1j * (2 * k - 8) * t) for k, c in enumerate(coefs)) for t in thetas]
    )
    assert np.max(np.abs(got - direct)) < 1e-12
