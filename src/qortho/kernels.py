"""Array kernels for the quadrature hot loops.

Two operations dominate every integral check: evaluating a Laurent-type sum
sum_k c_k e^{i(2k-n)theta} over all quadrature nodes, and evaluating truncated
products prod_c prod_{k<K} (1 - w_c q^k) with node-dependent arguments
w_c = coef_c * e^{i s_c theta}.  Both are plain numpy; ``BACKEND`` names the
implementation for reports and benchmarks.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def poch_product_many(coefs, exps, q, kmax, thetas):
    """prod_c (coef_c e^{i exps_c theta}; q)_kmax at each theta."""
    thetas = np.asarray(thetas, dtype=np.float64)
    out = np.ones(thetas.shape[0], dtype=np.complex128)
    z = np.exp(1j * thetas)
    q = complex(q)
    for c in range(len(coefs)):
        w = complex(coefs[c]) * z ** int(exps[c])
        prod = np.ones_like(w)
        for _ in range(kmax):
            prod *= 1.0 - w
            w = w * q
        out *= prod
    return out


def laurent_eval(coefs, n, thetas):
    """sum_k coefs[k] e^{i(2k-n)theta} at each theta."""
    thetas = np.asarray(thetas, dtype=np.float64)
    coefs = np.asarray(coefs, dtype=np.complex128)
    harmonics = 2 * np.arange(coefs.shape[0]) - n
    return np.exp(1j * np.outer(thetas, harmonics)) @ coefs
