"""Array kernels for the quadrature hot loops.

Two operations dominate every integral check: evaluating a Laurent-type sum
sum_k c_k e^{i(2k-n)theta} over all quadrature nodes, and evaluating truncated
products prod_c prod_{k<K} (1 - w_c q^k) with node-dependent arguments
w_c = coef_c * e^{i s_c theta}.  Both are plain numpy; ``BACKEND`` names the
implementation for reports and benchmarks.

The truncated product is formed one symbol at a time as broadcast blocks
1 - q^k w_c(theta_j) over depths k and nodes j, reduced over k.  Depths are
taken DEPTH_CHUNK rows at a time, so one complex min(K, DEPTH_CHUNK) x N
block (at most 16 * 128 * N bytes, about 0.7 MB at K = 90, N = 512) is the
working memory of a call, whatever the number of symbols and however deep
the truncation gets near |q| = 1.  Stacking the symbols into one array
would multiply that by their count.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# Depth rows per broadcast block; bounds the working memory at
# DEPTH_CHUNK x N complex values whatever kmax is.
DEPTH_CHUNK = 128


def poch_product_many(coefs, exps, q, kmax, thetas):
    """prod_c (coef_c e^{i exps_c theta}; q)_kmax at each theta."""
    thetas = np.asarray(thetas, dtype=np.float64)
    out = np.ones(thetas.shape[0], dtype=np.complex128)
    z = np.exp(1j * thetas)
    qpow = np.full(kmax, complex(q))
    qpow[:1] = 1.0
    np.cumprod(qpow, out=qpow)
    block = np.empty((min(kmax, DEPTH_CHUNK), thetas.shape[0]), dtype=np.complex128)
    for c in range(len(coefs)):
        w = complex(coefs[c]) * z ** int(exps[c])
        for start in range(0, kmax, DEPTH_CHUNK):
            rows = block[: min(DEPTH_CHUNK, kmax - start)]
            np.multiply.outer(qpow[start : start + DEPTH_CHUNK], w, out=rows)
            np.subtract(1.0, rows, out=rows)
            out *= rows.prod(axis=0)
    return out


def laurent_eval(coefs, n, thetas):
    """sum_k coefs[k] e^{i(2k-n)theta} at each theta."""
    thetas = np.asarray(thetas, dtype=np.float64)
    coefs = np.asarray(coefs, dtype=np.complex128)
    harmonics = 2 * np.arange(coefs.shape[0]) - n
    return np.exp(1j * np.outer(thetas, harmonics)) @ coefs
