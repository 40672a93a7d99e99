"""Array kernels for the quadrature hot loops.

Two operations dominate every integral check: evaluating a Laurent-type sum
sum_k c_k e^{i(2k-n)theta} over all quadrature nodes, and evaluating truncated
products prod_c prod_{k<K} (1 - w_c q^k) with node-dependent arguments
w_c = coef_c * e^{i s_c theta}.  A circle integrand is a product of the first
times quotients of two of the second at a shared depth K
(``qfun.product_quotient``).  The weight's symbols have s_c = +-2, so a
circle check evaluates their quotient at only the first half of each
quadrature grid (the second half repeats it); the Laurent sums and any
s_c = +-1 symbols get the whole grid.  Both kernels are plain numpy;
``BACKEND`` names the implementation for reports and benchmarks.

The truncated product is formed for all S symbols at once, as broadcast
blocks 1 - q^k w_c(theta_j) over depths k, symbols c and nodes j, reduced
over k and then over c.  The grids are small (typically 2 symbols, depth
10-80, 32-128 nodes), so the cost of a call is mostly its fixed numpy
overhead, and one block per depth chunk keeps the number of numpy calls
independent of S.  Depths are taken max(1, DEPTH_CHUNK // S) rows at a time,
so one complex block of at most max(DEPTH_CHUNK, S) x N values (16 * 128 * N
bytes, about 0.26 MB at N = 128, for S <= DEPTH_CHUNK) is the working memory
of a call, whatever the number of symbols and however deep the truncation
gets near |q| = 1.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"

# Depth x symbol rows per broadcast block; bounds the working memory at
# DEPTH_CHUNK x N complex values whatever kmax and the symbol count are.
DEPTH_CHUNK = 128


def poch_product_many(coefs, exps, q, kmax, thetas):
    """prod_c (coef_c e^{i exps_c theta}; q)_kmax at each theta."""
    thetas = np.asarray(thetas, dtype=np.float64)
    coefs = np.asarray(coefs, dtype=np.complex128)
    out = np.ones(thetas.shape[0], dtype=np.complex128)
    w = np.exp(1j * np.multiply.outer(np.asarray(exps, dtype=np.float64), thetas))
    w *= coefs[:, None]
    qpow = np.full(kmax, complex(q))
    qpow[:1] = 1.0
    np.cumprod(qpow, out=qpow)
    chunk = max(1, DEPTH_CHUNK // max(coefs.shape[0], 1))
    block = np.empty((min(kmax, chunk), *w.shape), dtype=np.complex128)
    for start in range(0, kmax, chunk):
        rows = block[: min(chunk, kmax - start)]
        np.multiply.outer(qpow[start : start + chunk], w, out=rows)
        np.subtract(1.0, rows, out=rows)
        out *= rows.prod(axis=0).prod(axis=0)
    return out


def laurent_eval(coefs, n, thetas):
    """sum_k coefs[k] e^{i(2k-n)theta} at each theta."""
    thetas = np.asarray(thetas, dtype=np.float64)
    coefs = np.asarray(coefs, dtype=np.complex128)
    harmonics = 2 * np.arange(coefs.shape[0]) - n
    return np.exp(1j * np.outer(thetas, harmonics)) @ coefs
