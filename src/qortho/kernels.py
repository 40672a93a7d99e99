"""Array kernels for the quadrature hot loops: with :mod:`~qortho.quad`, the
package's only numpy code; the function family :mod:`~qortho.qfun` has none.

Two operations dominate every integral check: evaluating a Laurent-type sum
sum_k c_k e^{i(2k-n)theta} over all quadrature nodes, and evaluating infinite
products prod_c (w_c; q)_oo with node-dependent arguments
w_c = coef_c * e^{i s_c theta}, or a quotient of two such products.  A circle
integrand is one Laurent sum (the C_n factors multiplied into one
polynomial) times quotients of such products at a shared head depth K,
each one :func:`poch_product_many` call, written once in its layout: the
numerator coefficients, then as many denominator ones, ``split`` between.  The
weight's symbols have s_c = +-2, so a circle check evaluates their quotient
at only the first half of each quadrature grid (the second half repeats it);
the Laurent sum and any s_c = +-1 symbols get the whole grid.  Both kernels
are plain numpy; ``BACKEND`` names the implementation for reports and
benchmarks.  PROP_2_2 sums all C_n(1) from one convolution, :func:`big_c_at_one`.

The Laurent powers e^{i(2k-n)theta} come from two exponentials per grid,
e^{-in theta} and e^{2i theta}, and one running product over k: an N x (n+1)
matrix of multiplications rather than of exponentials.  Its rounding grows
with the power k and with n theta, and stays within 1e-13 of the sum of
|c_k| at degree 60 on grids of up to 8192 angles.

What depends only on the angles is built once per process by
:func:`angle_table`, the package's only cache: the phase rows
e^{i s_c theta} of a product call, the power matrix of a Laurent sum, and
:mod:`~qortho.quad`'s grids and moment tables.  The key of a kernel table
holds its angles' bytes (a quad table's, its node count), and it is built
by the operations each call used to run, so every value is the same bit
for bit.

Each infinite product is its K head factors 1 - w_c q^k, k < K, times the
two factors 1 - r+- w_c q^K that :func:`~qortho.qcore.closing_factors` puts
in place of the rest, as :func:`~qortho.qcore.qpoch_infinite` forms it.
So the q-power rows of a call are 1, q, ..., q^(K-1), r+ q^K, r- q^K:
K + 2 rows of one kind, and the closing pair costs two rows and no array
operation of its own.  :func:`~qortho.qcore._head_rows` builds them on
every call as one running product (about 4 us at K = 20, 0.2 ms at
K = 1540, on a 2-vCPU x86-64 host): each check draws its own q, so a kept
row would serve only the calls of one check.
The product is formed for all S symbols at once (numerators and
denominators together when the call forms a quotient), as broadcast blocks
1 - p_k w_c(theta_j) over the rows p_k, symbols c and nodes j, reduced over
k into one running product per symbol; the symbols are multiplied together,
and a quotient divided, only at the end.  The grids are small (typically 4
symbols, head depth 5-40, 32-128 nodes), so the cost of a call is mostly its
fixed numpy overhead and its factor count, and one block per depth chunk
keeps the number of numpy calls independent of S; a head that fits in one
chunk is one block.  Deeper heads are common: of 4000 seed-21 perfbench
``circle_quadrature`` operations, 534 of 1176 THM_1_2 extra-symbol calls
(8 symbols, 16 rows per chunk; 45%) and 250 of 4327 weight calls (4
symbols, 32 rows; 6%) took more than one chunk.  A chunk boundary changes
the order of the multiplications and so the product's rounding:
DEPTH_CHUNK is not a free tuning value.  The K + 2 rows are
taken max(1, DEPTH_CHUNK // S) at a time, so one complex block of at most
max(DEPTH_CHUNK, S) x N values (16 * 128 * N bytes, about 0.26 MB at
N = 128, for S <= DEPTH_CHUNK) is the working memory of a call, whatever the
number of symbols and however deep the head gets near |q| = 1.  The tables
add at most TABLE_BYTES (4 MiB) per process, whatever the grids; the circle
checks at degrees up to 6 hold about 0.5 MB.
"""

from __future__ import annotations

import sys

import numpy as np

from .qcore import ParamSet4, _head_rows, _poch_row, as_base

BACKEND = "numpy"

# Depth x symbol rows per broadcast block; bounds the working memory at
# DEPTH_CHUNK x N complex values whatever the depth and symbol count are.
DEPTH_CHUNK = 128

# Bytes that all angle tables (phase rows, Laurent power matrices, quadrature
# grids and moment tables) hold together, each counted with its key and headers.
TABLE_BYTES = 1 << 22

_tables: dict = {}
_held = 0


def angle_table(key, build):
    """The read-only array ``build()`` for the hashable ``key``, built on the
    first call and kept while all tables fit in :data:`TABLE_BYTES` (a new
    one evicts the oldest); one that alone exceeds the bound is built
    afresh on every call and not kept."""
    global _held
    entry = _tables.get(key)
    if entry is not None:
        return entry[0]
    table = build()
    size = sys.getsizeof(table) + sum(map(sys.getsizeof, key))
    if size <= TABLE_BYTES:
        table.flags.writeable = False
        while _held + size > TABLE_BYTES:
            _held -= _tables.pop(next(iter(_tables)))[1]
        _tables[key] = table, size
        _held += size
    return table


def poch_product_many(coefs, exps, q, kmax, thetas, split):
    """prod_{c < split} (w_c; q)_oo / prod_{c >= split} (w_c; q)_oo at each
    theta, w_c = coef_c e^{i exps_c theta}; each infinite product is ``kmax``
    head factors closed by the :func:`~qortho.qcore.closing_factors` pair,
    one factor per row of :func:`~qortho.qcore._head_rows` (``kmax`` from
    :func:`~qortho.qcore.tail_start` of the largest |coef_c|)."""
    thetas = np.asarray(thetas, dtype=np.float64)
    coefs = np.asarray(coefs, dtype=np.complex128)
    exps = np.asarray(exps, dtype=np.float64)
    phases = angle_table(("phase", thetas.shape, thetas.tobytes(), exps.tobytes()),
                         lambda: np.exp(1j * np.multiply.outer(exps, thetas)))
    w = phases * coefs[:, None]
    depth = kmax + 2
    qpow = np.array(_head_rows(complex(q), kmax))
    chunk = max(1, DEPTH_CHUNK // max(coefs.shape[0], 1))
    block = np.empty((min(depth, chunk), *w.shape), dtype=np.complex128)
    for start in range(0, depth, chunk):
        rows = block[: min(chunk, depth - start)]
        np.multiply.outer(qpow[start : start + chunk], w, out=rows)
        np.subtract(1.0, rows, out=rows)
        if start == 0:
            per_symbol = rows.prod(axis=0)
        else:
            per_symbol *= rows.prod(axis=0)
    return per_symbol[:split].prod(axis=0) / per_symbol[split:].prod(axis=0)


def _laurent_powers(thetas, n, count):
    """The matrix of e^{i(2k-n)theta_j}, j over the angles and k < count."""
    powers = np.empty((thetas.shape[0], count), dtype=np.complex128)
    powers[:, 0] = np.exp(-1j * n * thetas)
    powers[:, 1:] = np.exp(2j * thetas)[:, None]
    np.cumprod(powers, axis=1, out=powers)
    return powers


def laurent_eval(coefs, n, thetas):
    """sum_k coefs[k] e^{i(2k-n)theta} at each theta."""
    thetas = np.asarray(thetas, dtype=np.float64)
    coefs = np.asarray(coefs, dtype=np.complex128)
    powers = angle_table(("laurent", thetas.shape, thetas.tobytes(), n, coefs.shape[0]),
                         lambda: _laurent_powers(thetas, n, coefs.shape[0]))
    return powers @ coefs


def big_c_at_one(count: int, p: ParamSet4, q) -> np.ndarray:
    """[C_0(1), ..., C_{count-1}(1)] as one convolution: C_n(1) =
    sum_k A_k B_{n-k} with A_k = (ra;q)_k gamma^k / (q;q)_k and
    B_j = (rb;q)_j delta^j / (q;q)_j."""
    q = as_base(q)
    k = np.arange(count + 1)
    pq = np.array(_poch_row(q, q, count))
    row_a = np.array(_poch_row(p.ratio_a, q, count)) / pq * p.gamma ** k
    row_b = np.array(_poch_row(p.ratio_b, q, count)) / pq * p.delta ** k
    return np.convolve(row_a, row_b)[:count]
