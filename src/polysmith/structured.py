"""Scalar-matrix embeddings of polynomial arithmetic.

Polynomial products become Toeplitz matrix-vector products, matrix polynomial
products become block Toeplitz systems, and GCD questions become rank
questions about generalized Sylvester matrices.  Scalar matrices throughout
are plain 2-D numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeBoundViolation
from .matpoly import NEG_INF, MatPoly, Poly


def conv_matrix(a: Poly, d2: int) -> np.ndarray:
    """Toeplitz matrix of multiplication by a, acting on degree <= d2 vectors.

    Shape is (d1 + d2 + 1) x (d2 + 1) with d1 the declared degree of a;
    column j holds the coefficients of a shifted down by j, so
    vec(a*b) = conv_matrix(a, deg b) @ vec(b).
    """
    if d2 < 0:
        raise DegreeBoundViolation("d2 must be nonnegative")
    c = a.coeffs
    d1 = c.size - 1
    out = np.zeros((d1 + d2 + 1, d2 + 1))
    for j in range(d2 + 1):
        out[j : j + d1 + 1, j] = c
    return out


def block_conv_matrix(a: MatPoly, d2: int) -> np.ndarray:
    """Block Toeplitz matrix with vec(A @ b) = block_conv_matrix(A, d2) @ vec(b).

    Block (i, j) is conv_matrix of entry (i, j) at the declared degree bound
    of A, so the shape is rows*(d1+d2+1) x cols*(d2+1).  Zero entries are
    skipped, and all bands are written in one scatter.
    """
    if d2 < 0:
        raise DegreeBoundViolation("d2 must be nonnegative")
    d1 = a.degree_bound
    br, bc = d1 + d2 + 1, d2 + 1
    out = np.zeros((a.rows * br, a.cols * bc))
    ii, jj = np.nonzero(np.any(a.coeff != 0.0, axis=2))
    if ii.size == 0:
        return out
    shifts = np.arange(bc)
    taps = np.arange(d1 + 1)
    row_template = (shifts[:, None] + taps[None, :]).ravel()
    col_template = np.repeat(shifts, d1 + 1)
    values = a.coeff[ii, jj][:, np.tile(taps, bc)]
    out[ii[:, None] * br + row_template, jj[:, None] * bc + col_template] = values
    return out


def generalized_sylvester(f, dprime) -> np.ndarray:
    """Stacked transposed convolution blocks of several polynomials.

    The polynomials are sorted (stably) by non-increasing declared degree
    dprime.  With d the largest and l the second-largest declared degree, the
    leading polynomial contributes l shift rows and every other polynomial d
    shift rows, each within a window of l + d + 1 coefficients, giving shape
    (l + (k-1)d) x (l + d).  Full column rank is equivalent to the entries
    having a trivial GCD at the declared degrees.
    """
    f = list(f)
    dprime = [int(x) for x in dprime]
    if len(f) < 2 or len(f) != len(dprime):
        raise DegreeBoundViolation("need at least two polynomials with matching degree bounds")
    for p, dp in zip(f, dprime):
        deg = p.degree()
        if deg != NEG_INF and dp < deg:
            raise DegreeBoundViolation(f"declared degree {dp} < actual degree {deg}")
        if dp < 0:
            raise DegreeBoundViolation("declared degrees must be nonnegative")
    order = sorted(range(len(f)), key=lambda i: -dprime[i])
    f = [f[i] for i in order]
    dprime = [dprime[i] for i in order]

    d = dprime[0]
    ell = max(dprime[1:])
    width = ell + d
    blocks = []
    lead = f[0].padded(d).coeffs
    block0 = np.zeros((ell, width))
    for j in range(ell):
        block0[j, j : j + d + 1] = lead
    blocks.append(block0)
    for p in f[1:]:
        c = p.padded(ell).coeffs
        block = np.zeros((d, width))
        for j in range(d):
            block[j, j : j + ell + 1] = c
        blocks.append(block)
    return np.vstack(blocks) if width > 0 else np.zeros((ell + (len(f) - 1) * d, 0))


def numeric_rank(m) -> int:
    """Count of singular values above sigma_1 * max(m, n) * 1e-12.

    Accepts real or complex matrices.
    """
    m = np.asarray(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > s[0] * max(m.shape) * 1e-12))
