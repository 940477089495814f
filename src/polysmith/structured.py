"""Scalar-matrix embeddings of polynomial arithmetic.

Polynomial products become Toeplitz matrix-vector products, matrix polynomial
products become block Toeplitz systems, and GCD questions become rank
questions about generalized Sylvester matrices.  Scalar matrices throughout
are plain 2-D numpy arrays.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegreeBoundViolation
from .matpoly import NEG_INF, MatPoly, Poly


@functools.lru_cache(maxsize=None)
def conv_index(m: int, width: int):
    """Row and column of every coefficient in a convolution matrix.

    Coefficient i of a length-m vector lands at row i + j of column j, for
    each of the width columns; both tables have shape (m, width) and are
    read-only, built once per (m, width).  This is the package's one
    statement of the layout: conv_matrices writes matrices from it, and
    callers that scatter a band into a larger array, or gather one, index
    with it directly.
    """
    shift = np.arange(width)
    rows, cols = np.arange(m)[:, None] + shift, np.broadcast_to(shift, (m, width))
    rows.flags.writeable = False
    return rows, cols


def conv_matrices(c, width: int) -> np.ndarray:
    """Convolution matrices of the vectors on the last axis of c.

    The vector of length m becomes the (m + width - 1) x width Toeplitz
    matrix T[i, j] = c[i - j], so T @ b = np.convolve(c, b) for b of length
    width.  Leading axes are batched and the dtype is kept; every
    convolution, block Toeplitz and Sylvester matrix of the package is
    built here.
    """
    c = np.asarray(c)
    m = c.shape[-1]
    out = np.zeros(c.shape[:-1] + (m + width - 1, width), dtype=c.dtype)
    rows, cols = conv_index(m, width)
    out[..., rows, cols] = c[..., :, None]
    return out


def conv_matrix(a: Poly, d2: int) -> np.ndarray:
    """Toeplitz matrix of multiplication by a, acting on degree <= d2 vectors.

    Shape is (d1 + d2 + 1) x (d2 + 1) with d1 the declared degree of a;
    column j holds the coefficients of a shifted down by j, so
    vec(a*b) = conv_matrix(a, deg b) @ vec(b).
    """
    if d2 < 0:
        raise DegreeBoundViolation("d2 must be nonnegative")
    return conv_matrices(a.coeffs, d2 + 1)


def block_conv_matrix(a: MatPoly, d2: int) -> np.ndarray:
    """Block Toeplitz matrix with vec(A @ b) = block_conv_matrix(A, d2) @ vec(b).

    Block (i, j) is conv_matrix of entry (i, j) at the declared degree bound
    of A, so the shape is rows*(d1+d2+1) x cols*(d2+1).
    """
    if d2 < 0:
        raise DegreeBoundViolation("d2 must be nonnegative")
    blocks = conv_matrices(a.coeff, d2 + 1)  # (rows, cols, d1 + d2 + 1, d2 + 1)
    return blocks.transpose(0, 2, 1, 3).reshape(a.rows * blocks.shape[2], a.cols * (d2 + 1))


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
    d = dprime[order[0]]
    ell = dprime[order[1]]
    lead = conv_matrices(f[order[0]].padded(d).coeffs, ell).T
    rest = conv_matrices(np.array([f[i].padded(ell).coeffs for i in order[1:]]), d)
    return np.vstack([lead, rest.transpose(0, 2, 1).reshape((len(f) - 1) * d, ell + d)])


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
