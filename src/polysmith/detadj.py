"""Determinant and adjoint of matrix polynomials and their Jacobians.

Both the determinant and the adjoint are computed by evaluation at the
roots of unity followed by inverse-FFT interpolation.  The point set is
conjugate symmetric, so real inputs give real coefficients up to rounding,
and the Vandermonde system is perfectly conditioned.  On the unit circle
value growth is bounded by the coefficient 1-norm, so interpolated
coefficients keep full relative accuracy regardless of the input scale.

Derivatives come from minors at the same nodes.  By Laplace/Jacobi the
k-th partial derivatives of det M are signed (n-k)-minors, and
adj(M)_ab = d det M / dM_ba, so the adjugate, its Jacobian and its
curvature are the first three derivatives of det.  Nothing divides by
det M, so nodes where A(t) is singular need no special care.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import DimensionMismatch, RankDeficientInput
from .matpoly import MatPoly, Poly
from .structured import block_conv_matrix, conv_index


def _require_square(a: MatPoly):
    if a.rows != a.cols:
        raise DimensionMismatch(f"matrix is {a.rows}x{a.cols}, expected square")


def _interp_nodes(count: int) -> np.ndarray:
    return np.exp(-2j * np.pi * np.arange(count) / count)


def _coeffs_from_values(values: np.ndarray) -> np.ndarray:
    """Real coefficients interpolating values at the node set; first axis is the node."""
    return np.fft.ifft(values, axis=0).real


def _det_batch(values: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices, closed form up to 3x3."""
    n = values.shape[-1]
    if n == 0:
        return np.ones(values.shape[:-2], dtype=values.dtype)
    if n == 1:
        return values[..., 0, 0]
    if n == 2:
        return values[..., 0, 0] * values[..., 1, 1] - values[..., 0, 1] * values[..., 1, 0]
    if n == 3:
        a, b, c = values[..., 0, 0], values[..., 0, 1], values[..., 0, 2]
        d, e, f = values[..., 1, 0], values[..., 1, 1], values[..., 1, 2]
        g, h, i = values[..., 2, 0], values[..., 2, 1], values[..., 2, 2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.linalg.det(values)


# Matrix elements gathered for one batch of minors.  Every solver-sized call
# (n <= 4 at any order, n = 6 with d = 1) is one batch; larger inputs take
# their nodes in chunks, which caps the gather without changing any minor.
_GATHER_BUDGET = 1 << 16


@functools.lru_cache(maxsize=None)
def _minor_tables(n: int, k: int):
    """Index and sign tables for the k-th partial derivatives of an n x n det.

    For each sorted index set S of size k, keep[S] lists the indices left
    once S is deleted, and sign[S, i_1, ..., i_k] is (-1)^(sum S) times the
    sign of the permutation that sorts (i_1, ..., i_k) into S, or 0 when the
    tuple is not an ordering of S.  By the Laplace expansion

        d^k det M / dM_{i_1 j_1} ... dM_{i_k j_k}
            = sum_{S, T} sign[S, i] sign[T, j] det M[keep[S], keep[T]].

    Built on first use, once per (n, k).
    """
    sets = list(itertools.combinations(range(n), k))
    keep = np.array([[i for i in range(n) if i not in s] for s in sets], dtype=np.intp)
    sign = np.zeros((len(sets),) + (n,) * k)
    for idx, s in enumerate(sets):
        for perm in itertools.permutations(range(k)):
            inversions = sum(perm[x] > perm[y] for x in range(k) for y in range(x + 1, k))
            sign[(idx, *(s[q] for q in perm))] = (-1.0) ** (sum(s) + inversions)
    return keep.reshape(len(sets), n - k), sign


class AdjugateNodes:
    """A(t) at the interpolation nodes of its adjugate, with derivatives from minors.

    Adj(A) has degree bound D = (n-1)d, so its values at the D+1 roots of
    unity determine it and every derivative of it in the coefficients of A.
    The minors of each order are computed once and shared.
    """

    def __init__(self, a: MatPoly):
        _require_square(a)
        if a.rows < 2:
            raise DimensionMismatch("adjoint needs a matrix of size at least 2")
        self.n, self.d = a.rows, a.degree_bound
        self.dadj = (self.n - 1) * self.d
        self.nodes = _interp_nodes(self.dadj + 1)
        self.values = a.evaluate(self.nodes)
        self._minors = {}

    def _derivative(self, k: int, weight=None) -> np.ndarray:
        """d^k det / dM_{i_1 j_1} ... dM_{i_k j_k} at every node.

        Axes are (node, i_1..i_k, j_1..j_k).  A weight of shape (node, n, n)
        contracts the first pair as sum_ab weight[a, b] d/dM_ba, which pairs
        the weight with the adjugate entry (a, b); the axes of that pair drop.
        """
        keep, sign = _minor_tables(self.n, k)
        if k not in self._minors:
            rows, cols = keep[:, None, :, None], keep[None, :, None, :]
            step = max(1, _GATHER_BUDGET // max(1, keep.size) ** 2)
            self._minors[k] = np.concatenate([_det_batch(self.values[x : x + step, rows, cols])
                                              for x in range(0, len(self.values), step)])
        minors, n, count = self._minors[k], self.n, len(sign)
        if weight is None:
            flat = sign.reshape(count, -1)
            return (flat.T @ minors @ flat).reshape((-1,) + (n,) * (2 * k))
        rest = n ** (k - 1)
        right = (minors @ sign.reshape(count, -1)).reshape(-1, count, n, rest)  # (x, S, a, j..)
        right = np.swapaxes(weight, 1, 2)[:, None] @ right  # (x, S, b, j..)
        out = sign.reshape(count * n, rest).T @ right.reshape(-1, count * n, rest)
        return out.reshape((-1,) + (n,) * (2 * k - 2))

    def _node_weight(self, lam) -> np.ndarray:
        """nu with lam . vec Adj(A) = sum over nodes x of sum_ab nu[x, a, b] adj(A(z_x))_ab."""
        n = self.n
        nu = np.fft.ifft(np.asarray(lam, dtype=float).reshape(n * n, self.dadj + 1), axis=1)
        return nu.reshape(n, n, -1).transpose(2, 1, 0)

    def adjoint(self) -> MatPoly:
        """Adjugate with declared degree bound (n-1)d."""
        cofactors = _coeffs_from_values(self._derivative(1))
        return MatPoly(cofactors.transpose(2, 1, 0))

    def jacobian(self) -> np.ndarray:
        """d vec Adj(A) / d vec(A); shape n^2((n-1)d+1) x n^2(d+1).

        Coefficient k of A_rs moves adj_ab by t^k times d adj_ab / dM_rs
        taken along A(t), a polynomial of degree at most (n-2)d.
        """
        n, d, deg = self.n, self.d, (self.n - 2) * self.d
        second = _coeffs_from_values(self._derivative(2))[: deg + 1]  # (m, b, r, a, s)
        jac = np.zeros((n * n, self.dadj + 1, n * n, d + 1))
        # Each (adj_ab, A_rs) block is the convolution matrix of that polynomial.
        rows, cols = conv_index(deg + 1, d + 1)
        jac[:, rows, :, cols] = second.transpose(0, 1, 3, 4, 2).reshape(deg + 1, 1, n * n, n * n)
        return jac.reshape(n * n * (self.dadj + 1), n * n * (d + 1))

    def curvature(self, lam) -> np.ndarray:
        """Hessian of lam . vec Adj(A) with respect to vec(A), from (n-3)-minors."""
        size = self.n * self.n * (self.d + 1)
        if self.n < 3:  # det has degree n in M, so a 2x2 adjugate is linear in A
            return np.zeros((size, size))
        second = self._derivative(3, self._node_weight(lam))  # (x, r, u, s, v)
        powers = self.nodes[:, None] ** np.arange(self.d + 1)
        pairs = (powers[:, :, None] * powers[:, None, :]).reshape(len(powers), -1)
        hess = np.tensordot(second, pairs, axes=(0, 0)).reshape((self.n,) * 4 + (self.d + 1,) * 2)
        return hess.transpose(2, 0, 4, 3, 1, 5).real.reshape(size, size)


def require_full_rank(a: MatPoly):
    """Raise RankDeficientInput unless the I kron A convolution system has full rank.

    That system is n copies of the convolution matrix of A at the adjoint
    degree bound, so one copy's singular values decide it.
    """
    _require_square(a)
    block = block_conv_matrix(a, (a.rows - 1) * a.degree_bound)
    s = np.linalg.svd(block, compute_uv=False)
    tol = s[0] * max(block.shape) * a.rows * 1e-12
    if not (s[0] > 0.0 and np.count_nonzero(s > tol) == block.shape[1]):
        raise RankDeficientInput("I kron A convolution system is rank deficient")


def determinant(a: MatPoly) -> Poly:
    """Determinant as a polynomial of degree at most n * degree_bound."""
    _require_square(a)
    count = a.rows * a.degree_bound + 1
    values = _det_batch(a.evaluate(_interp_nodes(count)))
    return Poly(_coeffs_from_values(values))


def adjoint(a: MatPoly) -> MatPoly:
    """Adjugate matrix with declared degree bound (n-1) * degree_bound."""
    return AdjugateNodes(a).adjoint()


def jacobian_det(a: MatPoly) -> np.ndarray:
    """Jacobian of vec(det(A)) with respect to vec(A); shape (nd+1) x n^2(d+1)."""
    _require_square(a)
    adj = MatPoly.identity(1, 0) if a.rows == 1 else adjoint(a)
    # The entries of Adj(A)^T, column-major, as a 1 x n^2 matrix polynomial.
    row = MatPoly(adj.coeff.reshape(1, a.rows * a.cols, adj.degree_bound + 1))
    return block_conv_matrix(row, a.degree_bound)


def jacobian_adj(a: MatPoly) -> np.ndarray:
    """Jacobian of vec(Adj(A)) with respect to vec(A).

    Shape n^2((n-1)d+1) x n^2(d+1).  Requires A to have full rank over the
    rational functions, by the test of require_full_rank.
    """
    require_full_rank(a)
    return AdjugateNodes(a).jacobian()


def jacobian_adj_norm(a: MatPoly) -> float:
    """Frobenius norm of jacobian_adj(a), sqrt(4(d+1)/N sum_x e_{n-2}(sigma(A(z_x))^2)) at its N
    nodes: Parseval on blocks of degree < N, Cauchy-Binet on minors (Horn & Johnson 0.8.1)."""
    require_full_rank(a)
    nodes = AdjugateNodes(a)
    e = np.tile(np.eye(1, nodes.n - 1), (len(nodes.nodes), 1))  # e_0, ..., e_{n-2} per node
    for sq in np.linalg.svd(nodes.values, compute_uv=False).T ** 2:
        e[:, 1:] += sq[:, None] * e[:, :-1]  # e_k += sigma_j^2 e_{k-1}: nothing cancels
    return float(np.sqrt(4 * (nodes.d + 1) / len(e) * e[:, -1].sum()))  # 4 orders per minor
