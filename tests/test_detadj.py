import tracemalloc

import numpy as np
import pytest

from polysmith.detadj import (
    adjoint,
    determinant,
    jacobian_adj,
    jacobian_adj_norm,
    jacobian_det,
)
from polysmith.errors import RankDeficientInput
from polysmith.matpoly import MatPoly, Poly
from polysmith.structured import conv_matrix, numeric_rank

from oracles import exact_determinant, fd_columns, random_full_rank_matpoly, random_integer_matpoly

UNIMODULAR = MatPoly.from_entries([[[0, 1], [-1, 1]], [[1, 1], [0, 1]]])


def test_determinant_identity_and_unimodular():
    det = determinant(MatPoly.identity(3, 1))
    assert det.coeffs[0] == pytest.approx(1.0) and np.allclose(det.coeffs[1:], 0.0, atol=1e-12)
    det = determinant(UNIMODULAR)
    assert det.coeffs[0] == pytest.approx(1.0) and np.allclose(det.coeffs[1:], 0.0, atol=1e-12)


def test_determinant_matches_exact_cofactors():
    rng = np.random.default_rng(0)
    for n, d in ((2, 3), (3, 2), (4, 1)):
        mat, grid = random_integer_matpoly(rng, n, d)
        exact = np.array([float(c) for c in exact_determinant(grid)])
        got = determinant(mat).coeffs
        scale = max(1.0, np.abs(exact).max())
        assert np.allclose(got[: exact.size], exact, atol=1e-10 * scale)
        assert np.allclose(got[exact.size :], 0.0, atol=1e-10 * scale)


def test_determinant_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = MatPoly(rng.normal(size=(3, 3, 2)))
        b = MatPoly(rng.normal(size=(3, 3, 2)))
        left = determinant(a @ b).coeffs
        right = np.convolve(determinant(a).coeffs, determinant(b).coeffs)
        scale = max(1.0, np.abs(right).max())
        assert np.allclose(left[: right.size], right, atol=1e-9 * scale)


def test_adjoint_2x2_formula():
    rng = np.random.default_rng(2)
    a = MatPoly(rng.normal(size=(2, 2, 3)))
    adj = adjoint(a)
    assert np.allclose(adj.coeff[0, 0], a.coeff[1, 1], atol=1e-12)
    assert np.allclose(adj.coeff[0, 1], -a.coeff[0, 1], atol=1e-12)
    assert np.allclose(adj.coeff[1, 0], -a.coeff[1, 0], atol=1e-12)
    assert np.allclose(adj.coeff[1, 1], a.coeff[0, 0], atol=1e-12)


def test_adjoint_identity_and_example():
    adj = adjoint(MatPoly.identity(3, 0))
    assert np.allclose(adj.coeff[:, :, 0], np.eye(3), atol=1e-12)
    adj = adjoint(UNIMODULAR)
    assert np.allclose(adj.coeff[0, 0], [0, 1], atol=1e-12)
    assert np.allclose(adj.coeff[0, 1], [1, -1], atol=1e-12)
    assert np.allclose(adj.coeff[1, 0], [-1, -1], atol=1e-12)
    assert np.allclose(adj.coeff[1, 1], [0, 1], atol=1e-12)


def test_adjoint_product_identity():
    rng = np.random.default_rng(3)
    for n, d in ((2, 3), (3, 2), (4, 3)):
        a = MatPoly(rng.normal(size=(n, n, d + 1)))
        prod = a @ adjoint(a)
        det = determinant(a).padded(prod.degree_bound)
        err = 0.0
        for i in range(n):
            for j in range(n):
                want = det.coeffs if i == j else np.zeros(prod.degree_bound + 1)
                err = max(err, np.max(np.abs(prod.coeff[i, j] - want)))
        assert err <= 1e-10 * (1.0 + a.frobenius_norm() ** n)


def test_jacobian_det_scalar_case():
    a = MatPoly.from_entries([[[2.0, 1.0, 3.0]]])
    jac = jacobian_det(a)
    assert np.array_equal(jac, np.eye(3))


def test_jacobian_det_2x2_block_is_conv():
    rng = np.random.default_rng(4)
    a = MatPoly(rng.normal(size=(2, 2, 2)))
    jac = jacobian_det(a)
    # det = A00 A11 - A01 A10, so the block for entry (0, 0) multiplies by A11.
    block = jac[:, : a.degree_bound + 1]
    assert np.allclose(block, conv_matrix(a.entry(1, 1), a.degree_bound), atol=1e-12)


def _vec_size(a):
    return a.rows * a.cols * (a.degree_bound + 1)


def test_jacobian_det_matches_finite_differences():
    rng = np.random.default_rng(5)
    a = random_full_rank_matpoly(rng, 3, 2)
    jac = jacobian_det(a)

    def det_vec(v):
        mat = MatPoly.unvec(v, a.rows, a.cols, a.degree_bound)
        return determinant(mat).coeffs[: jac.shape[0]]

    fd = fd_columns(det_vec, a.vec(), eps=1e-6)
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) <= 1e-5


def test_jacobian_adj_2x2_is_signed_permutation():
    rng = np.random.default_rng(6)
    a = random_full_rank_matpoly(rng, 2, 1)
    jac = jacobian_adj(a)
    e = rng.normal(size=_vec_size(a))
    mat = MatPoly.unvec(e, 2, 2, 1)
    swapped = MatPoly.from_entries(
        [
            [mat.coeff[1, 1].tolist(), (-mat.coeff[0, 1]).tolist()],
            [(-mat.coeff[1, 0]).tolist(), mat.coeff[0, 0].tolist()],
        ]
    )
    assert np.allclose(jac @ e, swapped.vec(1), atol=1e-9)


def test_jacobian_adj_full_rank_and_fd():
    rng = np.random.default_rng(7)
    for n, d in ((3, 1), (4, 2)):
        a = random_full_rank_matpoly(rng, n, d)
        jac = jacobian_adj(a)
        assert numeric_rank(jac) == _vec_size(a)

        dadj = (a.rows - 1) * a.degree_bound

        def adj_vec(v):
            mat = MatPoly.unvec(v, a.rows, a.cols, a.degree_bound)
            return adjoint(mat).vec(dadj)

        fd = fd_columns(adj_vec, a.vec(), eps=1e-6)
        assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) <= 1e-5


def test_jacobian_adj_rank_deficient_input():
    singular = MatPoly.from_entries([[[1.0], [1.0]], [[1.0], [1.0]]])
    with pytest.raises(RankDeficientInput):
        jacobian_adj(singular)
    with pytest.raises(RankDeficientInput):
        jacobian_adj_norm(singular)


def _norm_cases():
    """Seeded n = 2..7, d = 1..3 inputs at scales 1e-3, 1 and 1e3, one with a
    sparse row and one with a rank-1 leading coefficient per (n, d)."""
    rng = np.random.default_rng(11)
    for n in range(2, 8):
        for d in range(1, 4):
            for scale in (1e-3, 1.0, 1e3):
                yield MatPoly(scale * random_full_rank_matpoly(rng, n, d).coeff)
            sparse = random_full_rank_matpoly(rng, n, d)
            sparse.coeff[0, 1:] = 0.0
            yield sparse
            rank1 = random_full_rank_matpoly(rng, n, d)
            rank1.coeff[:, :, d] = np.outer(rng.normal(size=n), rng.normal(size=n))
            yield rank1


def test_jacobian_adj_norm_matches_built_jacobian():
    # Parseval over the adjugate nodes and Cauchy-Binet at each node.
    for a in _norm_cases():
        want = np.linalg.norm(jacobian_adj(a))
        assert jacobian_adj_norm(a) == pytest.approx(want, rel=1e-13)


def test_jacobian_adj_gathers_minors_in_bounded_chunks():
    # One gather of every 8x8 complementary submatrix at all 19 nodes takes 38 MB.
    a = random_full_rank_matpoly(np.random.default_rng(10), 10, 2)
    tracemalloc.start()
    try:
        jacobian_adj(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
