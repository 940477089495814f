import numpy as np
import pytest

from polysmith.errors import DegreeBoundViolation
from polysmith.matpoly import MatPoly, Poly
from polysmith.structured import (
    block_conv_matrix,
    conv_matrix,
    generalized_sylvester,
    numeric_rank,
)

from oracles import exact_gcd_degree, frac_poly_mul
from fractions import Fraction


def test_conv_matrix_identity_and_example():
    assert np.array_equal(conv_matrix(Poly([1.0]), 2), np.eye(3))
    assert np.array_equal(conv_matrix(Poly([1.0, 1.0]), 1), [[1, 0], [1, 1], [0, 1]])


def test_conv_matrix_product_identity():
    rng = np.random.default_rng(0)
    a, b = Poly(rng.normal(size=4)), Poly(rng.normal(size=3))
    lhs = conv_matrix(a, b.declared_degree) @ b.coeffs
    assert np.allclose(lhs, np.convolve(a.coeffs, b.coeffs), atol=1e-12)


def test_conv_matrix_toeplitz_structure():
    a = Poly([2.0, -1.0, 3.0])
    m = conv_matrix(a, 3)
    for j in range(1, 4):
        assert np.array_equal(m[j:, j], m[: m.shape[0] - j, 0])
        assert np.all(m[:j, j] == 0.0)
    diagonals = {j - i for i in range(m.shape[0]) for j in range(m.shape[1]) if m[i, j] != 0}
    assert len(diagonals) == a.declared_degree + 1


def test_block_conv_identity_blocks():
    eye = MatPoly.identity(3, 0)
    assert np.array_equal(block_conv_matrix(eye, 2), np.eye(9))


def test_block_conv_1x1_reduces_to_conv():
    p = Poly([1.0, 2.0, 0.5])
    a = MatPoly.from_entries([[p]])
    assert np.array_equal(block_conv_matrix(a, 2), conv_matrix(p, 2))


def test_block_conv_product_oracle():
    rng = np.random.default_rng(1)
    a = MatPoly(rng.normal(size=(2, 3, 3)))
    b = MatPoly(rng.normal(size=(3, 1, 2)))
    lhs = block_conv_matrix(a, b.degree_bound) @ b.vec()
    rhs = (a @ b).vec(a.degree_bound + b.degree_bound)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_sylvester_coprime_full_rank():
    syl = generalized_sylvester([Poly([0, 1]), Poly([1.0])], [1, 0])
    assert numeric_rank(syl) == syl.shape[1]


def test_sylvester_common_factor_rank_deficiency():
    syl = generalized_sylvester([Poly([-1, 0, 1]), Poly([-1, 1])], [2, 1])
    assert numeric_rank(syl) == syl.shape[1] - 1


def test_sylvester_sorts_internally():
    f = [Poly([-1, 1]), Poly([-1, 0, 1])]
    a = generalized_sylvester(f, [1, 2])
    b = generalized_sylvester(f[::-1], [2, 1])
    assert np.array_equal(a, b)


def test_sylvester_degree_bound_violation():
    with pytest.raises(DegreeBoundViolation):
        generalized_sylvester([Poly([1, 2, 3]), Poly([1, 1])], [1, 1])


def test_sylvester_nullity_matches_exact_gcd():
    rng = np.random.default_rng(5)
    for planted in (0, 1, 2):
        base = [
            [Fraction(int(v)) for v in rng.integers(-5, 6, size=3)],
            [Fraction(int(v)) for v in rng.integers(-5, 6, size=4)],
            [Fraction(int(v)) for v in rng.integers(-5, 6, size=2)],
        ]
        factor = [Fraction(1)]
        for _ in range(planted):
            factor = frac_poly_mul(factor, [Fraction(int(rng.integers(-3, 4))), Fraction(1)])
        polys = [frac_poly_mul(p, factor) for p in base]
        gdeg = exact_gcd_degree(polys)
        fs = [Poly([float(c) for c in p]) for p in polys]
        syl = generalized_sylvester(fs, [p.declared_degree for p in fs])
        assert syl.shape[1] - numeric_rank(syl) == gdeg


def test_sylvester_coefficient_replication_count():
    # Equal declared degrees: the leading block repeats its polynomial l times
    # and every other block d times.
    rng = np.random.default_rng(6)
    fs = [Poly(rng.normal(size=4)) for _ in range(3)]
    gamma = 3
    syl = generalized_sylvester(fs, [gamma] * 3)
    expected = gamma * sum(p.norm() ** 2 for p in fs)
    assert np.sum(syl**2) == pytest.approx(expected)


def test_numeric_rank_basics():
    assert numeric_rank(np.zeros((3, 3))) == 0
    assert numeric_rank(np.eye(4)) == 4


def test_numeric_rank_sylvester_gcd_nullity():
    syl = generalized_sylvester([Poly([-1, 0, 1]), Poly([-1, 1])], [2, 1])
    assert numeric_rank(syl) == syl.shape[1] - 1
