import numpy as np
import pytest

from polysmith.errors import DimensionMismatch, PadTooSmall
from polysmith.matpoly import NEG_INF, MatPoly, PerturbStructure, Poly

from oracles import perturb_apply_via_delta, perturb_delta_via_vec

EXAMPLE = MatPoly.from_entries([[[0, 1], [-1, 1]], [[1, 1], [0, 1]]])  # [[t, t-1], [t+1, t]]


def test_degree_zero_matrix():
    assert MatPoly.zeros(2, 2, 1).degree() == NEG_INF


def test_degree_example():
    assert EXAMPLE.degree() == 1


def test_degree_matches_per_entry_scan():
    rng = np.random.default_rng(7)
    a = MatPoly(rng.normal(size=(3, 3, 3)))
    expected = max(
        max((k for k in range(3) if a.coeff[i, j, k] != 0.0), default=NEG_INF)
        for i in range(3)
        for j in range(3)
    )
    assert a.degree() == expected


def test_evaluate_at_zero_is_constant_term():
    rng = np.random.default_rng(0)
    a = MatPoly(rng.normal(size=(2, 3, 4)))
    assert np.allclose(a.evaluate(0.0), a.coeff[:, :, 0])


def test_evaluate_example_at_one():
    assert np.allclose(EXAMPLE.evaluate(1.0), [[1, 0], [2, 1]])


def test_evaluate_root_substitution():
    a = MatPoly.identity(2, 2)
    a.coeff[0, 0] = [1, 0, 1]
    a.coeff[1, 1] = [1, 0, 1]
    assert np.allclose(a.evaluate(1j), 0.0, atol=1e-12)


def test_frobenius_norm_zero_and_345():
    assert MatPoly.zeros(3, 2, 1).frobenius_norm() == 0.0
    assert MatPoly.from_entries([[[3, 4]]]).frobenius_norm() == pytest.approx(5.0)


def test_frobenius_norm_matches_vec_norm():
    rng = np.random.default_rng(1)
    a = MatPoly(rng.normal(size=(3, 2, 3)))
    assert a.frobenius_norm() == pytest.approx(np.linalg.norm(a.vec(4)))


def test_vec_simple_and_zero():
    assert np.array_equal(MatPoly.from_entries([[[1, 2]]]).vec(2), [1, 2, 0])
    assert np.array_equal(MatPoly.zeros(2, 2, 0).vec(1), np.zeros(8))


def test_vec_roundtrip():
    rng = np.random.default_rng(2)
    a = MatPoly(rng.normal(size=(2, 3, 2)))
    back = MatPoly.unvec(a.vec(3), 2, 3, 3)
    assert np.allclose(back.coeff[:, :, :2], a.coeff)
    assert np.allclose(back.coeff[:, :, 2:], 0.0)


def test_vec_linearity():
    rng = np.random.default_rng(3)
    a = MatPoly(rng.normal(size=(2, 2, 2)))
    b = MatPoly(rng.normal(size=(2, 2, 2)))
    assert np.allclose((a + b).vec(3), a.vec(3) + b.vec(3))


def test_vec_pad_too_small():
    with pytest.raises(PadTooSmall):
        MatPoly.from_entries([[[1, 2, 3]]]).vec(1)


def test_reverse_swap_and_monomial():
    assert np.array_equal(Poly([1, 2]).reversed(1).coeffs, [2, 1])
    assert np.array_equal(Poly([0, 0, 1]).reversed(2).coeffs, [1, 0, 0])


def test_reverse_involution_and_norm():
    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=4)
    coeffs[0] = 1.5  # nonzero constant term keeps the reversal invertible
    p = Poly(coeffs)
    assert np.allclose(p.reversed(3).reversed(3).coeffs, p.coeffs)
    assert p.reversed(3).norm() == pytest.approx(p.norm())


def test_reverse_pad_too_small():
    with pytest.raises(PadTooSmall):
        Poly([1, 2, 3]).reversed(1)


def test_apply_perturbation_zero_params_identity_bits():
    structure = PerturbStructure.support(EXAMPLE)
    out = structure.apply(EXAMPLE, np.zeros(structure.num_params))
    assert np.array_equal(out.coeff, EXAMPLE.coeff)


def test_apply_perturbation_full_cancels():
    structure = PerturbStructure.full(EXAMPLE)
    out = structure.apply(EXAMPLE, -EXAMPLE.vec(EXAMPLE.degree_bound))
    assert np.all(out.coeff == 0.0)


def test_apply_perturbation_support_keeps_zeros():
    rng = np.random.default_rng(5)
    a = MatPoly(np.where(rng.random(size=(3, 3, 3)) < 0.4, rng.normal(size=(3, 3, 3)), 0.0))
    structure = PerturbStructure.support(a)
    out = structure.apply(a, rng.normal(size=structure.num_params))
    assert np.all(out.coeff[a.coeff == 0.0] == 0.0)


def test_apply_perturbation_dimension_mismatch():
    structure = PerturbStructure.full(EXAMPLE)
    with pytest.raises(DimensionMismatch):
        structure.apply(EXAMPLE, np.zeros(structure.num_params + 1))


@pytest.mark.parametrize("kind", ["full", "support", "degree"])
def test_apply_matches_delta_route_bitwise(kind):
    rng = np.random.default_rng(9)
    coeff = rng.normal(size=(3, 3, 4))
    coeff[rng.random(coeff.shape) < 0.3] = 0.0
    coeff[0, 0, 0] = -0.0
    a = MatPoly(coeff)
    structure = getattr(PerturbStructure, kind)(a)
    for params in (rng.normal(size=structure.num_params), np.zeros(structure.num_params)):
        want = perturb_apply_via_delta(structure, a, params)
        got = structure.apply(a, params)
        assert np.array_equal(got.coeff, want.coeff)
        assert got.coeff.tobytes() == want.coeff.tobytes()
        delta = structure.delta(params).coeff
        assert delta.tobytes() == perturb_delta_via_vec(structure, params).coeff.tobytes()


def test_structure_holds_a_read_only_copy_of_the_mask():
    mask = np.ones((2, 2, 2), dtype=bool)
    structure = PerturbStructure(mask)
    mask[0, 0, 0] = False
    assert structure.num_params == 8
    assert not structure.mask.flags.writeable


def test_structure_reversal_round_trips_and_follows_the_matrix():
    rng = np.random.default_rng(3)
    a = MatPoly(rng.normal(size=(2, 3, 3)) * (rng.random((2, 3, 3)) < 0.5))
    structure = PerturbStructure.support(a)
    rev = structure.reversed()
    assert not rev.mask.flags.writeable
    assert np.array_equal(rev.mask, PerturbStructure.support(a.reversed()).mask)
    assert np.array_equal(rev.reversed().mask, structure.mask)
    assert np.array_equal(a.reversed().reversed().coeff, a.coeff)


def test_perturbation_isometry():
    rng = np.random.default_rng(6)
    a = MatPoly(rng.normal(size=(2, 2, 3)))
    structure = PerturbStructure.degree(a)
    params = rng.normal(size=structure.num_params)
    moved = structure.apply(a, params)
    assert (moved - a).frobenius_norm() == pytest.approx(np.linalg.norm(params))


def test_evaluate_is_ring_homomorphism():
    rng = np.random.default_rng(8)
    a = MatPoly(rng.normal(size=(2, 2, 2)))
    b = MatPoly(rng.normal(size=(2, 2, 3)))
    for z in (0.3, -1.2, 0.5 + 0.25j):
        left = (a @ b).evaluate(z)
        right = a.evaluate(z) @ b.evaluate(z)
        assert np.allclose(left, right, rtol=1e-10, atol=1e-12)


def test_degree_mask_stops_at_entry_degree():
    a = MatPoly.from_entries([[[1, 2], [0]], [[0, 0, 5], [3]]])
    mask = PerturbStructure.degree(a).mask
    assert mask[0, 0].tolist() == [True, True, False]
    assert mask[0, 1].tolist() == [False, False, False]
    assert mask[1, 0].tolist() == [True, True, True]
    assert mask[1, 1].tolist() == [True, False, False]
