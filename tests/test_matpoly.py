import numpy as np
import pytest

from polysmith import cli, selftest
from polysmith.errors import DimensionMismatch, PadTooSmall
from polysmith.matpoly import NEG_INF, MatPoly, PerturbStructure, Poly

from conftest import FIXTURES
from oracles import (
    from_entries_per_entry,
    perturb_apply_via_delta,
    perturb_delta_via_vec,
    scalar_evaluate,
)

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


def test_parameter_positions_come_from_one_cell_table():
    # Parameters run over the entries column-major, as in MatPoly.vec, then
    # over the coefficients; every position table reads the same cells.
    rng = np.random.default_rng(4)
    structure = PerturbStructure(rng.random((3, 2, 3)) < 0.5)
    i, j, k = structure.cells
    assert structure.cells is structure.cells and not i.flags.writeable
    order = sorted(zip(*np.nonzero(structure.mask)), key=lambda c: (c[1], c[0], c[2]))
    assert list(zip(i, j, k)) == order
    vec_mask = structure.mask.transpose(1, 0, 2).reshape(-1)
    assert np.array_equal(structure.param_indices(), np.flatnonzero(vec_mask))
    assert np.array_equal(np.unravel_index(structure._slots, structure.mask.shape), (i, j, k))


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


def test_batched_evaluate_stacks_scalar_calls_bitwise():
    # A 1-D batch of points, real or complex and empty too, gives the stack of
    # the scalar evaluations, bit for bit; a scalar gives the matrix itself.
    rng = np.random.default_rng(30)
    for case in range(60):
        rows, cols, d = (int(x) for x in rng.integers(1, 6, 3))
        a = MatPoly(rng.normal(size=(rows, cols, d + 1)) * 10.0 ** rng.uniform(-5, 5))
        k = int(rng.integers(0, 9)) if case else 0
        z = rng.normal(size=k) * 10.0 ** rng.uniform(-3, 3, k)
        if case % 2:
            z = z + 1j * rng.normal(size=k)
        got = a.evaluate(z)
        want = np.array([scalar_evaluate(a, x) for x in z], dtype=complex).reshape(k, rows, cols)
        assert got.shape == (k, rows, cols) and got.dtype == want.dtype == complex
        assert got.tobytes() == want.tobytes()
        for x in z:
            assert a.evaluate(x).tobytes() == scalar_evaluate(a, x).tobytes()


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


def _entry_grid(rng):
    # Ragged degrees with trailing zeros kept; integer lists, float lists,
    # numpy arrays or Poly values.
    rows, cols = rng.integers(1, 6, 2)
    grid = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            c = rng.normal(size=rng.integers(1, 5)) * (rng.random() < 0.8)
            ints = [int(x) for x in rng.integers(-9, 10, c.size)]
            row.append([ints, list(c), c, Poly(c)][rng.integers(4)])
        grid.append(row)
    return grid


def test_from_entries_matches_the_per_entry_fill(monkeypatch):
    # Seeded grids, the CLI's parsed documents and the selftest's call.
    rng = np.random.default_rng(27)
    cases = [(_entry_grid(rng), None) for _ in range(200)]
    cases += [(grid, max(len(getattr(e, "coeffs", e)) for row in grid for e in row) + 1)
              for grid, _ in cases[:20]]
    cases += [(cli.parse(str(path)).entries, None) for path in sorted(FIXTURES.glob("*.json"))]
    recorded = []

    def recording(cls, entries, degree_bound=None, _fn=MatPoly.from_entries.__func__):
        recorded.append((entries, degree_bound))
        return _fn(cls, entries, degree_bound)

    monkeypatch.setattr(MatPoly, "from_entries", classmethod(recording))
    next(name for name, *_ in selftest.run_selftest(0) if name.startswith("snf solve"))
    assert len(recorded) == 1
    for entries, degree_bound in cases + recorded:
        got = MatPoly.from_entries(entries, degree_bound).coeff
        want = from_entries_per_entry(entries, degree_bound)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_from_entries_rejects_ragged_grid_and_short_bound():
    with pytest.raises(DimensionMismatch):
        MatPoly.from_entries([[[1.0], [2.0]], [[3.0]]])
    with pytest.raises(PadTooSmall):
        MatPoly.from_entries([[[1.0, 2.0, 3.0]]], degree_bound=1)


def test_degree_mask_matches_the_entry_degrees():
    rng = np.random.default_rng(28)
    for _ in range(100):
        # Half the coefficients zero: trailing zeros and vanishing entries.
        shape = (*rng.integers(1, 5, 2), rng.integers(1, 5))
        a = MatPoly(rng.normal(size=shape) * (rng.random(shape) < 0.5))
        mask = PerturbStructure.degree(a).mask
        for i in range(a.rows):
            for j in range(a.cols):
                deg = a.entry(i, j).degree()
                want = np.arange(a.degree_bound + 1) <= deg
                assert np.array_equal(mask[i, j], want)


def test_difference_matches_entry_wise_subtraction():
    rng = np.random.default_rng(29)
    a, b = MatPoly(rng.normal(size=(2, 3, 3))), MatPoly(rng.normal(size=(2, 3, 2)))
    want = a.coeff.copy()
    want[:, :, :2] -= b.coeff
    assert np.array_equal((a - b).coeff, want)
    with pytest.raises(DimensionMismatch):
        a - MatPoly(rng.normal(size=(3, 2, 3)))
