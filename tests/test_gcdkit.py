import numpy as np
import pytest

from polysmith import cli
from polysmith.detadj import adjoint
from polysmith.errors import DegreeTooLarge
from polysmith.gcdkit import (
    approx_gcd,
    detect_unattainable,
    distance_lower_bound,
    local_invariant_structure,
    mccoy_rank,
    reachable_adjoint_degrees,
    triviality_report,
)
from polysmith.matpoly import NEG_INF, MatPoly, PerturbStructure, Poly

from conftest import FIXTURES
from oracles import grid_then_golden

UNIMODULAR = MatPoly.from_entries([[[0, 1], [-1, 1]], [[1, 1], [0, 1]]])
EX1 = MatPoly.from_entries(
    [
        [[1, 0.1, 1], [0], [-0.1, 0.3], [0]],
        [[0], [1.3, 0.2, 0.9], [0], [0.1]],
        [[0, 0.2], [0], [1.32, 0, 1, 0.03], [0]],
        [[0], [1.2, 0, 0.1], [0], [0.89, 0, 0.89]],
    ],
    degree_bound=3,
)


def block_diag_c():
    z = [0.0]
    return MatPoly.from_entries(
        [
            [[0, 1], [-1, 1], z, z],
            [[1, 1], [0, 1], z, z],
            [z, z, [0, 1], [-1, 1]],
            [z, z, [1, 1], [0, 1]],
        ],
        degree_bound=1,
    )


def test_detect_unattainable_block_diag():
    c = block_diag_c()
    assert detect_unattainable(c, PerturbStructure.support(c))


def test_detect_unattainable_scaling_invariance():
    c = block_diag_c()
    assert detect_unattainable(3.7 * c, PerturbStructure.support(3.7 * c))


def test_detect_unattainable_degree_mask():
    c = block_diag_c()
    assert detect_unattainable(c, PerturbStructure.degree(c))


def test_detect_unattainable_already_nontrivial():
    a = MatPoly.from_entries([[[-1, 1], [0]], [[0], [-1, 1]]])
    assert not detect_unattainable(a, PerturbStructure.support(a))


def test_detect_unattainable_generic_dense():
    rng = np.random.default_rng(0)
    a = MatPoly(rng.normal(size=(3, 3, 2)))
    assert not detect_unattainable(a, PerturbStructure.full(a))


def test_reachable_adjoint_degrees_support_vs_full():
    c = block_diag_c()
    reach = reachable_adjoint_degrees(c, PerturbStructure.support(c))
    assert reach[0, 0] == 3.0
    assert reach[0, 2] == NEG_INF
    full = reachable_adjoint_degrees(c, PerturbStructure.full(c))
    assert np.all(full == 3.0)


def test_distance_lower_bound_nontrivial_input_is_zero():
    a = MatPoly.from_entries([[[-1, 1], [0]], [[0], [-1, 1]]])
    bound, sigma = distance_lower_bound(a)
    assert bound == 0.0 and sigma == 0.0


def test_distance_lower_bound_below_known_distance():
    bound, sigma = distance_lower_bound(EX1)
    assert 0.0 < bound <= 0.164813183138322
    assert sigma > 0.0


def test_distance_lower_bound_2x2_oracle():
    rng = np.random.default_rng(1)
    for _ in range(3):
        f = np.polynomial.polynomial.polyfromroots(rng.uniform(-1.2, 1.2, 2))
        g = np.polynomial.polynomial.polyfromroots(rng.uniform(-1.2, 1.2, 2))
        a = MatPoly.from_entries([[list(f), [0, 0, 0]], [[0, 0, 0], list(g)]])

        def cost(r):
            fr = np.polynomial.polynomial.polyval(r, f)
            gr = np.polynomial.polynomial.polyval(r, g)
            return (fr**2 + gr**2) / (1.0 + r**2 + r**4)

        _, best = grid_then_golden(cost, -4.0, 4.0)
        bound, _ = distance_lower_bound(a)
        assert bound <= np.sqrt(best) + 1e-12


def test_approx_gcd_exact_factor():
    f = Poly(np.polynomial.polynomial.polyfromroots([1.0, -2.0]))
    g = Poly(np.polynomial.polynomial.polyfromroots([1.0, 3.0]))
    fit = approx_gcd([f, g], 1, [2, 2])
    assert fit.residual <= 1e-10
    assert np.allclose(fit.h.coeffs, [-1.0, 1.0], atol=1e-8)


def test_approx_gcd_matches_grid_oracle():
    f = np.array([1.0, 0.1, 1.0])
    g = np.array([1.01, 0.11, 1.0])
    fit = approx_gcd([Poly(f), Poly(g)], 2, [2, 2])

    # Brute force over monic quadratics: residual of projecting each input
    # onto scalar multiples of the candidate divisor.
    def residual(c0, c1):
        h = np.array([c0, c1, 1.0])
        total = 0.0
        for p in (f, g):
            scale = h @ p / (h @ h)
            total += np.sum((p - scale * h) ** 2)
        return total

    best = np.inf
    for c0 in np.linspace(0.9, 1.1, 81):
        for c1 in np.linspace(0.0, 0.2, 81):
            best = min(best, residual(c0, c1))
    lo = np.sqrt(best)
    for _ in range(30):
        c0, c1 = fit.h.coeffs[0], fit.h.coeffs[1]
        step = 1e-4
        grid = [
            residual(c0 + a * step, c1 + b * step)
            for a in (-1, 0, 1)
            for b in (-1, 0, 1)
        ]
        lo = min(lo, np.sqrt(min(grid)))
    assert fit.residual <= lo + 1e-6


def test_approx_gcd_mixed_declared_degrees():
    # Entries of equal declared degree share one cofactor solve per sweep.
    root = 0.7
    others = ([-2.0], [1j, -1j], [3.0, -0.5])
    polys = [Poly(np.polynomial.polynomial.polyfromroots([root, *r]).real) for r in others]
    fit = approx_gcd(polys, 1, [2, 3, 3])
    assert fit.residual <= 1e-10
    assert np.allclose(fit.h.coeffs, [-root, 1.0], atol=1e-8)
    assert [u.declared_degree for u in fit.cofactors] == [1, 2, 2]


def test_approx_gcd_degree_too_large():
    with pytest.raises(DegreeTooLarge):
        approx_gcd([Poly([1, 1]), Poly([2, 1])], 2, [1, 1])


def test_approx_gcd_ex1_seed_converges_downstream():
    entries = adjoint(EX1).pvec()
    fit = approx_gcd(entries, 2, [9] * len(entries))
    assert fit.residual < 0.1
    assert fit.h.coeffs[-1] == 1.0


def test_triviality_report_identity():
    eye = MatPoly.identity(3, 0)
    report = triviality_report(eye, PerturbStructure.full(eye))
    assert report.is_trivial and report.mccoy_rank == 3 and report.lower_bound > 0.0


def test_triviality_report_repeated_factor():
    a = MatPoly.from_entries([[[-1, 1], [0]], [[0], [-1, 1]]])
    report = triviality_report(a, PerturbStructure.support(a))
    assert not report.is_trivial
    assert report.mccoy_rank == 0
    assert report.lower_bound == 0.0


def test_triviality_report_ex1():
    report = triviality_report(EX1, PerturbStructure.support(EX1))
    assert report.is_trivial
    assert report.gcd_adjoint_degree == 0
    assert not report.unattainable
    assert report.mccoy_rank == 3


def test_mccoy_rank_cases():
    assert mccoy_rank(MatPoly.identity(4, 0)) == 4
    a = MatPoly.from_entries([[[-1, 1], [0]], [[0], [-2, 1]]])
    assert mccoy_rank(a) == 1


def test_local_invariant_structure_reversed_block_diag():
    c = block_diag_c()
    profile = local_invariant_structure(c.reversed(), 0.0)
    assert profile == [(0, 2), (2, 2)]


def test_local_invariant_structure_generic_point():
    profile = local_invariant_structure(UNIMODULAR, 0.123)
    assert profile == [(0, 2)]


# Flags as the unscaled inputs report them: (is_trivial, mccoy_rank,
# gcd_adjoint_degree, unattainable, sylvester_rank).
@pytest.mark.parametrize("name, flags, profile", [
    ("ex1.json", (True, 3, 0, False, 16), []),
    ("unattainable_C.json", (True, 4, 0, True, 4), [(0, 2), (2, 2)]),
])
def test_analysis_is_scale_covariant(name, flags, profile):
    a = cli.parse(str(FIXTURES / name)).to_matpoly()
    bound, sigma = distance_lower_bound(a)
    for c in (1e-8, 1e-3, 1e3, 1e8):
        scaled = c * a
        report = triviality_report(scaled, PerturbStructure.support(scaled))
        assert (report.is_trivial, report.mccoy_rank, report.gcd_adjoint_degree,
                report.unattainable, report.sylvester_rank) == flags
        assert report.reversal_invariant_structure == profile
        got_bound, got_sigma = distance_lower_bound(scaled)
        assert got_bound == pytest.approx(c * bound, rel=1e-10)
        assert got_sigma == pytest.approx(c ** (a.rows - 1) * sigma, rel=1e-10)
