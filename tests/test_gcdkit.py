import hashlib

import numpy as np
import pytest

from polysmith import cli
from polysmith.detadj import adjoint
from polysmith.errors import DegreeTooLarge
from polysmith.gcdkit import (
    Analysis,
    _root_projection_score,
    approx_gcd,
    approx_gcd_candidates,
    detect_unattainable,
    distance_lower_bound,
    local_invariant_structure,
    reachable_adjoint_degrees,
    triviality_report,
)
from polysmith.matpoly import NEG_INF, MatPoly, PerturbStructure, Poly

from conftest import FIXTURES
from oracles import diagonal_snf_instance, grid_then_golden

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



def test_root_projection_score_matches_per_entry_loop():
    rng = np.random.default_rng(3)
    entries = [rng.normal(size=size) for size in (1, 3, 2, 9, 5, 4, 1, 7, 3)]
    real = rng.uniform(-3.0, 3.0, 40)
    both = np.concatenate([real, rng.normal(size=40) + 1j * rng.normal(size=40)])
    score = _root_projection_score(entries)
    for points in (real, both, both[-2:]):
        z = points.astype(complex)
        expected = np.zeros(z.size)
        for c in entries:
            deg = max(int(Poly(c).degree()), 0)
            vals = np.abs(np.polynomial.polynomial.polyval(z, c)) ** 2
            basis = np.sum(np.abs(z)[None, :] ** (2 * np.arange(deg + 1)[:, None]), axis=0)
            expected += vals / basis
        assert np.array_equal(score(points), expected)


# Every candidate's divisor and residual as float.hex, and a SHA-256 over the
# float.hex strings of all cofactors: the seed as the alternating fit computes
# it, its stop rules included.  The seed decides which local minimum a solve
# reaches, so it must stay bitwise the same.  The ex1-1 and diagonal-1 fits
# converge; the ex1-2 fits stop by their rate after 12 sweeps.
SEED_GOLDEN = {
    "ex1-1": ([(["0x1.9367b2ce33f5cp-5", "0x1.0000000000000p+0"], "0x1.8f192e2128af0p+1"),
               (["0x1.936740f66cd41p-5", "0x1.0000000000000p+0"], "0x1.8f192e2128eaap+1"),
               (["0x1.93672fd858329p-5", "0x1.0000000000000p+0"], "0x1.8f192e2128fdcp+1")],
              "d9cce2c68ca6d9db12f2f53336d2feb9c18081f16f344c483c1f57950ca39fb0"),
    "ex1-2": ([(["0x1.51755bfbc45b9p+0", "-0x1.435cd0057dc25p-5", "0x1.0000000000000p+0"],
                "0x1.d2f84b6410c18p-6"),
               (["0x1.0fee68cceed1ap+0", "0x1.048224dc818aap-2", "0x1.0000000000000p+0"],
                "0x1.0f3bb0aff2f39p-5")],
              "6d8c4f74d28fb5266e36b22d27bbec90c9cd2baf7f90abb20e5655c2b939c905"),
    "diagonal-1": ([(["0x1.25d817261e2b6p-2", "0x1.0000000000000p+0"], "0x1.e308c949bdcbap-4"),
                    (["0x1.25d81b031e4bbp-2", "0x1.0000000000000p+0"], "0x1.e308c949be8d8p-4"),
                    (["0x1.25d81b2130ad7p-2", "0x1.0000000000000p+0"], "0x1.e308c949be996p-4"),
                    (["0x1.25d80fd5943c6p-2", "0x1.0000000000000p+0"], "0x1.e308c949c0853p-4")],
                   "a602e048dfda162c5f49ed6b4260d98d77dfa496245500952a331070e52320a5"),
}


@pytest.mark.parametrize("case", sorted(SEED_GOLDEN))
def test_approx_gcd_candidates_bitwise_golden(case):
    fits = _seed_fits(case)
    digest = hashlib.sha256()
    for fit in fits:
        for u in fit.cofactors:
            digest.update(" ".join(float(x).hex() for x in u.coeffs).encode())
    found = [([float(x).hex() for x in fit.h.coeffs], float(fit.residual).hex()) for fit in fits]
    assert (found, digest.hexdigest()) == SEED_GOLDEN[case]


def _seed_fits(case):
    source, deg_h = case.split("-")
    a = EX1 if source == "ex1" else diagonal_snf_instance(3)[0]
    entries = adjoint(a).pvec()
    return approx_gcd_candidates(entries, int(deg_h), [entries[0].declared_degree] * len(entries))


def test_rate_stopped_seed_stays_near_the_full_fit():
    # The best ex1 deg_h=2 candidate after all 100 sweeps, before the rate
    # rule: its residual and divisor as float.hex.
    full_residual = float.fromhex("0x1.d28041210b7bdp-6")
    full_h = [float.fromhex(x) for x in ("0x1.5104a0863c147p+0", "-0x1.418e75faaab77p-5", "0x1.0p+0")]
    best = _seed_fits("ex1-2")[0]
    assert best.stop == "rate"
    assert full_residual <= best.residual <= 1.005 * full_residual
    assert np.max(np.abs(best.h.coeffs - full_h)) <= 1e-2


@pytest.mark.parametrize("case, most_sweeps", [("ex1-1", 60), ("ex1-2", 50), ("diagonal-1", 49)])
def test_alternating_fit_sweep_budget(monkeypatch, case, most_sweeps):
    # Every seed is fitted, duplicates included, and each sweep of these
    # inputs makes one cofactor solve and one divisor solve.  The four ex1-2
    # seeds ran 400 sweeps before the rate rule; the other fits converge.
    solves = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: solves.append(1) or lstsq(*args, **kw))
    fits = _seed_fits(case)
    assert len(solves) <= 2 * most_sweeps
    assert sum(fit.sweeps for fit in fits) <= most_sweeps
    expected = "rate" if case == "ex1-2" else "converged"
    assert [fit.stop for fit in fits] == [expected] * len(fits)


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
    assert Analysis(MatPoly.identity(4, 0)).mccoy_rank == 4
    a = MatPoly.from_entries([[[-1, 1], [0]], [[0], [-2, 1]]])
    assert Analysis(a).mccoy_rank == 1


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
