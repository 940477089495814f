import hashlib

import numpy as np
import pytest

from polysmith import cli, gcdkit
from polysmith.detadj import adjoint
from polysmith.errors import DegreeTooLarge, PolysmithError
from polysmith.gcdkit import (
    Analysis,
    _root_projection_score,
    approx_gcd,
    approx_gcd_candidates,
    detect_unattainable,
    distance_lower_bound,
    local_invariant_structure,
    reachable_adjoint_degrees,
    reachable_entry_degrees,
    triviality_report,
)
from polysmith.matpoly import NEG_INF, MatPoly, PerturbStructure, Poly

import oracles
from conftest import FIXTURES
from oracles import (
    PerEntryAnalysis,
    diagonal_snf_instance,
    golden_section_roots,
    grid_root_scan,
    grid_then_golden,
    per_eigenvalue_mccoy_rank,
    per_seed_alternating_fits,
    plain_alternating_fits,
    random_full_rank_matpoly,
    reachable_entry_degrees_loop,
)

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


def test_reachable_entry_degrees_match_the_entry_loop():
    rng = np.random.default_rng(41)
    for _ in range(200):
        rows, cols, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(0, 4)
        coeff = rng.normal(size=(rows, cols, d + 1)) * (rng.random((rows, cols, d + 1)) < 0.4)
        structure = PerturbStructure(rng.random(coeff.shape) < rng.uniform(0.0, 0.6))
        got = reachable_entry_degrees(MatPoly(coeff), structure)
        want = reachable_entry_degrees_loop(MatPoly(coeff), structure)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _table_case(rng, case):
    """Seeded square input for the table-versus-per-entry comparison: sparse
    entries, a triangular or block-diagonal pattern (identically zero
    adjugate entries), 2x2 blocks [[t, t - c], [t + c, t]] whose infimum
    lies at infinity, or a column scaled down by 1e-8 to 1e-12, which puts
    adjugate entries below the trimming floor; scaled by 2**-40, 1 or 2**40."""
    # reachable_adjoint_degrees takes 0.07 s at n = 7, so n = 7 is rare.
    n, d, kind = 7 if case % 24 == 23 else 1 + case % 6, int(rng.integers(0, 4)), rng.integers(5)
    coeff = rng.normal(size=(n, n, d + 1))
    if kind == 0:
        coeff *= rng.random(coeff.shape) < rng.uniform(0.3, 0.9)
    elif kind == 1:
        coeff *= np.triu(np.ones((n, n)))[:, :, None]
    elif kind == 2:
        coeff[: n // 2, n // 2 :] = coeff[n // 2 :, : n // 2] = 0.0
    elif kind == 3:
        coeff[:, 0] *= 10.0 ** -rng.uniform(8, 12)
    else:
        coeff = np.zeros((n, n, max(d, 1) + 1))
        coeff[-1, -1, 0] = 1.0
        for i in range(0, n - 1, 2):
            s, c = rng.uniform(0.5, 2.0, 2)
            coeff[i : i + 2, i : i + 2, :2] = s * np.array([[[0, 1], [-c, 1]], [[c, 1], [0, 1]]])
    return MatPoly(2.0 ** rng.choice([-40, 0, 40]) * coeff)


def test_table_analysis_matches_per_entry_analysis_bitwise(monkeypatch):
    # The coefficient table of Analysis against one trimmed Poly per adjugate
    # entry: the same GCD degree, padded rank and sigma and unattainable
    # verdict, and every Sylvester matrix Analysis builds is, in order, the
    # reference's matrix at the same degrees, bit for bit.  Analysis builds
    # exactly the ones it cannot reuse: the padded matrix is gcd_degree's when
    # every live entry has degree (n-1)d, and the reachable matrix is when the
    # reachable degrees raise no entry's (when every entry has degree (n-1)d,
    # unattainable does not even search them); unattainable then builds nothing.
    built, ref_built = [], []

    def recorded(log, fn):
        def build(f, dprime):
            log.append(([int(x) for x in dprime], fn(f, dprime)))
            return log[-1][1]
        return build

    monkeypatch.setattr(gcdkit, "generalized_sylvester", recorded(built, gcdkit.generalized_sylvester))
    monkeypatch.setattr(oracles, "per_entry_sylvester", recorded(ref_built, oracles.per_entry_sylvester))
    rng = np.random.default_rng(26)
    seen = {"dead entries": 0, "unattainable": 0, "reversed": 0, "singular": 0, "1x1": 0,
            "padded reused": 0, "search skipped": 0, "reachable reused": 0}
    for case in range(240):
        a = _table_case(rng, case)
        structure = (PerturbStructure.full, PerturbStructure.support,
                     PerturbStructure.degree)[rng.integers(3)](a)
        table, reference = Analysis(a), PerEntryAnalysis(a)
        built.clear()
        ref_built.clear()
        assert _outcome(lambda: table.gcd_degree) == _outcome(lambda: reference.gcd_degree)
        assert _outcome(lambda: table.padded) == _outcome(reference.padded)
        trivial = _outcome(lambda: table.gcd_trivial) is True
        reach = reachable_adjoint_degrees(a, structure) if trivial else None
        verdict = _outcome(lambda: table.unattainable(structure, reach))
        assert verdict == _outcome(lambda: reference.unattainable(reach))
        assert [id(m) for _, m in ref_built] == [id(m) for m in reference.matrices]
        rest = iter(ref_built)
        assert all(any(dp == rdp and np.array_equal(m, rm) for rdp, rm in rest)
                   for dp, m in built)
        full, deg = (a.rows - 1) * a.degree_bound, _outcome(lambda: table.table[1])
        padded_reused = isinstance(deg, np.ndarray) and full > 0 and table.live.size >= 2 \
            and bool(np.all(deg[table.live] == full))
        search_skipped = padded_reused and verdict is False and trivial and bool(np.all(deg == full))
        reachable_reused = verdict is False and trivial and not search_skipped \
            and table.live.size >= 2 and deg.max() > 0 \
            and np.array_equal(np.maximum(reach.T.ravel(), deg), deg)
        assert len(built) == len(ref_built) - padded_reused - search_skipped - reachable_reused
        seen["dead entries"] += a.rows > 1 and 0 < table.live.size < a.rows**2
        seen["unattainable"] += verdict is True
        seen["reversed"] += len(ref_built) == 4
        seen["singular"] += verdict == "RankDeficientInput"
        seen["1x1"] += verdict == "DimensionMismatch"
        seen["padded reused"] += padded_reused
        seen["search skipped"] += search_skipped
        seen["reachable reused"] += reachable_reused
    assert min(seen.values()) >= 5, seen


def test_full_degree_verdict_matches_the_reference_search(monkeypatch):
    # When every adjugate entry has degree (n-1)d, unattainable answers
    # without reachable_adjoint_degrees.  Under every mask its verdict, with
    # reach passed in and without, is the reference's over the permutation
    # search.  Zeroed lower coefficients make the support and degree masks
    # differ from the full one; a generic leading coefficient keeps every
    # adjugate entry at full degree.
    searches = []
    monkeypatch.setattr(gcdkit, "reachable_adjoint_degrees",
                        lambda *args: searches.append(args) or reachable_adjoint_degrees(*args))
    rng = np.random.default_rng(29)
    masks = (PerturbStructure.full, PerturbStructure.support, PerturbStructure.degree)
    for case in range(75):
        n, d = 2 + case % 5, int(rng.integers(1, 4))
        coeff = random_full_rank_matpoly(rng, n, d).coeff
        coeff[:, :, :d] *= rng.random((n, n, d)) < rng.uniform(0.3, 1.0)
        a = MatPoly(2.0 ** rng.choice([-40, 0, 40]) * coeff)
        structure = masks[case % 3](a)
        assert np.all(Analysis(a).table[1] == (n - 1) * d)
        reach = reachable_adjoint_degrees(a, structure)
        want = PerEntryAnalysis(a).unattainable(reach)
        assert want is False
        searches.clear()
        assert Analysis(a).unattainable(structure) is want
        assert Analysis(a).unattainable(structure, reach) is want
        assert detect_unattainable(a, structure) is want
        assert searches == []


def _outcome(fn):
    """fn() or the name of the library error it raised."""
    try:
        return fn()
    except PolysmithError as err:
        return type(err).__name__


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


def _shared_root_entries(seed):
    # Two to five random entries with the exact real root r in common.
    rng = np.random.default_rng(seed)
    r = rng.uniform(-2.0, 2.0)
    return [np.convolve([-r, 1.0], rng.normal(size=rng.integers(1, 5)))
            for _ in range(rng.integers(2, 6))]


def _diagonal_entries(seed):
    # The trimmed nonzero adjugate entries that seed a diag-snf solve.
    entries = [p.trimmed(gcdkit.TRIM_TOL) for p in adjoint(diagonal_snf_instance(seed)[0]).pvec()]
    return [p.coeffs for p in entries if p.degree() != NEG_INF]


@pytest.mark.parametrize("family", [_shared_root_entries, _diagonal_entries])
def test_zoom_roots_score_no_worse_than_golden_section(family):
    # Same brackets, so as many roots; each scores no worse than the 60-step
    # golden section's.  Not asserted on random entries, whose wide brackets
    # can hold several minima that each method may settle on differently.
    found = 0
    for seed in range(60):
        entries = family(seed)
        score = _root_projection_score(entries)
        radius = gcdkit._common_root_radius(entries)
        roots = gcdkit._real_candidate_roots(score, radius)
        reference = golden_section_roots(score, radius)
        assert len(roots) == len(reference)
        if roots:
            got, want = score(np.array(roots)), score(np.array(reference))
            assert np.all(got <= want * (1 + 1e-9) + 1e-30), (seed, got, want)
            found += len(roots)
    assert found >= 60


def test_real_candidate_roots_scores_once_per_round():
    # One call for the grid and one per zoom round, every bracket at once.
    entries = _shared_root_entries(0) + _diagonal_entries(0)
    score, calls = _root_projection_score(entries), []

    def counted(points):
        calls.append(np.size(points))
        return score(points)

    roots = gcdkit._real_candidate_roots(counted, gcdkit._common_root_radius(entries))
    assert len(calls) == gcdkit._ZOOM_ROUNDS + 1 == 11
    assert calls[1:] == [len(roots) * (gcdkit._ZOOM_CELLS + 1)] * gcdkit._ZOOM_ROUNDS


# Every candidate's divisor and residual as float.hex, and a SHA-256 over the
# float.hex strings of all cofactors: the seed as the alternating fit computes
# it, its secant steps and stop rules included.  The seed decides which local
# minimum a solve reaches, so it must stay bitwise the same.  Every fit
# converges; near-duplicate fits share a divisor to nine digits and merge.
SEED_GOLDEN = {
    "ex1-1": ([(["0x1.9367b362b7721p-5", "0x1.0000000000000p+0"], "0x1.8f192e2128af0p+1"),
               (["0x1.9367b4343f327p-5", "0x1.0000000000000p+0"], "0x1.8f192e2128af1p+1")],
              "80502a2365bd4d42d40157f1dc06f2474bb79df1b6f88ab4c06fdf0bcfc55d01"),
    "ex1-2": ([(["0x1.45cb5c042da00p+0", "-0x1.aeba6de10a0f6p-5", "0x1.0000000000000p+0"],
                "0x1.cbe96627f1898p-6"),
               (["0x1.1a4ee01ebe670p+0", "0x1.99749981920b1p-3", "0x1.0000000000000p+0"],
                "0x1.e698add332018p-6")],
              "9a49817f17b7f307959a6ccf710f7b6f0ebc7df3270ae438b7f8b770734047af"),
    "diagonal-1": ([(["0x1.25d8172924eadp-2", "0x1.0000000000000p+0"], "0x1.e308c949bdcbap-4"),
                    (["0x1.25d817139c3b0p-2", "0x1.0000000000000p+0"], "0x1.e308c949bdcbbp-4")],
                   "4e2142e288694ea9e8f9d49787512b9be5c7daee7f422a462b80dfec99e14e19"),
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


def test_best_ex1_degree_two_seed_converges_below_the_full_fit():
    # The plain alternating fit of the best ex1 deg_h=2 seed reaches this
    # residual after all 100 sweeps, and the rate rule stopped it after 12 at
    # 0x1.d2f84b6410c18p-6; with its secant steps it converges, lower.
    full_residual = float.fromhex("0x1.d28041210b7bdp-6")
    best = _seed_fits("ex1-2")[0]
    assert best.stop == "converged"
    assert best.residual <= full_residual


# Stacked solves of each case's lockstep fits.
LOCKSTEP_SOLVES = {"ex1-1": 16, "ex1-2": 34, "diagonal-1": 16}


@pytest.mark.parametrize("case, most_sweeps", [("ex1-1", 8), ("ex1-2", 28), ("diagonal-1", 10)])
def test_alternating_fit_sweep_budget(monkeypatch, case, most_sweeps):
    # Every seed is fitted, duplicates included, and the fits run in
    # lockstep: each lockstep sweep makes one stacked cofactor solve (these
    # inputs have one declared degree) and one stacked divisor solve, until
    # the longest fit stops.  Without secant steps the kept ex1-1, ex1-2 and
    # diagonal-1 fits ran 60, 24 and 49 sweeps in 62, 24 and 34 stacked
    # solves, and the ex1-2 fits stopped by their rate; now every fit converges.
    solves, raw = [], []

    def counted(*args, _fn=gcdkit._stacked_lstsq):
        solves.append(1)
        return _fn(*args)

    def recorded(*args, _fn=gcdkit._alternating_fits):
        raw.extend(_fn(*args))
        return raw

    monkeypatch.setattr(gcdkit, "_stacked_lstsq", counted)
    monkeypatch.setattr(gcdkit, "_alternating_fits", recorded)
    fits = _seed_fits(case)
    assert len(solves) == 2 * max(fit[3] for fit in raw) == LOCKSTEP_SOLVES[case]
    assert sum(fit.sweeps for fit in fits) <= most_sweeps
    assert [fit.stop for fit in fits] == ["converged"] * len(fits)


def _ill_conditioned_fit(seed):
    # Targets conv(u, h) plus noise with nearly geometric cofactors u, so the
    # divisor solve is close to rank deficient and some fits end "rose".
    rng = np.random.default_rng(seed)
    m, r, count = int(rng.integers(3, 8)), 10.0 ** rng.uniform(0.5, 4), int(rng.integers(1, 4))
    h = np.concatenate([rng.normal(size=2), [1.0]])
    targets = []
    for _ in range(count):
        u = r ** np.arange(m) * (1 + 1e-3 * rng.normal(size=m))
        targets.append(np.convolve(u, h) + 10.0 ** rng.uniform(-3, 3) * rng.normal(size=m + 2))
    seeds = [np.concatenate([rng.normal(size=2) * 10.0 ** rng.uniform(-2, 2), [1.0]])
             for _ in range(4)]
    return seeds, targets, 2


def _fit_bits(fit):
    h, cofactors, residual, sweeps, stop = fit
    return h.tobytes(), [u.tobytes() for u in cofactors], float(residual).hex(), sweeps, stop


def _fit_calls(monkeypatch, inputs) -> list:
    """The (seeds, targets, deg_h) that approx_gcd_candidates hands to the
    alternating fits on the adjugate of each (input, deg_h)."""
    calls, lockstep = [], gcdkit._alternating_fits

    def recorded(seeds, targets, deg_h):
        calls.append((seeds, targets, deg_h))
        return lockstep(seeds, targets, deg_h)

    with monkeypatch.context() as patch:
        patch.setattr(gcdkit, "_alternating_fits", recorded)
        for a, deg_h in inputs:
            entries = adjoint(a).pvec()
            approx_gcd_candidates(entries, deg_h, [entries[0].declared_degree] * len(entries))
    return calls


def test_lockstep_fits_match_per_seed_fits_bitwise(monkeypatch):
    # The seeds and targets that approx_gcd_candidates hands to the fits, on
    # adjugates of 2x2 diagonal, dense n=3 and ex1 inputs, then seeded fits
    # whose near rank-deficient divisor solves end some seeds early by
    # "rose" while the others run on.  No adjugate input here stops by rose;
    # secant steps are taken, and some of their sweeps are discarded.
    inputs = [(diagonal_snf_instance(seed)[0], 1) for seed in range(30)]
    inputs += [(random_full_rank_matpoly(np.random.default_rng(seed), 3, d), deg_h)
               for d in (1, 2) for seed in range(10) for deg_h in (1, 2)]
    inputs += [(EX1, 1), (EX1, 2)]
    calls = _fit_calls(monkeypatch, inputs)
    calls += [_ill_conditioned_fit(seed) for seed in (34, 233, 391, 593)]
    stops = set()
    for seeds, targets, deg_h in calls:
        fits = gcdkit._alternating_fits(seeds, targets, deg_h)
        reference = per_seed_alternating_fits(seeds, targets, deg_h)
        assert [_fit_bits(fit) for fit in fits] == [_fit_bits(fit) for fit in reference]
        stops.update(fit[4] for fit in fits)
    assert {"converged", "rate", "rose"} <= stops


def test_lockstep_fits_with_mixed_declared_degrees_match_per_seed_fits_bitwise():
    # Targets of up to four declared degrees: each sweep solves one stack per
    # degree and gathers their cofactor blocks into target order.
    rng = np.random.default_rng(7)
    for _ in range(20):
        deg_h = int(rng.integers(1, 3))
        h = np.concatenate([rng.normal(size=deg_h), [1.0]])
        targets = [np.convolve(rng.normal(size=int(m)), h) + 1e-3 * rng.normal(size=m + deg_h)
                   for m in rng.integers(1, 5, size=int(rng.integers(2, 7)))]
        seeds = [h + 0.3 * np.append(rng.normal(size=deg_h), 0.0) for _ in range(3)]
        fits = gcdkit._alternating_fits(seeds, targets, deg_h)
        reference = per_seed_alternating_fits(seeds, targets, deg_h)
        assert [_fit_bits(fit) for fit in fits] == [_fit_bits(fit) for fit in reference]


def test_fits_with_every_secant_step_skipped_match_per_seed_fits_bitwise(monkeypatch):
    # A singular secant system or a point that is not finite skips the step,
    # and the fit goes on by plain sweeps from its last divisor.  Here every
    # step is skipped: a NaN point in the lockstep, a singular solve in the
    # reference.
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(gcdkit, "_secant_points", lambda chain: np.full(chain[:, 0].shape, np.nan))
    monkeypatch.setattr(np.linalg, "solve", singular)
    rng = np.random.default_rng(8)
    for _ in range(10):
        deg_h = int(rng.integers(1, 3))
        h = np.concatenate([rng.normal(size=deg_h), [1.0]])
        targets = [np.convolve(rng.normal(size=int(m)), h) + 1e-2 * rng.normal(size=m + deg_h)
                   for m in rng.integers(2, 6, size=int(rng.integers(2, 5)))]
        seeds = [h + 0.5 * np.append(rng.normal(size=deg_h), 0.0) for _ in range(3)]
        fits = gcdkit._alternating_fits(seeds, targets, deg_h)
        reference = per_seed_alternating_fits(seeds, targets, deg_h)
        assert [_fit_bits(fit) for fit in fits] == [_fit_bits(fit) for fit in reference]
        assert max(fit[3] for fit in fits) > deg_h + 1


def test_secant_point_is_the_fixed_point_of_an_affine_sweep():
    # For the sweep x -> x* + M (x - x*), the secant point of m + 2 iterates
    # of m coefficients is x* (Aitken's delta-squared for m = 1).  Equal steps
    # make the system singular, which gives NaN, not an error.
    rng = np.random.default_rng(5)
    for m in (1, 2):
        for _ in range(20):
            fixed = rng.normal(size=m)
            q = np.linalg.qr(rng.normal(size=(m, m)))[0]
            sweep = q @ np.diag(rng.uniform(0.3, 0.95, size=m)) @ q.T
            chain = [rng.normal(size=m)]
            for _ in range(m + 1):
                chain.append(fixed + sweep @ (chain[-1] - fixed))
            leap = gcdkit._secant_points(np.array([chain]))[0]
            assert np.allclose(leap, fixed, rtol=1e-8, atol=1e-8)
    still = np.array([[[0.0], [1.0], [2.0]], [[1.0], [0.5], [0.25]]])
    leaps = gcdkit._secant_points(still)
    assert np.isnan(leaps[0]).all() and leaps[1, 0] == 0.0


def test_secant_fits_end_no_worse_than_plain_fits(monkeypatch):
    # The fits of 2x2 diagonal, dense n=3 and n=4, and ex1 adjugates against
    # plain alternating least squares from the same seeds: fewer lockstep
    # sweeps in all, and every fit that neither run stopped by its rate rule
    # ends at or below the plain fit.  A rate stop ends a fit that is still
    # crawling, at an iterate the two runs reach by different paths, so it is
    # no common endpoint, and two of the fits stopped that way here end above.
    inputs = [(diagonal_snf_instance(seed)[0], 1) for seed in range(100)]
    inputs += [(random_full_rank_matpoly(np.random.default_rng(seed), n, d), deg_h)
               for n, copies in ((3, 20), (4, 5)) for seed in range(copies)
               for d in (1, 2) for deg_h in (1, 2)]
    inputs += [(EX1, 1), (EX1, 2)]
    lockstep = plain = compared = rate_stopped = 0
    for seeds, targets, deg_h in _fit_calls(monkeypatch, inputs):
        fits = gcdkit._alternating_fits(seeds, targets, deg_h)
        reference = plain_alternating_fits(seeds, targets, deg_h)
        lockstep += max(fit[3] for fit in fits)
        plain += max(fit[3] for fit in reference)
        for fit, ref in zip(fits, reference):
            if "rate" in (fit[4], ref[4]):
                rate_stopped += 1
                continue
            assert fit[2] <= ref[2] * (1 + 1e-9) + 1e-14, (fit[2], ref[2])
            compared += 1
    assert lockstep < plain
    assert compared > rate_stopped > 0


def test_stacked_lstsq_is_lstsq_slice_by_slice():
    # The shapes of the fits' solves: conv(h) stacks against one shared
    # multi-column right-hand side, and divisor stacks with one column per
    # slice; tall and square slices, one rank-deficient slice, and one with
    # singular values at 0.7 and 1.5 times np.linalg.lstsq's cutoff
    # eps * max(rows, cols) * s_max, so any other cutoff shows.
    rng = np.random.default_rng(11)
    for rows, cols in ((9, 3), (5, 4), (4, 4), (12, 1)):
        a = rng.normal(size=(4, rows, cols))
        a[2, :, -1] = a[2, :, 0]
        u, _, vt = np.linalg.svd(a[3], full_matrices=False)
        cutoff = np.finfo(float).eps * max(rows, cols)
        a[3] = (u * [1.0, 0.7 * cutoff, 1.5 * cutoff, 0.5][:cols]) @ vt
        for b in (rng.normal(size=(rows, 3)), rng.normal(size=(rows, 1)),
                  rng.normal(size=(4, rows, 1))):
            x = gcdkit._stacked_lstsq(a, b)
            for k in range(4):
                want = np.linalg.lstsq(a[k], b[k] if b.ndim == 3 else b, rcond=None)[0]
                assert x[k].tobytes() == want.tobytes()
            if b.ndim == 3:
                one = np.linalg.lstsq(a[0], b[0, :, 0], rcond=None)[0]
                assert x[0, :, 0].tobytes() == one.tobytes()
    bad = np.full((2, 3, 2), np.nan)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.lstsq(bad[0], np.ones((3, 1)), rcond=None)
    with pytest.raises(np.linalg.LinAlgError):
        gcdkit._stacked_lstsq(bad, np.ones((3, 1)))


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


def _rank_case(rng, case):
    """Seeded n = 2..6 input: generic, with a rank drop of two planted at a
    real point, singular (two equal rows), constant, or scaled by 1e200."""
    n, d, kind = 2 + case % 5, int(rng.integers(1, 4)), case % 5
    coeff = rng.normal(size=(n, n, 1 if kind == 3 else d + 1))
    if kind == 1:
        drop = MatPoly(np.zeros((n, n, 2)))
        drop.coeff[np.arange(n), np.arange(n), 0] = 1.0
        drop.coeff[[0, 1], [0, 1]] = [-rng.uniform(-1.0, 1.0), 1.0]
        return drop @ MatPoly(coeff)
    if kind == 2:
        coeff[1] = coeff[0]
    return MatPoly(coeff * (1e200 if kind == 4 else 1.0))


def test_batched_mccoy_rank_matches_per_eigenvalue_loop_bitwise():
    # One stacked SVD over the eigenvalues, or the generic point of a singular
    # input, against one evaluation and one SVD per point.
    rng = np.random.default_rng(30)
    seen = {"drop": 0, "singular": 0, "no eigenvalues": 0}
    for case in range(100):
        analysis = Analysis(_rank_case(rng, case))
        rank = analysis.mccoy_rank
        assert type(rank) is int and rank == per_eigenvalue_mccoy_rank(analysis)
        seen["drop"] += rank <= analysis.n - 2
        seen["singular"] += analysis.det.degree() == NEG_INF
        seen["no eigenvalues"] += analysis.eigenvalues.size == 0
    assert min(seen.values()) >= 5, seen


def test_mccoy_rank_is_one_stacked_svd(monkeypatch):
    analysis = Analysis(random_full_rank_matpoly(np.random.default_rng(8), 8, 2))
    count, shapes, svd = analysis.eigenvalues.size, [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda m, *args, **kw: shapes.append(np.shape(m)) or svd(m, *args, **kw))
    assert analysis.mccoy_rank == 7
    assert shapes == [(count, 8, 8)] and count == 16


def test_chebyshev_minima_is_the_inline_grid_scan_bitwise():
    # The shared scan against the 256-point scan _real_candidate_roots held
    # inline, on the projection scores of seeded entries and radii.
    rng = np.random.default_rng(30)
    found = 0
    for seed in range(40):
        entries = [rng.normal(size=rng.integers(2, 6)) for _ in range(rng.integers(1, 5))]
        score = _root_projection_score(entries)
        radius = gcdkit._common_root_radius(entries) * rng.uniform(0.5, 2.0)
        grid, keep = gcdkit.chebyshev_minima(score, radius, 256)
        want_grid, want_keep = grid_root_scan(score, radius)
        assert grid.tobytes() == want_grid.tobytes() and np.array_equal(keep, want_keep)
        found += keep.size
    assert found >= 40


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
