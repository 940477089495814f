"""Approximate GCDs of many polynomials and Smith-form triviality reporting.

The last invariant factor of a square matrix polynomial is det / gcd(Adj),
so triviality questions reduce to GCD questions about the adjoint entries,
which in turn become rank questions about generalized Sylvester matrices.
Reversal (coefficients read backwards) moves behavior at infinity to zero
and is used to recognize unattainable infima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detadj import adjoint, determinant, hadamard_gradient_bound, jacobian_adj
from .errors import DegreeTooLarge, RankDeficientInput
from .matpoly import NEG_INF, MatPoly, PerturbStructure, Poly
from .structured import conv_matrix, generalized_sylvester, numeric_rank

# Computed adjoints and determinants carry interpolation noise around 1e-16;
# trailing coefficients below this relative size are treated as zero.
TRIM_TOL = 1e-10

# Rank decisions at numerically computed eigenvalues: companion-matrix roots
# are accurate to roughly sqrt(eps) for double roots, so the spectral gate
# must sit well above that.
EIGEN_RANK_TOL = 1e-6


@dataclass
class TrivialityReport:
    """Summary of how close a matrix polynomial is to a non-trivial Smith form."""

    is_trivial: bool
    mccoy_rank: int
    gcd_adjoint_degree: int
    lower_bound: float
    unattainable: bool
    sylvester_rank: int
    sylvester_sigma: float


@dataclass
class ApproxGcdResult:
    """Monic approximate common divisor with cofactors and fit residual."""

    h: Poly
    cofactors: list
    residual: float


def rank_at_point(a: MatPoly, omega, rel_tol: float = EIGEN_RANK_TOL) -> int:
    """Rank of A(omega) with a tolerance suited to approximate eigenvalues."""
    values = a.evaluate(omega)
    s = np.linalg.svd(values, compute_uv=False)
    return int(np.count_nonzero(s > rel_tol * max(1.0, s[0] if s.size else 0.0)))


def eigenvalue_candidates(a: MatPoly) -> np.ndarray:
    """Numeric roots of det(A); empty when the determinant is near-constant."""
    det = determinant(a).trimmed(TRIM_TOL)
    if det.degree() in (NEG_INF, 0):
        return np.zeros(0, dtype=complex)
    return np.roots(det.coeffs[::-1])


# Fixed generic sample point for rank questions about singular inputs.
_GENERIC_POINT = 0.5702958749 + 0.8216998537j


def mccoy_rank(a: MatPoly) -> int:
    """Minimum rank of A(omega) over candidate eigenvalues.

    Unimodular inputs have no eigenvalues and keep rank n everywhere; for a
    singular input the rank over the rational functions (sampled at a generic
    point) is the ceiling instead.
    """
    det = determinant(a).trimmed(TRIM_TOL)
    if det.degree() == NEG_INF:
        rank = rank_at_point(a, _GENERIC_POINT)
    else:
        rank = min(a.rows, a.cols)
    for omega in eigenvalue_candidates(a):
        rank = min(rank, rank_at_point(a, omega))
    return rank


def local_invariant_structure(a: MatPoly, omega, rel_tol: float = EIGEN_RANK_TOL):
    """Partial multiplicities of the invariant factors at an eigenvalue.

    Returns (degree, multiplicity) pairs, degrees ascending and summing the
    multiplicities to n.  Kernel dimensions of the block Toeplitz matrices of
    Taylor blocks of A at omega determine how many factors carry each power
    of (t - omega).
    """
    n = a.rows
    d = a.degree_bound
    omega = complex(omega)
    taylor = []
    powers = np.array([omega**m for m in range(d + 1)])
    for j in range(d + 1):
        binom = np.array([_choose(m, j) for m in range(d + 1)])
        weights = np.zeros(d + 1, dtype=complex)
        weights[j:] = (binom[j:] * powers[: d + 1 - j])
        taylor.append(np.tensordot(a.coeff, weights, axes=([2], [0])))

    counts = []
    prev_kernel = 0
    max_power = n * max(d, 1) + 1
    for k in range(1, max_power + 1):
        t_k = np.zeros((k * n, k * n), dtype=complex)
        for i in range(k):
            for j in range(i + 1):
                block = taylor[i - j] if i - j <= d else None
                if block is not None:
                    t_k[i * n : (i + 1) * n, j * n : (j + 1) * n] = block
        s = np.linalg.svd(t_k, compute_uv=False)
        rank = int(np.count_nonzero(s > rel_tol * max(1.0, s[0])))
        kernel = k * n - rank
        count = kernel - prev_kernel
        if count <= 0:
            break
        counts.append(count)
        prev_kernel = kernel

    # counts[k-1] = number of factors with multiplicity >= k; invert.
    degrees = []
    nontrivial = counts[0] if counts else 0
    for i in range(nontrivial):
        degrees.append(sum(1 for c in counts if c >= i + 1))
    profile = [(0, n - nontrivial)] if n > nontrivial else []
    for deg in sorted(set(degrees)):
        profile.append((deg, degrees.count(deg)))
    return profile


def _choose(m: int, j: int) -> float:
    from math import comb

    return float(comb(m, j))


def _nonzero_adjoint_entries(a: MatPoly):
    entries = [p.trimmed(TRIM_TOL) for p in adjoint(a).pvec()]
    return [p for p in entries if p.degree() != NEG_INF]


def _require_full_rank(a: MatPoly):
    det = determinant(a).trimmed(TRIM_TOL)
    if det.degree() == NEG_INF:
        raise RankDeficientInput("matrix polynomial is singular over the rational functions")


def gcd_trivial_check(f, dprime) -> bool:
    """True iff the polynomials have a trivial GCD at the declared degrees."""
    pairs = [(p.trimmed(TRIM_TOL), int(dp)) for p, dp in zip(f, dprime)]
    pairs = [(p, dp) for p, dp in pairs if p.degree() != NEG_INF]
    if not pairs:
        return False
    if len(pairs) == 1:
        return pairs[0][0].degree() == 0
    syl = generalized_sylvester([p for p, _ in pairs], [dp for _, dp in pairs])
    return numeric_rank(syl) == syl.shape[1]


def reachable_entry_degrees(a: MatPoly, structure: PerturbStructure) -> np.ndarray:
    """Largest coefficient index of each entry that is nonzero or perturbable."""
    out = np.full((a.rows, a.cols), NEG_INF)
    for i in range(a.rows):
        for j in range(a.cols):
            live = np.nonzero((a.coeff[i, j] != 0.0) | structure.mask[i, j])[0]
            if live.size:
                out[i, j] = float(live[-1])
    return out


def reachable_adjoint_degrees(a: MatPoly, structure: PerturbStructure) -> np.ndarray:
    """Per-entry degree ceiling of Adj(A + dA) under the perturbation mask.

    Each adjoint entry is a minor, so its degree is bounded by the best
    permutation sum of the reachable degrees of the complementary submatrix.
    Entries that are structurally zero stay NEG_INF.
    """
    from itertools import permutations

    base = reachable_entry_degrees(a, structure)
    n = a.rows
    out = np.full((n, n), NEG_INF)
    for i in range(n):
        for j in range(n):
            rows = [r for r in range(n) if r != j]
            cols = [c for c in range(n) if c != i]
            best = NEG_INF
            for perm in permutations(range(n - 1)):
                best = max(best, sum(base[rows[k], cols[perm[k]]] for k in range(n - 1)))
            out[i, j] = best
    return out


def detect_unattainable(a: MatPoly, structure: PerturbStructure) -> bool:
    """True iff the nearest non-trivial Smith form is an infimum at infinity.

    Tests the adjoint entries at their actual degrees, at the maximal degrees
    reachable under the perturbation mask, and after reversal at those
    degrees: the infimum is unattainable exactly when padding to the
    reachable degrees kills full rank and the reversed entries share a root
    at zero.
    """
    _require_full_rank(a)
    entries = [p.trimmed(TRIM_TOL) for p in adjoint(a).pvec()]
    reach_mat = reachable_adjoint_degrees(a, structure)
    reach = [reach_mat[i, j] for j in range(a.cols) for i in range(a.rows)]
    pairs = []
    for p, r in zip(entries, reach):
        deg = p.degree()
        if r == NEG_INF and deg == NEG_INF:
            continue
        pairs.append((p, int(max(r, deg, 0))))
    nonzero = [p for p, _ in pairs if p.degree() != NEG_INF]
    if not nonzero:
        return False
    if not gcd_trivial_check(nonzero, [int(p.degree()) for p in nonzero]):
        return False
    if len(pairs) < 2 or max(dp for _, dp in pairs) == 0:
        return False
    dprime = [dp for _, dp in pairs]
    syl_padded = generalized_sylvester([p for p, _ in pairs], dprime)
    if numeric_rank(syl_padded) == syl_padded.shape[1]:
        return False
    reversed_entries = [p.reversed(dp) for p, dp in pairs]
    syl_rev = generalized_sylvester(reversed_entries, dprime)
    return numeric_rank(syl_rev) < syl_rev.shape[1]


def _sylvester_rank_sigma(a: MatPoly):
    """Rank and the rank-th singular value of the padded adjoint Sylvester matrix."""
    n, d = a.rows, a.degree_bound
    entries = _nonzero_adjoint_entries(a)
    reach = (n - 1) * d
    if reach == 0:
        # Constant matrix: triviality is a plain rank question about A(0).
        s = np.linalg.svd(a.evaluate(0.0).real, compute_uv=False)
        e = int(np.count_nonzero(s > s[0] * max(a.rows, a.cols) * 1e-12)) if s[0] else 0
        sigma = float(s[n - 2]) if n >= 2 else 0.0
        return e, sigma, reach
    if len(entries) < 2:
        return 0, 0.0, reach
    syl = generalized_sylvester(entries, [reach] * len(entries))
    e = numeric_rank(syl)
    s = np.linalg.svd(syl, compute_uv=False)
    sigma = float(s[e - 1]) if e >= 1 else 0.0
    return e, sigma, reach


def distance_lower_bound(a: MatPoly):
    """Lower bound on the distance to a non-trivial Smith form.

    Returns (bound, sigma) where sigma is the rank-th singular value of the
    generalized Sylvester matrix of the adjoint at the padded degrees.  The
    bound is zero for inputs that are already non-trivial.
    """
    _require_full_rank(a)
    n, d = a.rows, a.degree_bound
    entries = _nonzero_adjoint_entries(a)
    actual = [int(p.degree()) for p in entries] if entries else []
    if not entries or not gcd_trivial_check(entries, actual):
        return 0.0, 0.0
    e, sigma, reach = _sylvester_rank_sigma(a)
    if reach == 0:
        # Constant matrix: non-triviality means rank at most n-2, and the
        # unstructured distance to that set is the (n-1)-th singular value.
        return sigma, sigma
    if e == 0 or len(entries) < 2:
        return 0.0, float(sigma)
    gradient_scale = min(
        float(np.linalg.norm(jacobian_adj(a))), hadamard_gradient_bound(a)
    )
    if gradient_scale == 0.0:
        return 0.0, sigma
    return float(sigma / (reach * gradient_scale)), float(sigma)


def approx_gcd(f, deg_h: int, dprime) -> ApproxGcdResult:
    """Monic degree-deg_h near-common divisor by alternating least squares.

    Root candidates pooled from the entries seed the divisor; the refinement
    then alternates between solving for cofactors with the divisor fixed and
    re-fitting the divisor (leading coefficient pinned to one) with the
    cofactors fixed, until the residual stops improving.
    """
    return approx_gcd_candidates(f, deg_h, dprime)[0]


def approx_gcd_candidates(f, deg_h: int, dprime, shortlist: int = 4) -> list:
    """Alternating-fit results from the top divisor seeds, best residual first."""
    f = list(f)
    dprime = [int(x) for x in dprime]
    if deg_h < 1:
        raise DegreeTooLarge("the common divisor must have degree at least 1")
    if deg_h > min(dprime):
        raise DegreeTooLarge(f"degree {deg_h} exceeds a declared degree bound")
    trimmed = [p.trimmed(TRIM_TOL) for p in f]
    active = [i for i, p in enumerate(trimmed) if p.degree() != NEG_INF]
    if not active:
        raise RankDeficientInput("every entry vanishes after trimming; no divisor to fit")
    targets = {i: trimmed[i].padded(dprime[i]).coeffs for i in active}
    seeds = _initial_divisors(
        [trimmed[i] for i in active], deg_h, [dprime[i] for i in active], shortlist
    )
    fits = [_alternating_fit(seed, targets, active, dprime, deg_h, len(f)) for seed in seeds]
    unique = {}
    for fit in fits:
        key = tuple(np.round(fit.h.coeffs, 9))
        if key not in unique or fit.residual < unique[key].residual:
            unique[key] = fit
    return sorted(unique.values(), key=lambda fit: fit.residual)


def _alternating_fit(h, targets, active, dprime, deg_h, count) -> ApproxGcdResult:
    """Alternate cofactor and divisor least squares until the residual settles.

    Cofactors of one declared degree come from one multi-right-hand-side
    solve; a sweep that raises the residual ends at the previous fit.
    """
    groups = {}
    for i in active:
        groups.setdefault(dprime[i], []).append(i)
    groups = [(deg - deg_h, idx, np.column_stack([targets[i] for i in idx]))
              for deg, idx in groups.items()]
    rhs = np.concatenate([targets[i] for i in active])
    cofactors = [Poly.zero(max(dprime[i] - deg_h, 0)) for i in range(count)]
    residual = np.inf
    for _ in range(100):
        new_cofactors = list(cofactors)
        for deg_u, idx, group_rhs in groups:
            sol, *_ = np.linalg.lstsq(conv_matrix(h, deg_u), group_rhs, rcond=None)
            for k, i in enumerate(idx):
                new_cofactors[i] = Poly(sol[:, k])
        stacked = np.vstack([conv_matrix(new_cofactors[i], deg_h) for i in active])
        free, *_ = np.linalg.lstsq(stacked[:, :-1], rhs - stacked[:, -1], rcond=None)
        new_h = Poly(np.concatenate([free, [1.0]]))
        new_residual = _gcd_residual(targets, new_cofactors, new_h, active)
        if not (new_residual <= residual + 1e-10 * (1.0 + residual)):
            break
        converged = abs(residual - new_residual) < 1e-12
        h, cofactors, residual = new_h, new_cofactors, new_residual
        if converged:
            break
    return ApproxGcdResult(h=h, cofactors=cofactors, residual=float(residual))


def _gcd_residual(targets, cofactors, h, active) -> float:
    total = 0.0
    for i in active:
        fit = np.convolve(cofactors[i].coeffs, h.coeffs)
        diff = targets[i] - fit[: targets[i].size]
        total += float(diff @ diff)
    return float(np.sqrt(total))


def _root_projection_score(entries, points) -> np.ndarray:
    """Least-norm coefficient change making every entry vanish at each point.

    The basis norm runs over each entry's actual degree, so the score stays
    bounded away from zero for far-away points and does not drift toward
    roots at infinity.
    """
    points = np.asarray(points, dtype=complex)
    total = np.zeros(points.size)
    absz = np.abs(points)
    for p in entries:
        deg = max(int(p.degree()), 0)
        vals = np.abs(np.polynomial.polynomial.polyval(points, p.coeffs)) ** 2
        basis = np.sum(absz[None, :] ** (2 * np.arange(deg + 1)[:, None]), axis=0)
        total += vals / basis
    return total


def _common_root_radius(entries) -> float:
    """A near-common root must be a near-root of every entry."""
    bound = np.inf
    for p in entries:
        deg = int(p.degree())
        lead = abs(p.coeffs[deg])
        if deg >= 1 and lead > 0:
            bound = min(bound, 1.0 + np.max(np.abs(p.coeffs[:deg])) / lead)
    if not np.isfinite(bound):
        return 2.0
    return 1.0 + 1.5 * bound


def _real_candidate_roots(entries, radius):
    """Real-line minimizers of the projection score, refined together by golden section."""
    grid = np.sort(radius * np.cos(np.pi * (np.arange(256) + 0.5) / 256))
    vals = _root_projection_score(entries, grid)
    keep = np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    if keep.size == 0:
        return []
    lo, hi = grid[keep - 1], grid[keep + 1]
    for _ in range(60):
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        scores = _root_projection_score(entries, np.concatenate([m1, m2]))
        left = scores[: keep.size] < scores[keep.size :]
        lo, hi = np.where(left, lo, m1), np.where(left, m2, hi)
    return list(0.5 * (lo + hi))


def _initial_divisors(entries, deg_h: int, dprime, shortlist: int = 4) -> list:
    """Monic seed divisors from the best-scoring conjugate-closed root sets.

    Candidates pool the roots of the individual entries with real-line
    minimizers of the projection score, filtered to the radius where a
    near-common root can exist.  The top few seeds are all returned; the
    alternating fit downstream keeps whichever refines best.
    """
    radius = _common_root_radius(entries)
    candidates = []
    for p in entries:
        deg = p.degree()
        if deg == NEG_INF or deg == 0:
            continue
        candidates.extend(np.roots(p.trimmed().coeffs[::-1]))
    candidates = [z for z in candidates if abs(z) <= radius] or candidates
    candidates.extend(_real_candidate_roots(entries, radius))
    if not candidates:
        return [Poly(np.eye(deg_h + 1)[-1])]  # t**deg_h
    candidates = np.asarray(candidates, dtype=complex)
    scores = _root_projection_score(entries, candidates)

    def real_like(z):
        return abs(z.imag) <= 1e-8 * (1.0 + abs(z.real))

    if deg_h == 1:
        real_idx = [i for i in range(candidates.size) if real_like(candidates[i])]
        pool = real_idx if real_idx else list(range(candidates.size))
        pool.sort(key=lambda i: scores[i])
        return [Poly([-candidates[i].real, 1.0]) for i in pool[:shortlist]]

    if deg_h == 2:
        # A real polynomial vanishing at z also vanishes at conj(z), so a
        # conjugate pair costs one projection while two real roots cost two.
        scored_pairs = []
        for i, z in enumerate(candidates):
            if not real_like(z):
                scored_pairs.append((float(scores[i]), (z, np.conj(z))))
        reals = sorted(
            (i for i in range(candidates.size) if real_like(candidates[i])),
            key=lambda i: scores[i],
        )
        for a in range(min(len(reals), 3)):
            for b in range(a, min(len(reals), 3)):
                i, j = reals[a], reals[b]
                scored_pairs.append(
                    (float(scores[i] + scores[j]), (candidates[i].real, candidates[j].real))
                )
        if not scored_pairs:
            z = candidates[int(np.argmin(scores))]
            scored_pairs.append((float(scores[int(np.argmin(scores))]), (z, np.conj(z))))
        scored_pairs.sort(key=lambda item: item[0])
        seeds = []
        for _, (r1, r2) in scored_pairs[:shortlist]:
            seeds.append(Poly([float((r1 * r2).real), float(-(r1 + r2).real), 1.0]))
        return seeds

    order = np.argsort(scores)
    roots, used = [], np.zeros(candidates.size, dtype=bool)
    for i in order:
        if used[i] or len(roots) + (1 if real_like(candidates[i]) else 2) > deg_h:
            continue
        if real_like(candidates[i]):
            roots.append(candidates[i].real)
        else:
            roots.extend([candidates[i], np.conj(candidates[i])])
        used[i] = True
        if len(roots) == deg_h:
            break
    while len(roots) < deg_h:
        roots.append(0.0)
    return [Poly(np.polynomial.polynomial.polyfromroots(roots).real)]


def triviality_report(a: MatPoly, structure: PerturbStructure) -> TrivialityReport:
    """Aggregate triviality, McCoy rank, bound, and unattainability checks."""
    n = a.rows
    if n == 1:
        # A 1x1 matrix has a single invariant factor and is always trivial.
        rank = mccoy_rank(a)
        return TrivialityReport(
            is_trivial=True,
            mccoy_rank=rank,
            gcd_adjoint_degree=0,
            lower_bound=0.0,
            unattainable=False,
            sylvester_rank=rank,
            sylvester_sigma=0.0,
        )
    entries = _nonzero_adjoint_entries(a)
    if not entries:
        gcd_degree = 0
    elif len(entries) == 1:
        gcd_degree = int(entries[0].degree())
    else:
        actual = [int(p.degree()) for p in entries]
        syl = generalized_sylvester(entries, actual)
        gcd_degree = syl.shape[1] - numeric_rank(syl)
    rank = mccoy_rank(a)
    trivial = gcd_degree == 0 and rank >= n - 1 and bool(entries)
    unattainable = detect_unattainable(a, structure) if trivial else False
    e, sigma, _ = _sylvester_rank_sigma(a) if entries else (0, 0.0, 0)
    if trivial and not unattainable:
        bound, sigma_used = distance_lower_bound(a)
        sigma = sigma_used if sigma_used else sigma
    else:
        bound = 0.0
    return TrivialityReport(
        is_trivial=trivial,
        mccoy_rank=rank,
        gcd_adjoint_degree=gcd_degree,
        lower_bound=float(bound),
        unattainable=unattainable,
        sylvester_rank=int(e),
        sylvester_sigma=float(sigma),
    )
