"""Independent oracles used across the test suite.

Everything here recomputes expected values through routes that share no code
with the library: exact rational arithmetic, finite differences, and brute
force searches.  The exact-arithmetic and finite-difference oracles live in
polysmith.selftest, which the CLI's selftest runs too, and are re-exported.
"""

import math
from functools import cached_property

import numpy as np

from polysmith.detadj import AdjugateNodes, adjoint, determinant
from polysmith.errors import DegreeBoundViolation, RankDeficientInput
from polysmith.gcdkit import _ALS_SWEEPS, _ALS_WINDOW, _GENERIC_POINT, EIGEN_RANK_TOL, TRIM_TOL
from polysmith.matpoly import NEG_INF, MatPoly
from polysmith.snf_opt import _divisor_roots
from polysmith.structured import conv_matrices, numeric_rank
from polysmith.selftest import (  # noqa: F401
    exact_determinant,
    exact_gcd_degree,
    fd_columns,
    frac_poly_mul,
    frac_trim,
    random_integer_matpoly,
)


def random_full_rank_matpoly(rng, n, d, scale=1.0):
    """Dense Gaussian matrix polynomial, resampled until clearly full rank."""
    while True:
        a = MatPoly(scale * rng.normal(size=(n, n, d + 1)))
        dets = [np.linalg.det(a.evaluate(z)) for z in (0.31, -0.77, 1.23j)]
        if max(abs(v) for v in dets) > 1e-6:
            return a


def golden_minimize(fn, lo, hi, iters=120):
    for _ in range(iters):
        m1 = lo + 0.381966011 * (hi - lo)
        m2 = hi - 0.381966011 * (hi - lo)
        if fn(m1) < fn(m2):
            hi = m2
        else:
            lo = m1
    mid = 0.5 * (lo + hi)
    return mid, fn(mid)


def grid_then_golden(fn, lo, hi, samples=4001):
    grid = np.linspace(lo, hi, samples)
    vals = np.array([fn(x) for x in grid])
    i = int(np.argmin(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, samples - 1)]
    return golden_minimize(fn, a, b)


def grid_root_scan(score, radius):
    """The sorted 256-point Chebyshev grid on [-radius, radius] and the indices
    of its interior local minima of score, scanned inline: the reference for
    gcdkit.chebyshev_minima as _real_candidate_roots calls it."""
    grid = np.sort(radius * np.cos(np.pi * (np.arange(256) + 0.5) / 256))
    vals = score(grid)
    keep = np.nonzero((vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:]))[0] + 1
    return grid, keep


def det_grid_minima(analysis):
    """Local minima of |det| on the 512-point Chebyshev grid of radius
    1 + max|A|, as complex values, scanned inline: the reference for
    mccoy_opt._grid_extrema."""
    det = analysis.det
    if det.degree() in (NEG_INF, 0):
        return []
    radius = 1.0 + float(np.max(np.abs(analysis.a.coeff)))
    grid = radius * np.cos(np.pi * (np.arange(512) + 0.5) / 512)
    grid = np.sort(grid)
    vals = np.abs(det(grid))
    inner = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
    return [complex(x) for x in grid[1:-1][inner]]


def golden_section_roots(score, radius):
    """Real-line minimizers of the projection score, each local minimum of the
    256-point Chebyshev grid refined by 60 golden-section steps on its two
    grid cells: the reference for gcdkit._real_candidate_roots, whose zoom
    rounds must find as many roots, each scoring no worse."""
    grid, keep = grid_root_scan(score, radius)
    if keep.size == 0:
        return []
    lo, hi = grid[keep - 1], grid[keep + 1]
    for _ in range(60):
        m1 = lo + 0.381966 * (hi - lo)
        m2 = hi - 0.381966 * (hi - lo)
        scores = score(np.concatenate([m1, m2]))
        left = scores[: keep.size] < scores[keep.size :]
        lo, hi = np.where(left, lo, m1), np.where(left, m2, hi)
    return list(0.5 * (lo + hi))


def diagonal_snf_instance(seed):
    """Seeded 2x2 diagonal instance with an interior nearest-common-root."""
    rng = np.random.default_rng(100 + seed)
    r1, r2 = rng.uniform(-1.5, 1.5, 2)
    f = np.polynomial.polynomial.polyfromroots([r1, r2]) * rng.uniform(0.5, 1.5)
    r3, r4 = r1 + rng.uniform(-0.5, 0.5), rng.uniform(-1.5, 1.5)
    g = np.polynomial.polynomial.polyfromroots([r3, r4]) * rng.uniform(0.5, 1.5)
    mat = MatPoly.from_entries([[list(f), [0, 0, 0]], [[0, 0, 0], list(g)]])
    return mat, f, g


def diagonal_projection_distance(f, g):
    """Smallest coefficient change giving the two quadratics a common real root."""

    def cost(r):
        fr = np.polynomial.polynomial.polyval(r, f)
        gr = np.polynomial.polynomial.polyval(r, g)
        return (fr**2 + gr**2) / (1.0 + r**2 + r**4)

    _, val = grid_then_golden(cost, -4.0, 4.0, 8001)
    return float(np.sqrt(val))


def mccoy_rank2_instance(seed):
    """Seeded 2x2 instance with a planted near rank-drop-2 point."""
    rng = np.random.default_rng(300 + seed)
    omega = rng.uniform(-1.2, 1.2)
    base = rng.normal(size=(2, 2))
    d = 1
    coeff = np.zeros((2, 2, d + 1))
    # (t - omega) * base plus a small generic perturbation
    coeff[:, :, 0] = -omega * base
    coeff[:, :, 1] = base
    coeff += 0.05 * rng.normal(size=coeff.shape)
    return MatPoly(coeff)


def mccoy_all_entries_distance(a):
    """Brute-force distance for a full rank drop of a 2x2 at a real point."""
    d = a.degree_bound

    def cost(w):
        num = 0.0
        for i in range(a.rows):
            for j in range(a.cols):
                num += abs(np.polynomial.polynomial.polyval(w, a.coeff[i, j])) ** 2
        return num / sum(w ** (2 * k) for k in range(d + 1))

    _, val = grid_then_golden(cost, -5.0, 5.0, 20001)
    return float(np.sqrt(val))


def conv_matrix_loop(c, width):
    """Convolution matrix of the vector c on width columns, column j holding
    c shifted down by j, written one column at a time: the reference for
    structured.conv_matrices."""
    c = np.asarray(c)
    out = np.zeros((c.size + width - 1, width), dtype=c.dtype)
    for j in range(width):
        out[j : j + c.size, j] = c
    return out


def snf_kkt_hessian_block(ws, z):
    """Bordered SNF Hessian with J built from np.kron and stacked
    conv_matrix_loop blocks, assembled by np.block and symmetrized whole: the
    reference for the band-scatter assembly, which must match it bit for
    bit.  It reads the workspace's adjugate kernel, its live adjugate entries
    and its parameter indices: the kron and conv blocks run over the live
    entries, and the curvature takes lam scattered back to all n^2 entries,
    zero elsewhere."""
    p, f_vec, h, lam = ws.unpack(z)
    system = AdjugateNodes(ws.perturbed(p))
    n_live = len(ws.live)
    j = np.zeros((ws.n_c, ws.n_x))
    j[:-1, ws.sl_p] = ws.adjoint_jacobian(system)
    j[:-1, ws.sl_f] = -np.kron(np.eye(n_live), conv_matrix_loop(h, ws.deg_f + 1))
    blocks = f_vec.reshape(n_live, ws.deg_f + 1)
    j[:-1, ws.sl_h] = -np.vstack([conv_matrix_loop(b, ws.n_h) for b in blocks])
    j[-1, ws.n_x - 1] = 1.0

    h_xx = np.zeros((ws.n_x, ws.n_x))
    lam_blocks = lam[:-1].reshape(n_live, ws.dadj + 1)
    lam_full = np.zeros((ws.n * ws.n, ws.dadj + 1))
    for k, e in enumerate(ws.live):
        lam_full[e] = lam_blocks[k]
    curvature = system.curvature(lam_full.ravel())
    h_xx[ws.sl_p, ws.sl_p] = 2.0 * np.eye(ws.m_p) + curvature[np.ix_(ws.param_idx, ws.param_idx)]
    windows = np.lib.stride_tricks.sliding_window_view(lam_blocks, ws.n_h, axis=1)
    cross = -windows.reshape(ws.n_f, ws.n_h)
    h_xx[ws.sl_f, ws.sl_h] = cross
    h_xx[ws.sl_h, ws.sl_f] = cross.T
    full = np.block([[h_xx, j.T], [j, np.zeros((ws.n_c, ws.n_c))]])
    return 0.5 * (full + full.T)


def scalar_evaluate(a, z):
    """A(z) at one point, polyval at complex(z) on the coefficient array: the
    reference for MatPoly.evaluate, whose batches must stack it bit for bit."""
    return np.polynomial.polynomial.polyval(complex(z), a.coeff.transpose(2, 0, 1))


def per_candidate_mccoy_omega(a, r, analysis) -> complex:
    """The McCoy seed's omega from one scalar_evaluate and one SVD per
    candidate (the det roots, then det_grid_minima): candidates where A
    overflows are skipped, the first strictly least sigma_{n-r} wins, and
    omega is 0 when no candidate is finite.  The reference for
    mccoy_opt.initial_guess_mccoy, whose omega must match it bit for bit."""
    omega, best = 0j, np.inf
    for cand in list(analysis.eigenvalues) + det_grid_minima(analysis):
        values = scalar_evaluate(a, cand)
        if not np.all(np.isfinite(values)):
            continue
        score = np.linalg.svd(values, compute_uv=False)[a.rows - r]
        if score < best:
            omega, best = complex(cand), score
    return omega


def per_eigenvalue_mccoy_rank(analysis) -> int:
    """gcdkit.Analysis.mccoy_rank from one scalar_evaluate and one SVD per
    eigenvalue, or at the generic point for a singular input, each ranked by
    the EIGEN_RANK_TOL rule: the reference for its one stacked SVD."""
    def rank(omega):
        s = np.linalg.svd(scalar_evaluate(analysis.norm, omega), compute_uv=False)
        return int(np.count_nonzero(s > EIGEN_RANK_TOL * max(1.0, s[0])))

    singular = analysis.det.degree() == NEG_INF
    best = rank(_GENERIC_POINT) if singular else analysis.n
    for omega in analysis.eigenvalues:
        best = min(best, rank(omega))
    return best


def per_root_divisor_root(h, a_solved):
    """snf_opt._divisor_root with one scalar_evaluate and one SVD per real
    root: the reference for its one stacked SVD, which must match it bit for
    bit."""
    roots = _divisor_roots(h)
    if roots.size == 0:
        return complex(0.0)
    complex_roots = roots[np.abs(roots.imag) > 1e-10]
    if complex_roots.size:
        return complex_roots[np.argmax(complex_roots.imag)]
    scores = [np.linalg.svd(scalar_evaluate(a_solved, r.real), compute_uv=False)[-2]
              for r in roots]
    return complex(roots[int(np.argmin(scores))].real)


def per_root_rank_drop_score(ws, fit) -> float:
    """First-order distance to rank n-2 at the divisor roots of one fit (min
    over roots), with one scalar_evaluate and one SVD per root: the reference
    for snf_opt._rank_drop_scores, which must match it bit for bit."""
    h = fit.h.trimmed(1e-12)
    if h.degree() < 1:
        return np.inf
    best = np.inf
    for root in np.roots(h.coeffs[::-1]):
        s = np.linalg.svd(scalar_evaluate(ws.a, root), compute_uv=False)
        powers = np.abs(root) ** (2 * np.arange(ws.d + 1))
        weight = np.sqrt(np.max(ws.structure.mask @ powers))
        if weight > 0:
            best = min(best, float(np.hypot(s[-2], s[-1]) / weight))
    return best


def from_entries_per_entry(entries, degree_bound=None) -> np.ndarray:
    """Coefficient array of a grid of coefficient lists (or Poly values),
    each entry converted by np.atleast_1d and copied in on its own: the
    reference for MatPoly.from_entries, whose array must equal it."""
    grids = [[np.atleast_1d(np.asarray(getattr(e, "coeffs", e), dtype=float)) for e in row]
             for row in entries]
    if degree_bound is None:
        degree_bound = max(g.size for row in grids for g in row) - 1
    arr = np.zeros((len(grids), len(grids[0]), degree_bound + 1))
    for i, row in enumerate(grids):
        for j, g in enumerate(row):
            arr[i, j, : g.size] = g
    return arr


def perturb_delta_via_vec(structure, params):
    """delta(p) scattered into vec(.) and unstacked: the reference for
    PerturbStructure.delta."""
    rows, cols, width = structure.mask.shape
    v = np.zeros(rows * cols * width)
    v[structure.param_indices()] = params
    return MatPoly.unvec(v, rows, cols, width - 1)


def perturb_apply_via_delta(structure, a, params):
    """A + delta(p) through a whole perturbation MatPoly: the reference for
    PerturbStructure.apply's slot scatter."""
    delta = perturb_delta_via_vec(structure, params)
    out = a.coeff.copy()
    out[structure.mask] += delta.coeff[structure.mask]
    return MatPoly(out)


def per_seed_alternating_fits(seeds, targets, deg_h: int) -> list:
    """(h, cofactors, residual, sweeps, stop) from each monic seed by alternating
    least squares with a secant step every deg_h + 1 accepted sweeps, one seed
    after another with one np.linalg.lstsq call per solve and one
    np.linalg.solve per secant step: the reference for
    gcdkit._alternating_fits, whose lockstep fits must match it bit for bit.

    Cofactors of one declared degree come from one multi-right-hand-side
    solve, and the monic divisor from one solve against the stacked cofactor
    convolution matrices; both matrices are written by scatters with fixed
    indices.  The residual is rhs - stacked @ h.  The free coefficients of
    the divisors since the last restart x_0, x_1, ... (x_0 the seed) give,
    once deg_h + 2 are in, the point x_last + sum_i alpha_i (x_{i+1} -
    x_last) with sum_i alpha_i (u_i - u_last) = -u_last, u_i = x_{i+1} - x_i;
    the next sweep starts there, and the list restarts at it.  A sweep from
    it that raises the residual is dropped and the fit goes on from its last
    divisor; any other sweep that raises the residual ends the fit at the
    previous one.  A singular system or a point that is not finite restarts
    the list at the last divisor.  The rate rule reads the gains of the
    sweeps that did not start from such a point, from the second sweep on.
    """
    counts = np.array([t.size - deg_h for t in targets])  # coefficients per cofactor
    ends = np.cumsum(counts)
    bounds = list(zip((ends - counts).tolist(), ends.tolist()))
    solves = []
    for count in dict.fromkeys(counts.tolist()):
        members = np.flatnonzero(counts == count)
        shift = np.arange(count)[:, None]
        solves.append((np.zeros((count + deg_h, count)), shift + np.arange(deg_h + 1), shift,
                       np.column_stack([targets[k] for k in members]),
                       (ends - counts)[members][:, None] + shift.T))
    rhs = np.concatenate(targets)
    stacked = np.zeros((rhs.size, deg_h + 1))
    # Coefficient t of cofactor k multiplies h_j in row k*deg_h + (its flat index) + j.
    cols = np.arange(deg_h + 1)[:, None]
    rows = np.repeat(deg_h * np.arange(counts.size), counts) + np.arange(ends[-1]) + cols
    fits = []
    for h in seeds:
        cofactors, residual, gains, stop = np.zeros(ends[-1]), np.inf, [], "cap"
        start, chain, leaped = h, [h[:-1]], False
        for sweep in range(1, _ALS_SWEEPS + 1):
            new_cofactors = np.empty(ends[-1])
            for matrix, conv_rows, conv_cols, group_rhs, where in solves:
                matrix[conv_rows, conv_cols] = start
                new_cofactors[where] = np.linalg.lstsq(matrix, group_rhs, rcond=None)[0].T
            stacked[rows, cols] = new_cofactors
            free = np.linalg.lstsq(stacked[:, :-1], rhs - stacked[:, -1], rcond=None)[0]
            new_h = np.concatenate([free, [1.0]])
            diff = rhs - stacked @ new_h
            new_residual = math.sqrt(np.einsum("i,i->", diff, diff))
            lowered = new_residual <= residual + 1e-10 * (1.0 + residual)
            if leaped and not lowered:
                start, chain, leaped = h, [h[:-1]], False
                continue
            if not lowered:
                stop = "rose"
                break
            gain = abs(residual - new_residual)
            h = start = new_h
            cofactors, residual = new_cofactors, new_residual
            chain.append(free)
            if gain < 1e-12:
                stop = "converged"
                break
            if not leaped:
                if math.isfinite(gain):
                    gains.append(gain)
                left = _ALS_SWEEPS - sweep
                if len(gains) > _ALS_WINDOW and left > 0:
                    rate = (gain / gains[-1 - _ALS_WINDOW]) ** (1.0 / _ALS_WINDOW)
                    if gain * rate**left >= 1e-12:
                        stop = "rate"
                        break
            leaped = False
            if len(chain) == deg_h + 2:
                x = np.array(chain)
                u = np.diff(x, axis=0)
                try:
                    alpha = np.linalg.solve((u[:-1] - u[-1]).T, -u[-1])
                except np.linalg.LinAlgError:
                    alpha = np.full(deg_h, np.nan)
                with np.errstate(invalid="ignore", over="ignore"):
                    leap = x[-1] + (alpha[:, None] * (x[1:-1] - x[-1])).sum(axis=0)
                if np.isfinite(leap).all():
                    start, leaped = np.concatenate([leap, [1.0]]), True
                chain = [start[:-1]]
        fits.append((h, [cofactors[lo:hi] for lo, hi in bounds], residual, sweep, stop))
    return fits


def plain_alternating_fits(seeds, targets, deg_h: int) -> list:
    """(h, cofactors, residual, sweeps, stop) from each seed by plain alternating
    least squares, one seed after another with one np.linalg.lstsq call per
    solve and no secant step: the fit that gcdkit._alternating_fits
    accelerates, whose fits end at or below this one's where neither stops by
    its rate rule.

    Cofactors of one declared degree come from one multi-right-hand-side
    solve, and the monic divisor from one solve against the stacked cofactor
    convolution matrices; both matrices are written by scatters with fixed
    indices.  A sweep that raises the residual ends at the previous fit.  The
    rate rule reads the gains from the second sweep on; the first one's,
    from an infinite residual, is not kept.
    """
    counts = np.array([t.size - deg_h for t in targets])  # coefficients per cofactor
    ends = np.cumsum(counts)
    bounds = list(zip((ends - counts).tolist(), ends.tolist()))
    solves = []
    for count in dict.fromkeys(counts.tolist()):
        members = np.flatnonzero(counts == count)
        shift = np.arange(count)[:, None]
        solves.append((np.zeros((count + deg_h, count)), shift + np.arange(deg_h + 1), shift,
                       np.column_stack([targets[k] for k in members]),
                       (ends - counts)[members][:, None] + shift.T))
    rhs = np.concatenate(targets)
    stacked = np.zeros((rhs.size, deg_h + 1))
    # Coefficient t of cofactor k multiplies h_j in row k*deg_h + (its flat index) + j.
    cols = np.arange(deg_h + 1)[:, None]
    rows = np.repeat(deg_h * np.arange(counts.size), counts) + np.arange(ends[-1]) + cols
    fits = []
    for h in seeds:
        cofactors, residual, gains, stop = np.zeros(ends[-1]), np.inf, [], "cap"
        for sweep in range(1, _ALS_SWEEPS + 1):
            new_cofactors = np.empty(ends[-1])
            for matrix, conv_rows, conv_cols, group_rhs, where in solves:
                matrix[conv_rows, conv_cols] = h
                new_cofactors[where] = np.linalg.lstsq(matrix, group_rhs, rcond=None)[0].T
            stacked[rows, cols] = new_cofactors
            free = np.linalg.lstsq(stacked[:, :-1], rhs - stacked[:, -1], rcond=None)[0]
            new_h = np.concatenate([free, [1.0]])
            total = 0.0
            for target, (lo, hi) in zip(targets, bounds):
                diff = target - np.convolve(new_cofactors[lo:hi], new_h)
                total += float(diff @ diff)
            new_residual = math.sqrt(total)
            if not (new_residual <= residual + 1e-10 * (1.0 + residual)):
                stop = "rose"
                break
            gain = abs(residual - new_residual)
            h, cofactors, residual = new_h, new_cofactors, new_residual
            if gain < 1e-12:
                stop = "converged"
                break
            if math.isfinite(gain):
                gains.append(gain)
            left = _ALS_SWEEPS - sweep
            if len(gains) > _ALS_WINDOW and left > 0:
                rate = (gain / gains[-1 - _ALS_WINDOW]) ** (1.0 / _ALS_WINDOW)
                if gain * rate**left >= 1e-12:
                    stop = "rate"
                    break
        fits.append((h, [cofactors[lo:hi] for lo, hi in bounds], residual, sweep, stop))
    return fits


def reachable_entry_degrees_loop(a, structure):
    """Largest coefficient index of each entry that is nonzero or perturbable,
    one entry at a time: the reference for gcdkit.reachable_entry_degrees."""
    out = np.full((a.rows, a.cols), NEG_INF)
    for i in range(a.rows):
        for j in range(a.cols):
            live = np.nonzero((a.coeff[i, j] != 0.0) | structure.mask[i, j])[0]
            if live.size:
                out[i, j] = float(live[-1])
    return out


def per_entry_sylvester(f, dprime):
    """Generalized Sylvester matrix of a list of Poly values, built from each
    Poly's padded coefficients: the reference for
    structured.generalized_sylvester on coefficient rows."""
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


class PerEntryAnalysis:
    """gcd_degree, padded and unattainable of gcdkit.Analysis computed on one
    trimmed Poly per adjugate entry (Poly.trimmed, Poly.degree, Poly.padded,
    Poly.reversed): the reference for Analysis's coefficient table, which must
    build the same Sylvester matrices bit for bit.  Every matrix built is
    appended to self.matrices, in call order."""

    def __init__(self, a):
        self.a = a
        self.n = a.rows
        self.k = int(np.frexp(np.max(np.abs(a.coeff)))[1])
        self.norm = MatPoly(np.ldexp(a.coeff, -self.k))
        self.matrices = []

    @cached_property
    def entries(self):
        return [p.trimmed(TRIM_TOL) for p in adjoint(self.norm).pvec()]

    @cached_property
    def nonzero(self):
        return [p for p in self.entries if p.degree() != NEG_INF]

    def sylvester(self, f, dprime):
        self.matrices.append(per_entry_sylvester(f, dprime))
        return self.matrices[-1]

    @cached_property
    def gcd_degree(self):
        f = self.nonzero
        if len(f) < 2:
            return int(f[0].degree()) if f else 0
        syl = self.sylvester(f, [int(p.degree()) for p in f])
        return syl.shape[1] - numeric_rank(syl)

    def padded(self):
        n, reach = self.n, (self.n - 1) * self.a.degree_bound
        if reach == 0:
            s = np.linalg.svd(self.norm.evaluate(0.0).real, compute_uv=False)
            e = int(np.count_nonzero(s > s[0] * n * 1e-12)) if s[0] else 0
            return e, float(s[n - 2]) if n >= 2 else 0.0
        if len(self.nonzero) < 2:
            return 0, 0.0
        syl = self.sylvester(self.nonzero, [reach] * len(self.nonzero))
        s = np.linalg.svd(syl, compute_uv=False)
        e = int(np.count_nonzero(s > s[0] * max(syl.shape) * 1e-12)) if s[0] else 0
        return e, float(s[e - 1]) if e else 0.0

    def unattainable(self, reach):
        """reach is reachable_adjoint_degrees of the input and the mask."""
        if determinant(self.norm).trimmed(TRIM_TOL).degree() == NEG_INF:
            raise RankDeficientInput("matrix polynomial is singular over the rational functions")
        if not (self.nonzero and self.gcd_degree == 0):
            return False
        pairs = [(p, int(max(r, p.degree(), 0))) for p, r in zip(self.entries, reach.T.ravel())
                 if not (r == NEG_INF and p.degree() == NEG_INF)]
        if len(pairs) < 2 or max(dp for _, dp in pairs) == 0:
            return False
        dprime = [dp for _, dp in pairs]
        syl = self.sylvester([p for p, _ in pairs], dprime)
        if numeric_rank(syl) == syl.shape[1]:
            return False
        syl = self.sylvester([p.reversed(dp) for p, dp in pairs], dprime)
        return numeric_rank(syl) < syl.shape[1]
