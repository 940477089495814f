"""Independent oracles used across the test suite.

Everything here recomputes expected values through routes that share no code
with the library: exact rational arithmetic, finite differences, and brute
force searches.  The exact-arithmetic and finite-difference oracles live in
polysmith.selftest, which the CLI's selftest runs too, and are re-exported.
"""

import math

import numpy as np

from polysmith.detadj import AdjugateNodes
from polysmith.gcdkit import _ALS_SWEEPS, _ALS_WINDOW
from polysmith.matpoly import MatPoly
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
    """(h, cofactors, residual, sweeps, stop) from each seed by alternating least squares,
    one seed after another with one np.linalg.lstsq call per solve: the
    reference for gcdkit._alternating_fits, whose lockstep fits must match it
    bit for bit.

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
