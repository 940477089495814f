"""Independent oracles used across the test suite.

Everything here recomputes expected values through routes that share no code
with the library: exact rational arithmetic, finite differences, and brute
force searches.  The exact-arithmetic and finite-difference oracles live in
polysmith.selftest, which the CLI's selftest runs too, and are re-exported.
"""

import numpy as np

from polysmith.detadj import AdjugateNodes
from polysmith.matpoly import MatPoly, Poly
from polysmith.selftest import (  # noqa: F401
    exact_determinant,
    exact_gcd_degree,
    fd_columns,
    frac_poly_mul,
    frac_trim,
    random_integer_matpoly,
)
from polysmith.structured import conv_matrix


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


def mccoy_param_cells(ws, omega):
    """(pencil row, pencil column, weight, omega derivative) of each McCoy
    parameter, one at a time from the mask: a unit perturbation of
    coefficient k < d of entry (i, j) sits in the last block row of F, the
    leading one in E, where M = E omega - F weighs it by omega."""
    n, d = ws.n, ws.d
    base = (d - 1) * n
    out = []
    for idx in ws.structure.param_indices():
        entry, coef = divmod(int(idx), d + 1)
        j, i = divmod(entry, n)
        if coef < d:
            out.append((base + i, coef * n + j, 1.0 + 0.0j, 0.0))
        else:
            out.append((base + i, base + j, complex(omega), 1.0))
    return out


def mccoy_constraint_jacobian_loop(ws, m, dm, bc, omega):
    """Constraint Jacobian of a McCoy workspace, assembled in Python loops over
    the parameters and the Gram pairs (a, b): the reference for the scatter
    assembly, which must match it bit for bit.  It reads the workspace's
    slices and mask; the parameter cells come from mccoy_param_cells."""
    size, r, nr = ws.size, ws.r, ws.nr
    j = np.zeros((ws.n_c, ws.n_x))
    cols = np.arange(r)
    for k, (row, col, w, _) in enumerate(mccoy_param_cells(ws, omega)):
        contrib = w * bc[col, :]
        j[row * r + cols, k] = contrib.real
        j[nr + row * r + cols, k] = contrib.imag
    dmb = dm @ bc
    j[:nr, ws.sl_w.start] = dmb.real.ravel()
    j[nr : 2 * nr, ws.sl_w.start] = dmb.imag.ravel()
    j[:nr, ws.sl_w.start + 1] = -dmb.imag.ravel()
    j[nr : 2 * nr, ws.sl_w.start + 1] = dmb.real.ravel()
    eye_r = np.eye(r)
    j[:nr, ws.sl_br] = np.kron(m.real, eye_r)
    j[:nr, ws.sl_bi] = -np.kron(m.imag, eye_r)
    j[nr : 2 * nr, ws.sl_br] = np.kron(m.imag, eye_r)
    j[nr : 2 * nr, ws.sl_bi] = np.kron(m.real, eye_r)

    br, bi = bc.real, bc.imag
    off3 = 2 * nr
    off4 = 2 * nr + r * r
    unit = np.arange(size) * r
    for a in range(r):
        for b in range(r):
            row3 = off3 + a * r + b
            row4 = off4 + a * r + b
            j[row3, ws.sl_br.start + unit + a] += br[:, b]
            j[row3, ws.sl_br.start + unit + b] += br[:, a]
            j[row3, ws.sl_bi.start + unit + a] += bi[:, b]
            j[row3, ws.sl_bi.start + unit + b] += bi[:, a]
            j[row4, ws.sl_br.start + unit + a] += bi[:, b]
            j[row4, ws.sl_br.start + unit + b] -= bi[:, a]
            j[row4, ws.sl_bi.start + unit + b] += br[:, a]
            j[row4, ws.sl_bi.start + unit + a] -= br[:, b]
    return j


def mccoy_hessian_loop(ws, z):
    """Bordered McCoy Hessian assembled with a Python loop over the parameters,
    np.kron block diagonals and np.block: the reference for the scatter
    assembly, which must match it bit for bit.  It reads the workspace's
    linearization, slices and mask; the parameter cells come from
    mccoy_param_cells."""
    lin = ws.linearization_at(z)
    omega, bc, lam, dm, jac = lin.omega, lin.bc, lin.lam, lin.dm, lin.jac
    size, r, nr = ws.size, ws.r, ws.nr
    wc = (lam[:nr] - 1j * lam[nr : 2 * nr]).reshape(size, r)
    q1, q2 = lam[2 * nr :].reshape(2, r, r)
    br0, bi0, w0 = ws.sl_br.start, ws.sl_bi.start, ws.sl_w.start
    h_xx = np.zeros((ws.n_x, ws.n_x))
    cols = np.arange(r)
    for k, (row, col, w, dw) in enumerate(mccoy_param_cells(ws, omega)):
        h_xx[k, br0 + col * r + cols] = (w * wc[row]).real
        h_xx[k, bi0 + col * r + cols] = -(w * wc[row]).imag
        s = dw * (wc[row] @ bc[col])
        h_xx[k, w0 : w0 + 2] = s.real, -s.imag
    t = (dm.T @ wc).ravel()
    h_xx[w0, ws.sl_br], h_xx[w0, ws.sl_bi] = t.real, -t.imag
    h_xx[w0 + 1, ws.sl_br], h_xx[w0 + 1, ws.sl_bi] = -t.imag, -t.real
    h_xx[ws.sl_br, ws.sl_bi] = np.kron(np.eye(size), q2 - q2.T)
    h_xx += h_xx.T
    h_xx[ws.sl_p, ws.sl_p] = 2.0 * np.eye(ws.m_p)
    h_xx[ws.sl_br, ws.sl_br] = h_xx[ws.sl_bi, ws.sl_bi] = np.kron(np.eye(size), q1 + q1.T)
    return np.block([[h_xx, jac.T], [jac, np.zeros((ws.n_c, ws.n_c))]])


def snf_kkt_hessian_block(ws, z):
    """Bordered SNF Hessian with J built from np.kron and stacked conv_matrix
    blocks, assembled by np.block and symmetrized whole: the reference for
    the band-scatter assembly, which must match it bit for bit.  It reads the
    workspace's adjugate kernel and parameter indices."""
    p, f_vec, h, lam = ws.unpack(z)
    system = AdjugateNodes(ws.perturbed(p))
    lam_c = lam[:-1]
    j = np.zeros((ws.n_c, ws.n_x))
    j[:-1, ws.sl_p] = ws.adjoint_jacobian(system)
    j[:-1, ws.sl_f] = -np.kron(np.eye(ws.n_entries), conv_matrix(Poly(h), ws.deg_f))
    blocks = f_vec.reshape(ws.n_entries, ws.deg_f + 1)
    j[:-1, ws.sl_h] = -np.vstack([conv_matrix(Poly(b), ws.deg_h) for b in blocks])
    j[-1, ws.n_x - 1] = 1.0

    h_xx = np.zeros((ws.n_x, ws.n_x))
    curvature = system.curvature(lam_c)
    h_xx[ws.sl_p, ws.sl_p] = 2.0 * np.eye(ws.m_p) + curvature[np.ix_(ws.param_idx, ws.param_idx)]
    lam_blocks = lam_c.reshape(ws.n_entries, ws.dadj + 1)
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
