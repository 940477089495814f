"""Lower McCoy rank approximation through an eigenvalue kernel formulation.

A rank drop of r at some omega is enforced as (P + dP)(omega) B = 0 with
B'B = I_r, where P is the companion pencil of the matrix polynomial; for
degree one the pencil is the input itself.  A constant input A_0 is padded to
the pencil 0 t + A_0, whose zero leading coefficient is not perturbed.
Complex quantities are split into real and imaginary parts so the whole state
is real and the perturbation stays real by construction.

State layout: z = (p, Re w, Im w, Re B, Im B, lam).

An eigenvalue at infinity is reached by solving reversed_problem(problem),
the one reversal of both solvers: the same problem on the coefficient-reversed
input and mask, reported in its own coordinates, where omega = 0 is the
eigenvalue at infinity of the input.

The residual and the Hessian come from lmsolve.KktWorkspace and share one
linearization per iterate: the operator M(omega), its derivative, the
constraint and its Jacobian J.  Each block of J and of the bordered Hessian
is written by 2-D indexing at the positions its formula gives, with no
Python loop over the parameters or the Gram pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, UnattainableProblem, ValidationError
from .gcdkit import Analysis
from .lmsolve import KktWorkspace, LmConfig, LmTrace, certify, lm_minimize
from .matpoly import NEG_INF, MatPoly, PerturbStructure, Poly

# |omega| beyond this means the eigenvalue is running off to infinity.
_OMEGA_DIVERGENCE = 1e8


def companion_linearization(a: MatPoly) -> tuple[np.ndarray, np.ndarray]:
    """Block companion pencil E t - F as (E, F); for degree one this is the input itself."""
    if a.rows != a.cols:
        raise DimensionMismatch("the matrix polynomial must be square")
    n, d = a.rows, a.degree_bound
    if d < 1:
        raise DimensionMismatch("linearization needs degree at least 1")
    size = n * d
    e = np.eye(size)
    e[(d - 1) * n :, (d - 1) * n :] = a.coeff[:, :, d]
    f = np.zeros((size, size))
    for i in range(d - 1):
        f[i * n : (i + 1) * n, (i + 1) * n : (i + 2) * n] = np.eye(n)
    for j in range(d):
        f[(d - 1) * n :, j * n : (j + 1) * n] = -a.coeff[:, :, j]
    return e, f


@dataclass
class McCoyProblem:
    a: MatPoly
    structure: PerturbStructure
    r: int = 2

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise DimensionMismatch("the input matrix polynomial must be square")
        if not self.structure.matches(self.a):
            raise DimensionMismatch("perturbation mask does not match the matrix")
        if not 2 <= self.r <= self.a.rows:
            raise ValidationError(f"rank drop {self.r} is out of range 2..{self.a.rows}")


@dataclass
class McCoyReport:
    delta_a: MatPoly
    distance: float
    omega: complex
    kernel: np.ndarray
    invariant_factor: Poly
    certified: bool
    trace: LmTrace
    z: np.ndarray = field(repr=False, default=None)


@dataclass(frozen=True)
class _Linearization:
    """The iterate z unpacked, with the operator, constraint and its Jacobian at it."""

    p: np.ndarray
    omega: complex
    bc: np.ndarray
    lam: np.ndarray
    m: np.ndarray
    dm: np.ndarray
    c: np.ndarray
    jac: np.ndarray


class _McCoyWorkspace(KktWorkspace):
    def __init__(self, problem: McCoyProblem):
        self.problem = problem
        # A constant input becomes the pencil 0 t + A_0; the zero leading
        # coefficient stays out of the mask, so p and the report keep the
        # input's shape.
        a, mask = problem.a, problem.structure.mask
        if a.degree_bound == 0:
            a = a.with_degree_bound(1)
            mask = np.concatenate([mask, np.zeros_like(mask)], axis=2)
        self.a, self.structure = a, PerturbStructure(mask)
        self.n, self.d = a.rows, a.degree_bound
        self.r = problem.r
        self.size = self.n * self.d
        self.m_p = self.structure.num_params
        self.nr = self.size * self.r
        self.n_x = self.m_p + 2 + 2 * self.nr
        self.n_c = 2 * self.nr + 2 * self.r * self.r
        self.sl_p = slice(0, self.m_p)
        self.sl_w = slice(self.m_p, self.m_p + 2)
        self.sl_br = slice(self.m_p + 2, self.m_p + 2 + self.nr)
        self.sl_bi = slice(self.m_p + 2 + self.nr, self.n_x)
        self.sl_lam = slice(self.n_x, self.n_x + self.n_c)

    def unpack(self, z):
        z = self.check_state(z)
        omega = complex(*z[self.sl_w])
        br = z[self.sl_br].reshape(self.size, self.r)
        bi = z[self.sl_bi].reshape(self.size, self.r)
        return z[self.sl_p], omega, br, bi, z[self.sl_lam]

    def pack(self, p, omega, br, bi, lam):
        return np.concatenate([p, [omega.real, omega.imag], br.ravel(), bi.ravel(), lam])

    def perturbed(self, p) -> MatPoly:
        return self.structure.apply(self.a, p)

    def linearize(self, z) -> _Linearization:
        """Raises UnattainableProblem once |omega| passes _OMEGA_DIVERGENCE."""
        p, omega, br, bi, lam = self.unpack(z)
        if np.hypot(omega.real, omega.imag) > _OMEGA_DIVERGENCE:
            raise UnattainableProblem(
                "the eigenvalue is diverging: the minimum lies at infinity; solve "
                "mccoy_opt.reversed_problem(problem), where it is the eigenvalue 0"
            )
        bc = br + 1j * bi
        m, dm = self.operator(self.perturbed(p), omega)
        return _Linearization(p, omega, bc, lam, m, dm, self.constraint(m, bc),
                              self.constraint_jacobian(m, dm, bc, omega))

    def write_hxx(self, h_xx, lin: _Linearization):
        """H_xx.  With W = lam_1 + i lam_2 the multipliers of the kernel rows,
        those rows add Re sum(conj(W) * M B) to the Lagrangian: linear in p,
        in B and in omega = x + iy (M is the pencil E omega - F), so
        d/dy = i d/dx and the (omega, omega) block is zero.  The Gram rows add
        the constant blocks kron(I, Q1 + Q1^T) and kron(I, Q2 - Q2^T).
        """
        bc, lam = lin.bc, lin.lam
        size, r, nr, m_p = self.size, self.r, self.nr, self.m_p
        wc = (lam[:nr] - 1j * lam[nr : 2 * nr]).reshape(size, r)
        q1, q2 = lam[2 * nr :].reshape(2, r, r)
        br0, bi0, w0 = self.sl_br.start, self.sl_bi.start, self.sl_w.start
        row, col, coef = self._cells
        # Upper off-diagonal blocks first; the lower ones are their transposes.
        weights, d_weights = self._weights(lin.omega)
        w_rows = wc[row]
        wb = weights[coef, None] * w_rows
        k, cols = np.arange(m_p)[:, None], col[:, None] * r + np.arange(r)
        h_xx[k, br0 + cols], h_xx[k, bi0 + cols] = wb.real, -wb.imag
        s = d_weights[coef] * (w_rows[:, None, :] @ bc[col][:, :, None])[:, 0, 0]
        h_xx[:m_p, w0], h_xx[:m_p, w0 + 1] = s.real, -s.imag
        t = (lin.dm.T @ wc).ravel()
        h_xx[w0, self.sl_br], h_xx[w0, self.sl_bi] = t.real, -t.imag
        h_xx[w0 + 1, self.sl_br], h_xx[w0 + 1, self.sl_bi] = -t.imag, -t.real
        # kron(I, Q) puts Q at (i r + a, i r + b).
        diag = np.arange(size)[:, None, None] * r
        rows, cols = diag + np.arange(r)[:, None], diag + np.arange(r)
        h_xx[br0 + rows, bi0 + cols] = q2 - q2.T
        h_xx += h_xx.T
        np.fill_diagonal(h_xx[self.sl_p, self.sl_p], 2.0)
        h_xx[br0 + rows, br0 + cols] = h_xx[bi0 + rows, bi0 + cols] = q1 + q1.T

    def operator(self, a_pert: MatPoly, omega):
        """Companion pencil at omega and its omega derivative."""
        e, f = companion_linearization(a_pert)
        return e * complex(omega) - f, e.astype(complex)

    def constraint(self, m, bc) -> np.ndarray:
        mb = m @ bc
        gram = bc.conj().T @ bc
        return np.concatenate(
            [
                mb.real.ravel(),
                mb.imag.ravel(),
                (gram.real - np.eye(self.r)).ravel(),
                gram.imag.ravel(),
            ]
        )

    def _weights(self, omega):
        """Weight in M = E omega - F of a unit perturbation, and its omega derivative."""
        w, dw = np.ones(self.d + 1, dtype=complex), np.zeros(self.d + 1)
        w[-1], dw[-1] = omega, 1.0
        return w, dw

    @cached_property
    def _cells(self):
        """Pencil row and column (in F below degree d, else E) and coefficient of each param."""
        entry, coef = np.divmod(self.structure.param_indices(), self.d + 1)
        j, i = np.divmod(entry, self.n)
        base = (self.d - 1) * self.n
        return base + i, np.where(coef < self.d, coef * self.n, base) + j, coef

    def constraint_jacobian(self, m, dm, bc, omega) -> np.ndarray:
        size, r, nr, m_p = self.size, self.r, self.nr, self.m_p
        br, bi, w0 = self.sl_br, self.sl_bi, self.sl_w.start
        j = np.zeros((self.n_c, self.n_x))
        # Column k holds w * B[col] in the kernel rows of `row`, real then imaginary.
        row, col, coef = self._cells
        weights, _ = self._weights(omega)
        contrib = weights[coef, None] * bc[col]
        rows, cols = row[:, None] * r + np.arange(r), np.arange(m_p)[:, None]
        j[rows, cols], j[nr + rows, cols] = contrib.real, contrib.imag
        dmb = (dm @ bc).ravel()
        j[:nr, w0], j[nr : 2 * nr, w0] = dmb.real, dmb.imag
        j[:nr, w0 + 1], j[nr : 2 * nr, w0 + 1] = -dmb.imag, dmb.real
        # kron([[Re M, -Im M], [Im M, Re M]], I_r) in the kernel rows and the B
        # columns (Im B follows Re B): entry (i, k) of a block goes to (i r + a, k r + a).
        ar = np.arange(r)
        kron = np.zeros((2, size, r, 2, size, r))
        blocks = np.array([[m.real, -m.imag], [m.imag, m.real]])
        kron[:, :, ar, :, :, ar] = blocks.transpose(0, 2, 1, 3)
        j[: 2 * nr, br.start : bi.stop] = kron.reshape(2 * nr, 2 * nr)
        # Gram row (a, b), column (i, c) of Re B or Im B: L = delta_ac X[i, b] and
        # R = delta_bc X[i, a]; a cell sums at most two terms +-x, so every sum is exact.
        left, right = np.zeros((2, 2, r, r, size, r))
        left[:, ar, :, :, ar] = right[:, :, ar, :, ar] = np.stack((bc.real.T, bc.imag.T))
        (l_re, l_im), (r_re, r_im) = left.reshape(2, r * r, nr), right.reshape(2, r * r, nr)
        re_gram, im_gram = slice(2 * nr, 2 * nr + r * r), slice(2 * nr + r * r, None)
        j[re_gram, br], j[re_gram, bi] = l_re + r_re, l_im + r_im
        j[im_gram, br], j[im_gram, bi] = l_im - r_im, r_re - l_re
        return j


def initial_guess_mccoy(problem: McCoyProblem, ws: _McCoyWorkspace | None = None,
                        analysis: Analysis | None = None) -> np.ndarray:
    """Eigenvalue candidate scoring, a least-norm perturbation and the kernel.

    Candidates are the numeric roots of the determinant together with local
    minima of |det| on a Chebyshev grid; the winner minimizes the singular
    value that must vanish for the requested rank drop.  With B0 the r
    smallest right singular vectors of A(omega), (A + dA(p))(omega) B0 = 0 is
    linear in p, and its least-norm solution (the inner step of structured
    total least norm) seeds p.  The kernel block comes from the perturbed
    pencil, orthonormal by construction.  The solver passes its own
    workspace and analysis.
    """
    ws = ws or _McCoyWorkspace(problem)
    a = problem.a
    analysis = analysis or Analysis(a)
    candidates = list(analysis.eigenvalues)
    candidates.extend(_grid_extrema(analysis))
    drop_idx = a.rows - problem.r
    # A(0) is the constant coefficient, finite for any input.
    omega, best_score = 0.0 + 0.0j, np.inf
    for cand in candidates:
        values = a.evaluate(cand)
        if not np.all(np.isfinite(values)):
            continue  # A overflows this far out
        score = np.linalg.svd(values, compute_uv=False)[drop_idx]
        if score < best_score:
            omega, best_score = complex(cand), score
    # Row (i, a) of the system holds omega^k B0[j, a] in the column of the
    # parameter at coefficient k of entry (i, j), whose pencil cell is (i, j)
    # mod n; real rows, then imaginary.
    row, col, coef = ws._cells
    a_w = ws.a.evaluate(omega)
    b0 = np.linalg.svd(a_w)[2][-problem.r :].conj().T
    jp = np.zeros((ws.n, problem.r, ws.m_p), dtype=complex)
    jp[row % ws.n, :, np.arange(ws.m_p)] = omega ** coef[:, None] * b0[col % ws.n]
    jp, rhs = jp.reshape(ws.n * problem.r, ws.m_p), -(a_w @ b0).ravel()
    p = np.linalg.lstsq(np.vstack([jp.real, jp.imag]), np.concatenate([rhs.real, rhs.imag]),
                        rcond=None)[0]
    m, _ = ws.operator(ws.perturbed(p), omega)
    bc = np.linalg.svd(m)[2][-problem.r :].conj().T
    return ws.pack(p, omega, bc.real, bc.imag, np.zeros(ws.n_c))


def _grid_extrema(analysis: Analysis):
    """Local minima of |det| on a Chebyshev grid, used as extra candidates."""
    det = analysis.det
    if det.degree() in (NEG_INF, 0):
        return []
    radius = 1.0 + float(np.max(np.abs(analysis.a.coeff)))
    grid = radius * np.cos(np.pi * (np.arange(512) + 0.5) / 512)
    grid = np.sort(grid)
    vals = np.abs(det(grid))
    inner = (vals[1:-1] <= vals[:-2]) & (vals[1:-1] <= vals[2:])
    return [complex(x) for x in grid[1:-1][inner]]


def solve_mccoy(problem: McCoyProblem, cfg: LmConfig | None = None, z0=None) -> McCoyReport:
    """Drive the rank-drop system to stationarity and extract the record."""
    cfg = cfg or LmConfig()
    analysis = Analysis(problem.a)
    analysis.require_nonsingular()
    ws = _McCoyWorkspace(problem)
    if z0 is None:
        z0 = initial_guess_mccoy(problem, ws, analysis)
    z, trace = lm_minimize(ws.residual, ws.hessian, z0, cfg)
    certified = certify(ws.residual, ws.hessian, z, ws.n_x, trace, cfg)
    return _extract_mccoy_report(ws, z, trace, certified)


def _extract_mccoy_report(ws: _McCoyWorkspace, z, trace, certified: bool) -> McCoyReport:
    p, omega, br, bi, _ = ws.unpack(z)
    delta = ws.problem.structure.delta(p)
    if abs(omega.imag) <= 1e-8 * (1.0 + abs(omega.real)):
        factor = Poly([-omega.real, 1.0])
    else:
        factor = Poly([abs(omega) ** 2, -2.0 * omega.real, 1.0])
    return McCoyReport(
        delta_a=delta,
        distance=float(np.linalg.norm(p)),
        omega=omega,
        kernel=br + 1j * bi,
        invariant_factor=factor,
        certified=certified,
        trace=trace,
        z=np.asarray(z, dtype=float),
    )


def reversed_problem(problem):
    """The same McCoyProblem or SnfProblem on the coefficient-reversed input and mask.

    An eigenvalue at zero of the reversal is one at infinity of the input;
    both solvers report in the coordinates of the problem they are handed.
    """
    return replace(problem, a=problem.a.reversed(), structure=problem.structure.reversed())
