"""Lower McCoy rank approximation through a kernel of (A + dA)(omega) itself.

A rank drop of r at some omega is enforced as (A + dA(p))(omega) B = 0 with
B = B0 + Q X, X complex of shape (n - r) x r: one affine chart of the
Grassmannian, the kernel representation of structured low-rank approximation
(Markovsky, Low Rank Approximation, 2012; Usevich & Markovsky, JCAM 2014).
The frame V = [Q | B0] holds the right singular vectors of
(A + dA(p0))(omega0) at the chart centre z0, the r smallest last, and is
fixed for the run; B has full column rank for every X, so no kernel column
can collapse.  At r = n, X is empty and the constraint is (A + dA)(omega) = 0.
Complex quantities are split into real and imaginary parts so the whole state
is real and the perturbation stays real by construction.

State layout: z = (p, Re w, Im w, Re X, Im X, lam).

An eigenvalue at infinity is reached by solving reversed_problem(problem),
the one reversal of both solvers: the same problem on the coefficient-reversed
input and mask, reported in its own coordinates, where omega = 0 is the
eigenvalue at infinity of the input.

The residual and the Hessian come from lmsolve.KktWorkspace and share one
linearization per iterate: (A + dA)(omega) with its first two omega
derivatives, the constraint and its exact Jacobian J.  Each block of J and of
H_xx is written by 2-D indexing at the positions its formula gives, with no
Python loop over the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, UnattainableProblem, ValidationError
from .gcdkit import Analysis, chebyshev_minima
from .lmsolve import KktWorkspace, LmConfig, LmTrace, certify, lm_minimize
from .matpoly import NEG_INF, MatPoly, PerturbStructure, Poly, taylor_weights

# |omega| beyond this means the eigenvalue is running off to infinity.
_OMEGA_DIVERGENCE = 1e8


# Unused by the solver, which works on (A + dA)(omega); bench/tracer.py traces it.
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
    """The solved point.  rank_gap is sigma_{n-r+1}((A + dA)(omega)) over
    sigma_1(A(omega)): about eps where (A + dA)(omega) drops rank by r, so a
    run that ended short of the constraint shows it; NaN where A(omega)
    overflows."""

    delta_a: MatPoly
    distance: float
    omega: complex
    kernel: np.ndarray
    invariant_factor: Poly
    certified: bool
    trace: LmTrace
    rank_gap: float
    z: np.ndarray = field(repr=False, default=None)


def _param_columns(cells, weights, b) -> np.ndarray:
    """d(M B)/dp, complex, kernel row (i, a) = i r + a: column k holds
    weights[coef] B[j, :] in the rows of i."""
    i, j, coef = cells
    out = np.zeros((*b.shape, i.size), dtype=complex)
    out[i, :, np.arange(i.size)] = weights[coef, None] * b[j]
    return out.reshape(b.size, i.size)


@dataclass(frozen=True)
class _Linearization:
    """The iterate z unpacked, with B, M' and M'' of M = (A + dA)(omega), the constraint and J."""

    p: np.ndarray
    omega: complex
    weights: np.ndarray  # taylor_weights at omega that built M, M' and M'', row 2 doubled
    b: np.ndarray
    lam: np.ndarray
    dm: np.ndarray
    d2m: np.ndarray
    c: np.ndarray
    jac: np.ndarray


class _McCoyWorkspace(KktWorkspace):
    """The chart centred at z0: its frame comes from one SVD at (p0, omega0)."""

    def __init__(self, problem: McCoyProblem, z0):
        self.a, self.structure, self.r = problem.a, problem.structure, problem.r
        self.n, self.d = self.a.rows, self.a.degree_bound
        self.cells = self.structure.cells
        self.m_p = self.structure.num_params
        self.nr, n_xr = self.n * self.r, (self.n - self.r) * self.r
        self.n_x, self.n_c = self.m_p + 2 + 2 * n_xr, 2 * self.nr
        self.sl_p = slice(0, self.m_p)
        self.sl_w = slice(self.m_p, self.m_p + 2)
        self.sl_xr = slice(self.m_p + 2, self.m_p + 2 + n_xr)
        self.sl_xi = slice(self.m_p + 2 + n_xr, self.n_x)
        self.sl_lam = slice(self.n_x, self.n_x + self.n_c)
        p0, omega0, _, _ = self.unpack(z0)
        v = np.linalg.svd(self.structure.apply(self.a, p0).evaluate(omega0))[2].conj().T
        self.q, self.b0 = v[:, : self.n - self.r], v[:, self.n - self.r :]

    def unpack(self, z):
        z = self.check_state(z)
        x = (z[self.sl_xr] + 1j * z[self.sl_xi]).reshape(self.n - self.r, self.r)
        return z[self.sl_p], complex(*z[self.sl_w]), x, z[self.sl_lam]

    def linearize(self, z) -> _Linearization:
        """Raises UnattainableProblem once |omega| passes _OMEGA_DIVERGENCE."""
        p, omega, x, lam = self.unpack(z)
        if np.hypot(omega.real, omega.imag) > _OMEGA_DIVERGENCE:
            raise UnattainableProblem(
                "the eigenvalue is diverging: the minimum lies at infinity; solve "
                "mccoy_opt.reversed_problem(problem), where it is the eigenvalue 0"
            )
        b = self.b0 + self.q @ x
        weights = taylor_weights(omega, self.d, 3)
        weights[2] *= 2  # M''(omega) = 2 sum_k C(k, 2) omega^(k-2) A_k
        m, dm, d2m = np.tensordot(weights, self.structure.apply(self.a, p).coeff, axes=(1, 2))
        mb = m @ b
        c = np.concatenate([mb.real, mb.imag]).ravel()
        return _Linearization(p, omega, weights, b, lam, dm, d2m, c,
                              self.constraint_jacobian(weights[0], m, dm, b))

    def constraint_jacobian(self, weights, m, dm, b) -> np.ndarray:
        """Real then imaginary kernel rows; columns p, omega, Re X, Im X."""
        nr, w0 = self.nr, self.sl_w.start
        j = np.zeros((self.n_c, self.n_x))
        jp = _param_columns(self.cells, weights, b)
        j[:nr, self.sl_p], j[nr:, self.sl_p] = jp.real, jp.imag
        dmb = (dm @ b).ravel()
        j[:nr, w0], j[nr:, w0] = dmb.real, dmb.imag
        j[:nr, w0 + 1], j[nr:, w0 + 1] = -dmb.imag, dmb.real
        # d(M B)/dX = (M Q) kron I_r, as a broadcast product, and i times it for Im X.
        k = ((m @ self.q)[:, None, :, None] * np.eye(self.r)[None, :, None, :]).reshape(self.nr, -1)
        j[:nr, self.sl_xr], j[nr:, self.sl_xr] = k.real, k.imag
        j[:nr, self.sl_xi], j[nr:, self.sl_xi] = -k.imag, k.real
        return j

    def write_hxx(self, h_xx, lin: _Linearization):
        """H_xx.  With W = lam_1 + i lam_2 the kernel rows' multipliers, the
        constraint adds Re sum(conj(W) * M(omega) B) to the Lagrangian, which
        is analytic in omega = x + iy (d/dy = i d/dx) and linear in p and in
        X, with B = B0 + Q X.  So the p-p block is 2I, X-X is zero, p-omega
        is k omega^(k-1) conj(W_ia) B_ja, p-X is omega^k conj(W_ia) Q_jb,
        omega-omega is t = sum(conj(W) * M'' B) and omega-X is (M' Q)^T conj(W).
        """
        i, j, coef = self.cells
        n_xr, w0 = self.sl_xr.stop - self.sl_xr.start, self.sl_w.start
        wc = (lin.lam[: self.nr] - 1j * lin.lam[self.nr :]).reshape(self.n, self.r)
        # Upper off-diagonal blocks first; the lower ones are their transposes.
        px = np.einsum("k,kb,ka->kba", lin.weights[0, coef], self.q[j], wc[i]).reshape(self.m_p, n_xr)
        h_xx[self.sl_p, self.sl_xr], h_xx[self.sl_p, self.sl_xi] = px.real, -px.imag
        s = lin.weights[1, coef] * np.sum(wc[i] * lin.b[j], axis=1)
        h_xx[self.sl_p, w0], h_xx[self.sl_p, w0 + 1] = s.real, -s.imag
        u = ((lin.dm @ self.q).T @ wc).ravel()
        h_xx[w0, self.sl_xr], h_xx[w0, self.sl_xi] = u.real, -u.imag
        h_xx[w0 + 1, self.sl_xr], h_xx[w0 + 1, self.sl_xi] = -u.imag, -u.real
        h_xx += h_xx.T
        np.fill_diagonal(h_xx[self.sl_p, self.sl_p], 2.0)
        t = np.sum(wc * (lin.d2m @ lin.b))
        h_xx[self.sl_w, self.sl_w] = [[t.real, -t.imag], [-t.imag, -t.real]]


def initial_guess_mccoy(problem: McCoyProblem, analysis: Analysis | None = None) -> np.ndarray:
    """Eigenvalue candidate scoring and a least-norm perturbation.

    Candidates are the numeric roots of the determinant together with local
    minima of |det| on a Chebyshev grid; the winner minimizes the singular
    value that must vanish for the requested rank drop.  With B0 the r
    smallest right singular vectors of A(omega), (A + dA(p))(omega) B0 = 0 is
    linear in p, and its least-norm solution (the inner step of structured
    total least norm) seeds p.  The seed is the chart centre, so X = 0, and
    the multipliers start at zero.  The solver passes its own analysis.
    """
    a, r = problem.a, problem.r
    analysis = analysis or Analysis(a)
    candidates = np.concatenate([analysis.eigenvalues, _grid_extrema(analysis)])
    values = a.evaluate(candidates)
    finite = np.isfinite(values).all(axis=(1, 2))  # A overflows far out
    scores = np.full(candidates.size, np.inf)
    scores[finite] = np.linalg.svd(values[finite], compute_uv=False)[:, a.rows - r]
    # The first least score wins; with none finite, omega = 0, where A is always finite.
    omega = complex(candidates[np.argmin(scores)]) if (scores < np.inf).any() else 0j
    a_w = a.evaluate(omega)
    b0 = np.linalg.svd(a_w)[2][-r:].conj().T
    jp = _param_columns(problem.structure.cells, taylor_weights(omega, a.degree_bound, 1)[0], b0)
    rhs = -(a_w @ b0).ravel()
    p = np.linalg.lstsq(np.vstack([jp.real, jp.imag]), np.concatenate([rhs.real, rhs.imag]),
                        rcond=None)[0]
    # X and lam have 2 (n - r) r + 2 n r entries.
    return np.concatenate([p, [omega.real, omega.imag], np.zeros(2 * (2 * a.rows - r) * r)])


def _grid_extrema(analysis: Analysis) -> np.ndarray:
    """Local minima of |det| on a 512-point Chebyshev grid, used as extra candidates."""
    det = analysis.det
    if det.degree() in (NEG_INF, 0):
        return np.zeros(0)
    radius = 1.0 + float(np.max(np.abs(analysis.a.coeff)))
    grid, keep = chebyshev_minima(lambda x: np.abs(det(x)), radius, 512)
    return grid[keep]


def solve_mccoy(problem: McCoyProblem, cfg: LmConfig | None = None, z0=None) -> McCoyReport:
    """Drive the rank-drop system to stationarity in the chart centred at z0
    (the seed by default) and extract the record."""
    cfg = cfg or LmConfig()
    analysis = Analysis(problem.a)
    analysis.require_nonsingular()
    if problem.r == 2 and analysis.unattainable(problem.structure):  # a non-trivial Smith form
        raise UnattainableProblem("the rank drop lies at infinity; solve reversed_problem(problem)")
    if z0 is None:
        z0 = initial_guess_mccoy(problem, analysis)
    ws = _McCoyWorkspace(problem, z0)
    z, trace = lm_minimize(ws.residual, ws.hessian, z0, cfg)
    certified = certify(ws.residual, ws.hessian, z, ws.n_x, trace, cfg)
    return _extract_mccoy_report(ws, z, trace, certified)


def _extract_mccoy_report(ws: _McCoyWorkspace, z, trace, certified: bool) -> McCoyReport:
    p, omega, x, _ = ws.unpack(z)
    if abs(omega.imag) <= 1e-8 * (1.0 + abs(omega.real)):
        factor = Poly([-omega.real, 1.0])
    else:
        factor = Poly([abs(omega) ** 2, -2.0 * omega.real, 1.0])
    return McCoyReport(
        delta_a=ws.structure.delta(p),
        distance=float(np.linalg.norm(p)),
        omega=omega,
        kernel=np.linalg.qr(ws.b0 + ws.q @ x)[0],
        invariant_factor=factor,
        certified=certified,
        trace=trace,
        rank_gap=_rank_gap(ws, p, omega),
        z=np.asarray(z, dtype=float),
    )


def _rank_gap(ws: _McCoyWorkspace, p, omega: complex) -> float:
    """sigma_{n-r+1}((A + dA(p))(omega)) / sigma_1(A(omega)); see McCoyReport."""
    values = np.stack([ws.structure.apply(ws.a, p).evaluate(omega), ws.a.evaluate(omega)])
    if not np.isfinite(values).all():
        return math.nan
    s = np.linalg.svd(values, compute_uv=False)
    gap, top = s[0, ws.n - ws.r], s[1, 0]
    if not gap:
        return 0.0
    return float(gap / top) if top else math.inf


def reversed_problem(problem):
    """The same McCoyProblem or SnfProblem on the coefficient-reversed input and mask.

    An eigenvalue at zero of the reversal is one at infinity of the input;
    both solvers report in the coordinates of the problem they are handed.
    """
    return replace(problem, a=problem.a.reversed(), structure=problem.structure.reversed())
