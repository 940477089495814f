"""Nearest matrix polynomial with a non-trivial Smith form.

The constraint Adj(A + dA) = F h, with h monic of prescribed degree, forces
the adjoint entries to share the divisor h, which is equivalent to the last
two invariant factors being non-trivial.  The first-order optimality system
of the Lagrangian is driven to zero with the regularized Newton solver.

State layout: z = (p, vec(F), h, lam) where p holds the masked perturbation
parameters, F is the cofactor matrix (degree bound (n-1)d - deg_h), h holds
all deg_h + 1 coefficients (the monic normalization is a constraint), and
lam stacks one multiplier per adjoint coefficient plus one for the
normalization row.

With use_reversal the problem is solved on the reversed input rev A(t) =
t^d A(1/t) and the reversed mask: Adj(rev A) = rev Adj(A) at the declared
degrees, so a divisor root at zero is an eigenvalue at infinity of A.  Only
the report maps back: omega is inverted and dA reversed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .detadj import AdjugateNodes, adjoint, require_full_rank
from .errors import DimensionMismatch, RankDeficientInput, UnattainableProblem
from .gcdkit import approx_gcd_candidates, detect_unattainable, local_invariant_structure
from .lmsolve import CONVERGED, LmConfig, LmTrace, lm_minimize
from .matpoly import MatPoly, PerturbStructure, Poly


@dataclass
class SnfProblem:
    a: MatPoly
    structure: PerturbStructure
    deg_h: int = 2
    use_reversal: bool = False

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise DimensionMismatch("the input matrix polynomial must be square")
        if not self.structure.matches(self.a):
            raise DimensionMismatch("perturbation mask does not match the matrix")
        n, d = self.a.rows, self.a.degree_bound
        if self.deg_h < 1 or self.deg_h > (n - 1) * d:
            raise DimensionMismatch(
                f"divisor degree {self.deg_h} is infeasible for n={n}, d={d}"
            )


@dataclass
class SnfReport:
    delta_a: MatPoly
    distance: float
    h: Poly
    cofactors: MatPoly
    iterations: int
    final_grad_norm: float
    omega: complex
    invariant_structure: list
    certified: bool
    trace: LmTrace
    z: np.ndarray = field(repr=False, default=None)


class _Workspace:
    """Index bookkeeping and constant blocks for one problem instance; holds
    the reversed input and mask under use_reversal."""

    def __init__(self, problem: SnfProblem):
        self.problem = problem
        a, structure = problem.a, problem.structure
        if problem.use_reversal:
            a, structure = a.reversed(), PerturbStructure(structure.mask[:, :, ::-1])
        self.a, self.structure = a, structure
        self.n = a.rows
        self.d = a.degree_bound
        self.dadj = (self.n - 1) * self.d
        self.deg_h = problem.deg_h
        self.deg_f = self.dadj - self.deg_h
        self.m_p = structure.num_params
        self.n_entries = self.n * self.n
        self.n_f = self.n_entries * (self.deg_f + 1)
        self.n_h = self.deg_h + 1
        self.n_c = self.n_entries * (self.dadj + 1) + 1
        self.n_x = self.m_p + self.n_f + self.n_h
        self.sl_p = slice(0, self.m_p)
        self.sl_f = slice(self.m_p, self.m_p + self.n_f)
        self.sl_h = slice(self.m_p + self.n_f, self.n_x)
        self.sl_lam = slice(self.n_x, self.n_x + self.n_c)
        self.param_idx = structure.param_indices()
        self._cache_key = None
        self._cache = None

    def pack(self, p, f_vec, h, lam) -> np.ndarray:
        return np.concatenate([p, f_vec, h, lam])

    def unpack(self, z):
        z = np.asarray(z, dtype=float)
        if z.size != self.n_x + self.n_c:
            raise DimensionMismatch(f"state has size {z.size}, expected {self.n_x + self.n_c}")
        return z[self.sl_p], z[self.sl_f], z[self.sl_h], z[self.sl_lam]

    def perturbed(self, p) -> MatPoly:
        return self.structure.apply(self.a, p)

    def system_at(self, p) -> AdjugateNodes:
        """Adjugate kernel at A + delta(p); one-slot cache shared by g and H.

        Raises RankDeficientInput at the full-rank wall, so trial steps there are rejected."""
        key = np.asarray(p, dtype=float).tobytes()
        if self._cache_key != key:
            a = self.perturbed(p)
            require_full_rank(a)
            self._cache_key = key
            self._cache = AdjugateNodes(a)
        return self._cache

    def adjoint_vec(self, system: AdjugateNodes) -> np.ndarray:
        # vec(dadj) without MatPoly.vec's degree scan: the bound is exactly dadj.
        return system.adjoint().coeff.transpose(1, 0, 2).reshape(-1)

    def adjoint_jacobian(self, system: AdjugateNodes) -> np.ndarray:
        return system.jacobian()[:, self.param_idx]

    def adjoint_gradient(self, system: AdjugateNodes, lam_c) -> np.ndarray:
        """(R J_adj E)^T lam without forming the Jacobian."""
        return system.gradient(lam_c)[self.param_idx]

    @cached_property
    def _bands(self):
        """Flat positions of the convolution bands: of conv(h) on one cofactor,
        of the stacked conv(F_e) on h, and of -kron(I, conv(h)) in J."""
        rows, width_f = self.dadj + 1, self.deg_f + 1
        # Entry e, cofactor coefficient j, divisor coefficient t: F_e[j] h[t]
        # lands in row e * rows + j + t of vec(F h).
        e, j, t = np.ix_(np.arange(self.n_entries), np.arange(width_f), np.arange(self.n_h))
        divisor = (j + t) * width_f + j
        cofactor = (e * rows + j + t) * self.n_h + t
        jacobian = (e * rows + j + t) * self.n_x + self.sl_f.start + e * width_f + j
        arrays = (divisor[0], cofactor, jacobian)
        for arr in arrays:
            arr.flags.writeable = False
        return arrays

    def divisor_matrix(self, h) -> np.ndarray:
        """conv(h), acting on the coefficients of one cofactor."""
        out = np.zeros((self.dadj + 1, self.deg_f + 1))
        out.reshape(-1)[self._bands[0]] = h
        return out

    def cofactor_blocks(self, f_vec) -> np.ndarray:
        """Stacked matrix mapping h to vec(F h)."""
        out = np.zeros((self.n_entries * (self.dadj + 1), self.n_h))
        out.reshape(-1)[self._bands[1]] = f_vec.reshape(self.n_entries, self.deg_f + 1, 1)
        return out

    def constraint(self, system, f_vec, h) -> np.ndarray:
        blocks = f_vec.reshape(self.n_entries, self.deg_f + 1)
        residual = self.adjoint_vec(system) - (blocks @ self.divisor_matrix(h).T).reshape(-1)
        return np.concatenate([residual, [h[-1] - 1.0]])

    def constraint_jacobian(self, system, f_vec, h) -> np.ndarray:
        j = np.zeros((self.n_c, self.n_x))
        j[:-1, self.sl_p] = self.adjoint_jacobian(system)
        j.reshape(-1)[self._bands[2]] = -h
        j[:-1, self.sl_h] = -self.cofactor_blocks(f_vec)
        j[-1, self.n_x - 1] = 1.0
        return j


def kkt_residual(problem: SnfProblem, z) -> np.ndarray:
    """Gradient of the Lagrangian at the packed state z."""
    return _kkt_residual(_Workspace(problem), z)


def _kkt_residual(ws: _Workspace, z) -> np.ndarray:
    p, f_vec, h, lam = ws.unpack(z)
    system = ws.system_at(p)
    lam_c, lam_n = lam[:-1], lam[-1]
    grad_p = 2.0 * p + ws.adjoint_gradient(system, lam_c)
    lam_blocks = lam_c.reshape(ws.n_entries, ws.dadj + 1)
    grad_f = -(lam_blocks @ ws.divisor_matrix(h)).reshape(-1)
    grad_h = -(ws.cofactor_blocks(f_vec).T @ lam_c)
    grad_h[-1] += lam_n
    c = ws.constraint(system, f_vec, h)
    return np.concatenate([grad_p, grad_f, grad_h, c])


def kkt_hessian(problem: SnfProblem, z) -> np.ndarray:
    return _kkt_hessian(_Workspace(problem), z)


def _kkt_hessian(ws: _Workspace, z) -> np.ndarray:
    """Exact Hessian of the Lagrangian, bordered by the constraint Jacobian.

    The (p, p) block is the quadratic objective plus the adjoint curvature
    from (n-3)-minors, symmetrized; the F h coupling is bilinear.  Every
    block is written into one zeroed matrix; the others are exact mirrors.
    """
    p, f_vec, h, lam = ws.unpack(z)
    system = ws.system_at(p)
    lam_c = lam[:-1]
    n_x = ws.n_x
    full = np.zeros((n_x + ws.n_c, n_x + ws.n_c))

    curvature = system.curvature(lam_c)
    pp = 2.0 * np.eye(ws.m_p) + curvature[np.ix_(ws.param_idx, ws.param_idx)]
    full[ws.sl_p, ws.sl_p] = 0.5 * (pp + pp.T)

    # Cross block between cofactors and divisor: bilinear, hence exact.
    lam_blocks = lam_c.reshape(ws.n_entries, ws.dadj + 1)
    windows = np.lib.stride_tricks.sliding_window_view(lam_blocks, ws.n_h, axis=1)
    cross = -windows.reshape(ws.n_f, ws.n_h)
    full[ws.sl_f, ws.sl_h] = cross
    full[ws.sl_h, ws.sl_f] = cross.T

    j = ws.constraint_jacobian(system, f_vec, h)
    full[n_x:, :n_x] = j
    full[:n_x, n_x:] = j.T
    return full


def initial_guess(problem: SnfProblem, ws: _Workspace | None = None) -> np.ndarray:
    """Zero perturbation, divisor and cofactors from an approximate GCD.

    Among the candidate divisor fits, the one whose root comes closest to
    dropping the rank of A by two wins: the selection score is the
    second-smallest singular value of A at the candidate root.  The solver
    passes its workspace, so the first residual reuses the adjugate at p = 0.
    """
    ws = ws or _Workspace(problem)
    entries = adjoint(ws.a).pvec()
    fits = approx_gcd_candidates(entries, problem.deg_h, [ws.dadj] * len(entries))
    fit = min(fits, key=lambda cand: _rank_drop_score(ws, cand))
    f_vec = np.concatenate([u.padded(ws.deg_f).coeffs for u in fit.cofactors])
    h = fit.h.padded(ws.deg_h).coeffs
    p = np.zeros(ws.m_p)
    j = ws.constraint_jacobian(ws.system_at(p), f_vec, h)
    rhs = np.zeros(ws.n_x)
    rhs[ws.sl_p] = 2.0 * p
    lam, *_ = np.linalg.lstsq(j.T, -rhs, rcond=None)
    return ws.pack(p, f_vec, h, lam)


def _rank_drop_score(ws: _Workspace, fit) -> float:
    """Second-smallest singular value at the divisor roots (min over roots)."""
    h = fit.h.trimmed(1e-12)
    if h.degree() < 1:
        return np.inf
    roots = np.roots(h.coeffs[::-1])
    best = np.inf
    for root in roots:
        s = np.linalg.svd(ws.a.evaluate(root), compute_uv=False)
        score = s[-2] if s.size >= 2 else s[-1]
        best = min(best, float(score))
    return best


def solve(problem: SnfProblem, cfg: LmConfig | None = None) -> SnfReport:
    """Run the constrained iteration and extract the solution record."""
    _require_attainable(problem)
    return _minimize(problem, cfg or LmConfig())


def _require_attainable(problem: SnfProblem):
    if not problem.use_reversal and detect_unattainable(problem.a, problem.structure):
        raise UnattainableProblem(
            "the nearest non-trivial Smith form is at infinity; rerun with use_reversal"
        )


def _minimize(problem: SnfProblem, cfg: LmConfig) -> SnfReport:
    ws = _Workspace(problem)
    z0 = initial_guess(problem, ws)
    z, trace = lm_minimize(lambda v: _kkt_residual(ws, v), lambda v: _kkt_hessian(ws, v), z0, cfg)
    return _extract_report(ws, z, trace, cfg)


def _extract_report(ws: _Workspace, z, trace, cfg: LmConfig) -> SnfReport:
    problem = ws.problem
    p, f_vec, h_coeffs, _ = ws.unpack(z)
    delta = ws.structure.delta(p)
    h = Poly(h_coeffs)
    if abs(h.coeffs[-1]) > 1e-8:
        h = Poly(h.coeffs / h.coeffs[-1])
    cofactors = MatPoly.unvec(f_vec, ws.n, ws.n, ws.deg_f)
    a_solved = ws.a + delta
    root = _divisor_root(h, a_solved)
    if problem.use_reversal and abs(root) < 1e-6:
        # A double root at zero is only accurate to sqrt(eps), so anything
        # below that is the eigenvalue at infinity.
        root = 0j
    try:
        structure = local_invariant_structure(a_solved, root)
    except (ValueError, np.linalg.LinAlgError):
        structure = []
    omega = root
    if problem.use_reversal:
        delta = delta.reversed()
        omega = np.inf if root == 0 else 1.0 / root
    report = SnfReport(
        delta_a=delta,
        distance=float(np.linalg.norm(p)),
        h=h,
        cofactors=cofactors,
        iterations=trace.iterations,
        final_grad_norm=trace.merits[-1],
        omega=omega,
        invariant_structure=structure,
        certified=False,
        trace=trace,
        z=np.asarray(z, dtype=float),
    )
    if trace.termination in CONVERGED:
        report.certified = certify(problem, report, cfg, ws)
    return report


def _divisor_root(h: Poly, a_solved: MatPoly):
    """The root of h to report, for a_solved in the same (maybe reversed) coordinates."""
    trimmed = h.trimmed(1e-12)
    roots = np.roots(trimmed.coeffs[::-1]) if trimmed.degree() >= 1 else np.array([])
    if roots.size == 0:
        return complex(0.0)
    complex_roots = roots[np.abs(roots.imag) > 1e-10]
    if complex_roots.size:
        return complex_roots[np.argmax(complex_roots.imag)]
    # Several real roots: report the one where the rank actually drops.
    scores = []
    for r in roots:
        s = np.linalg.svd(a_solved.evaluate(r.real), compute_uv=False)
        scores.append(s[-2] if s.size >= 2 else s[-1])
    return complex(roots[int(np.argmin(scores))].real)


def certify(problem: SnfProblem, report: SnfReport, cfg: LmConfig | None = None,
            ws: _Workspace | None = None) -> bool:
    """Second-order check at a point within the gradient tolerance: Hessian
    positive semidefinite on the constraint kernel.  The solver passes its
    workspace, which holds the adjugate at the final iterate."""
    cfg = cfg or LmConfig()
    ws = ws or _Workspace(problem)
    if report.z is None:
        raise DimensionMismatch("the report carries no solver state to certify")
    h_full = _kkt_hessian(ws, report.z)
    h_xx = h_full[: ws.n_x, : ws.n_x]
    j = h_full[ws.n_x :, : ws.n_x]

    u, s, vt = np.linalg.svd(j)
    rank = int(np.count_nonzero(s > s[0] * max(j.shape) * 1e-12)) if s.size and s[0] else 0
    kernel = vt[rank:].T
    if kernel.shape[1]:
        eigs = np.linalg.eigvalsh(kernel.T @ h_xx @ kernel)
        kernel_ok = bool(eigs.min() > -1e-8)
    else:
        kernel_ok = True
    return bool(kernel_ok and report.final_grad_norm <= cfg.grad_tol)


def solve_best_degree(a: MatPoly, structure: PerturbStructure, cfg: LmConfig | None = None,
                      use_reversal: bool = False) -> SnfReport:
    """Try divisor degrees 1 and 2 and keep the smaller distance; one
    attainability verdict, taken on the input and mask, covers both."""
    n, d = a.rows, a.degree_bound
    problems = [SnfProblem(a, structure, deg_h=deg_h, use_reversal=use_reversal)
                for deg_h in (1, 2) if (n - 1) * d - deg_h >= 0]
    if not problems:
        raise UnattainableProblem("no feasible divisor degree")
    _require_attainable(problems[0])
    cfg = cfg or LmConfig()
    reports, errors = [], []
    for problem in problems:
        try:
            reports.append(_minimize(problem, cfg))
        except RankDeficientInput as exc:
            errors.append(exc)
    if not reports:
        raise errors[0]
    converged = [r for r in reports if r.trace.termination in CONVERGED]
    pool = converged or reports
    return min(pool, key=lambda r: r.distance)
