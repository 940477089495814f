"""Nearest matrix polynomial with a non-trivial Smith form.

The constraint Adj(A + dA) = F h, with h monic of prescribed degree, forces
the adjoint entries to share the divisor h, which is equivalent to the last
two invariant factors being non-trivial.  The first-order optimality system
of the Lagrangian is driven to zero with the regularized Newton solver.

Only the live adjugate entries are constrained: those the mask can make
nonzero, with a finite reachable degree (gcdkit.reachable_adjoint_degrees,
Murota's combinatorial bound).  Every permutation of a dead entry's
complementary minor meets a coefficient that is zero and not perturbed, so
the entry vanishes for every p; its rows would read 0 = F_e h with h monic
and only pin F_e = 0.  Dropping them changes neither the feasible (p, h) nor
the minimizers, and the report's cofactors carry F_e = 0 there.

State layout: z = (p, vec(F), h, lam) where p holds the masked perturbation
parameters, vec(F) stacks the cofactors of the live entries in column-major
entry order (degree bound (n-1)d - deg_h each), h holds all deg_h + 1
coefficients (the monic normalization is a constraint), and lam stacks one
multiplier per coefficient of a live adjoint entry plus one for the
normalization row.  Example 1's support mask leaves 8 of its 16 entries
live, so its KKT system at deg_h = 2 has 165 rows; all 16 would make 309.

An infimum at infinity is reached by solving reversed_problem(problem)
(from mccoy_opt): the same problem on rev A(t) = t^d A(1/t) and the reversed
mask.  Adj(rev A) = rev Adj(A) at the declared degrees, so a divisor root at
zero there is an eigenvalue at infinity of A.  The report stays in the
coordinates of the problem solved; `snf --reversal` maps omega and dA back.

The residual and the Hessian come from lmsolve.KktWorkspace, so the
adjugate's derivatives at an iterate all come from its one Jacobian J.  The
blocks of J and H_xx in F and h are convolution layouts of h, of the
cofactors and of lam: structured.conv_matrices and conv_index write them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .detadj import AdjugateNodes, adjoint, require_full_rank
from .errors import DimensionMismatch, RankDeficientInput, UnattainableProblem, ValidationError
from .gcdkit import (approx_gcd_candidates, detect_unattainable, local_invariant_structure,
                     rank_at_point, reachable_adjoint_degrees)
from .lmsolve import CONVERGED, KktWorkspace, LmConfig, LmTrace, certify, lm_minimize
from .matpoly import NEG_INF, MatPoly, PerturbStructure, Poly
from .structured import conv_index, conv_matrices


@dataclass
class SnfProblem:
    a: MatPoly
    structure: PerturbStructure
    deg_h: int = 2

    def __post_init__(self):
        if self.a.rows != self.a.cols:
            raise DimensionMismatch("the input matrix polynomial must be square")
        if not self.structure.matches(self.a):
            raise DimensionMismatch("perturbation mask does not match the matrix")
        # A real divisor of degree 3 or more has a real factor of degree 1
        # or 2, so higher degrees never give a smaller distance.
        n, d = self.a.rows, self.a.degree_bound
        if self.deg_h not in (1, 2) or self.deg_h > (n - 1) * d:
            raise ValidationError(f"divisor degree {self.deg_h} is infeasible for n={n}, d={d}")


@dataclass
class SnfReport:
    delta_a: MatPoly
    distance: float
    h: Poly
    cofactors: MatPoly
    omega: complex
    invariant_structure: list
    certified: bool
    trace: LmTrace
    z: np.ndarray = field(repr=False, default=None)
    # (ApproxGcdResult, _rank_drop_score) of each shortlisted seed, in
    # candidate order; the solve starts from the first with the least score.
    seeds: list = field(repr=False, default_factory=list)


@dataclass(frozen=True)
class _Linearization:
    """Parameters and multipliers of the iterate z, with the adjugate kernel,
    constraint and constraint Jacobian at it."""

    p: np.ndarray
    lam: np.ndarray
    system: AdjugateNodes
    c: np.ndarray
    jac: np.ndarray


def live_entries(a: MatPoly, structure: PerturbStructure, reach=None) -> np.ndarray:
    """Column-major indices, as in vec(Adj), of the adjugate entries that the
    mask can make nonzero: those with a finite reachable degree.  reach is
    reachable_adjoint_degrees(a, structure) when the caller has it."""
    if reach is None:
        reach = reachable_adjoint_degrees(a, structure)
    return np.flatnonzero(reach.T.ravel() != NEG_INF)


class _Workspace(KktWorkspace):
    """Index bookkeeping and the KKT system of one problem instance; reach as
    in live_entries."""

    def __init__(self, problem: SnfProblem, reach=None):
        a, structure = problem.a, problem.structure
        self.a, self.structure = a, structure
        self.n = a.rows
        self.d = a.degree_bound
        self.dadj = (self.n - 1) * self.d
        self.deg_h = problem.deg_h
        self.deg_f = self.dadj - self.deg_h
        self.m_p = structure.num_params
        self.n_entries = self.n * self.n
        self.live = live_entries(a, structure, reach)
        self.n_live = self.live.size
        # The rows of the live entries in d vec(Adj) / d vec(A).
        self.live_rows = (self.live[:, None] * (self.dadj + 1) + np.arange(self.dadj + 1)).ravel()
        self.n_f = self.n_live * (self.deg_f + 1)
        self.n_h = self.deg_h + 1
        self.n_c = self.n_live * (self.dadj + 1) + 1
        self.n_x = self.m_p + self.n_f + self.n_h
        self.sl_p = slice(0, self.m_p)
        self.sl_f = slice(self.m_p, self.m_p + self.n_f)
        self.sl_h = slice(self.m_p + self.n_f, self.n_x)
        self.param_idx = structure.param_indices()

    @cached_property
    def seeds(self) -> list:
        """(ApproxGcdResult, _rank_drop_score) of each shortlisted divisor
        fit of the input's adjugate, in candidate order.  The fit runs over
        every adjugate entry."""
        entries = adjoint(self.a).pvec()
        fits = approx_gcd_candidates(entries, self.deg_h, [self.dadj] * len(entries))
        return [(fit, _rank_drop_score(self, fit)) for fit in fits]

    def pack(self, p, f_vec, h, lam) -> np.ndarray:
        return np.concatenate([p, f_vec, h, lam])

    def unpack(self, z):
        z = self.check_state(z)
        return z[self.sl_p], z[self.sl_f], z[self.sl_h], z[self.n_x :]

    def perturbed(self, p) -> MatPoly:
        return self.structure.apply(self.a, p)

    def linearize(self, z) -> _Linearization:
        """Raises RankDeficientInput at the full-rank wall, so trial steps there are rejected."""
        p, f_vec, h, lam = self.unpack(z)
        a = self.perturbed(p)
        require_full_rank(a)
        system = AdjugateNodes(a)
        return _Linearization(p, lam, system, self.constraint(system, f_vec, h),
                              self.constraint_jacobian(system, f_vec, h))

    def write_hxx(self, h_xx, lin: _Linearization):
        """H_xx: the (p, p) block is the quadratic objective plus the adjoint
        curvature from (n-3)-minors, symmetrized; the F h coupling is bilinear."""
        lam_blocks = lin.lam[:-1].reshape(self.n_live, self.dadj + 1)
        curvature = lin.system.curvature(self.scatter_live(lam_blocks))
        pp = 2.0 * np.eye(self.m_p) + curvature[np.ix_(self.param_idx, self.param_idx)]
        h_xx[self.sl_p, self.sl_p] = 0.5 * (pp + pp.T)
        # Cross block between cofactors and divisor: bilinear, hence exact.
        # Row (e, j) and column t hold -lam_e[j + t], lam_e's multiplier of F_e[j] h[t].
        cross = -lam_blocks[:, conv_index(self.deg_f + 1, self.n_h)[0]].reshape(self.n_f, self.n_h)
        h_xx[self.sl_f, self.sl_h] = cross
        h_xx[self.sl_h, self.sl_f] = cross.T

    def scatter_live(self, blocks) -> np.ndarray:
        """Rows of the live entries scattered into vec over all n^2 entries, zero elsewhere."""
        out = np.zeros((self.n_entries, blocks.shape[1]))
        out[self.live] = blocks
        return out.reshape(-1)

    def adjoint_jacobian(self, system: AdjugateNodes) -> np.ndarray:
        return system.jacobian()[np.ix_(self.live_rows, self.param_idx)]

    def divisor_matrix(self, h) -> np.ndarray:
        """conv(h), acting on the coefficients of one cofactor."""
        return conv_matrices(h, self.deg_f + 1)

    def cofactor_blocks(self, f_vec) -> np.ndarray:
        """Stacked matrix mapping h to vec(F h)."""
        blocks = conv_matrices(f_vec.reshape(self.n_live, self.deg_f + 1), self.n_h)
        return blocks.reshape(-1, self.n_h)

    def constraint(self, system, f_vec, h) -> np.ndarray:
        # vec(Adj) without MatPoly.vec's degree scan: the bound is exactly dadj.
        adj = system.adjoint().coeff.transpose(1, 0, 2).reshape(self.n_entries, -1)[self.live]
        blocks = f_vec.reshape(self.n_live, self.deg_f + 1)
        residual = (adj - blocks @ self.divisor_matrix(h).T).reshape(-1)
        return np.concatenate([residual, [h[-1] - 1.0]])

    def constraint_jacobian(self, system, f_vec, h) -> np.ndarray:
        jac = np.zeros((self.n_c, self.n_x))
        jac[:-1, self.sl_p] = self.adjoint_jacobian(system)
        # -kron(I, conv(h)), written block by block on its diagonal.
        e = np.arange(self.n_live)
        f_cols = jac[:-1, self.sl_f].reshape(self.n_live, self.dadj + 1, self.n_live, -1)
        f_cols[e, :, e] = self.divisor_matrix(-h)
        jac[:-1, self.sl_h] = -self.cofactor_blocks(f_vec)
        jac[-1, self.n_x - 1] = 1.0
        return jac


def initial_guess(problem: SnfProblem, ws: _Workspace | None = None) -> np.ndarray:
    """Zero perturbation and multipliers, divisor and cofactors from an approximate GCD.

    Among the candidate divisor fits (_Workspace.seeds), the first one whose
    root A is closest to dropping rank by two at wins (see _rank_drop_score).
    Only the live entries' cofactors enter z.
    """
    ws = ws or _Workspace(problem)
    fit = min(ws.seeds, key=lambda seed: seed[1])[0]
    f_vec = np.concatenate([fit.cofactors[e].padded(ws.deg_f).coeffs for e in ws.live])
    h = fit.h.padded(ws.deg_h).coeffs
    return ws.pack(np.zeros(ws.m_p), f_vec, h, np.zeros(ws.n_c))


def _rank_drop_score(ws: _Workspace, fit) -> float:
    """First-order distance to rank n-2 at the divisor roots (min over roots).

    A perturbation p moves A_ij(omega) by at most ||p|| w_ij(omega), with
    w_ij(omega)^2 = sum_k mask_ijk |omega|^(2k); so the two smallest singular
    values of A(omega), in 2-norm, over the largest weight estimate it.
    """
    h = fit.h.trimmed(1e-12)
    if h.degree() < 1:
        return np.inf
    best = np.inf
    for root in np.roots(h.coeffs[::-1]):
        s = np.linalg.svd(ws.a.evaluate(root), compute_uv=False)
        powers = np.abs(root) ** (2 * np.arange(ws.d + 1))
        weight = np.sqrt(np.max(ws.structure.mask @ powers))
        if weight > 0:
            best = min(best, float(np.hypot(s[-2], s[-1]) / weight))
    return best


def solve(problem: SnfProblem, cfg: LmConfig | None = None) -> SnfReport:
    """Run the constrained iteration and extract the solution record."""
    reach = reachable_adjoint_degrees(problem.a, problem.structure)
    _require_attainable(problem, reach)
    return _minimize(problem, cfg or LmConfig(), reach)


def _require_attainable(problem: SnfProblem, reach):
    if detect_unattainable(problem.a, problem.structure, reach):
        raise UnattainableProblem(
            "the nearest non-trivial Smith form lies at infinity; solve "
            "mccoy_opt.reversed_problem(problem) instead (snf: add or drop --reversal)"
        )


def _minimize(problem: SnfProblem, cfg: LmConfig, reach) -> SnfReport:
    ws = _Workspace(problem, reach)
    z0 = initial_guess(problem, ws)
    z, trace = lm_minimize(ws.residual, ws.hessian, z0, cfg)
    return _extract_report(ws, z, trace, certify(ws.residual, ws.hessian, z, ws.n_x, trace, cfg))


def _extract_report(ws: _Workspace, z, trace, certified: bool) -> SnfReport:
    p, f_vec, h_coeffs, _ = ws.unpack(z)
    delta = ws.structure.delta(p)
    h = Poly(h_coeffs)
    if abs(h.coeffs[-1]) > 1e-8:
        h = Poly(h.coeffs / h.coeffs[-1])
    cofactors = MatPoly.unvec(ws.scatter_live(f_vec.reshape(ws.n_live, -1)), ws.n, ws.n, ws.deg_f)
    a_solved = ws.a + delta
    if rank_at_point(a_solved, 0) <= ws.n - 2:
        # A root of multiplicity m is only accurate to eps^(1/m), so the
        # divisor's root cannot tell an eigenvalue at zero; the rank can.
        omega = 0j
    else:
        omega = _divisor_root(h, a_solved)
    try:
        structure = local_invariant_structure(a_solved, omega)
    except (ValueError, np.linalg.LinAlgError):
        structure = []
    return SnfReport(
        delta_a=delta,
        distance=float(np.linalg.norm(p)),
        h=h,
        cofactors=cofactors,
        omega=omega,
        invariant_structure=structure,
        certified=certified,
        trace=trace,
        z=np.asarray(z, dtype=float),
        seeds=ws.seeds,
    )


def _divisor_root(h: Poly, a_solved: MatPoly):
    """The root of h to report, an eigenvalue of a_solved."""
    trimmed = h.trimmed(1e-12)
    roots = np.roots(trimmed.coeffs[::-1]) if trimmed.degree() >= 1 else np.array([])
    if roots.size == 0:
        return complex(0.0)
    complex_roots = roots[np.abs(roots.imag) > 1e-10]
    if complex_roots.size:
        return complex_roots[np.argmax(complex_roots.imag)]
    # Several real roots: report the one where the rank actually drops.
    scores = [np.linalg.svd(a_solved.evaluate(r.real), compute_uv=False)[-2] for r in roots]
    return complex(roots[int(np.argmin(scores))].real)


def solve_best_degree(a: MatPoly, structure: PerturbStructure,
                      cfg: LmConfig | None = None) -> SnfReport:
    """Try divisor degrees 1 and 2 and keep the smaller distance; one
    attainability verdict, taken on the input and mask, covers both, and one
    reachable_adjoint_degrees serves it and both workspaces."""
    n, d = a.rows, a.degree_bound
    if (n - 1) * d == 0:
        raise ValidationError(f"no divisor degree is feasible for n={n}, d={d}")
    problems = [SnfProblem(a, structure, deg_h=deg_h) for deg_h in (1, 2)
                if deg_h <= (n - 1) * d]
    reach = reachable_adjoint_degrees(a, structure)
    _require_attainable(problems[0], reach)
    cfg = cfg or LmConfig()
    reports, errors = [], []
    for problem in problems:
        try:
            reports.append(_minimize(problem, cfg, reach))
        except RankDeficientInput as exc:
            errors.append(exc)
    if not reports:
        raise errors[0]
    converged = [r for r in reports if r.trace.termination in CONVERGED]
    pool = converged or reports
    return min(pool, key=lambda r: r.distance)
