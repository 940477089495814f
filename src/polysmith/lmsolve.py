"""Regularized Newton (Levenberg-Marquardt) solver for nonlinear systems.

Solves g(z) = 0 by repeatedly solving (H^T H + nu I) dz = -H^T g with
H the Jacobian of g, using ||g||_2 as the merit function.  The shift
nu = mu ||g|| (Fan & Yuan, Computing 74, 2005) has its multiplier mu
adapted by the gain ratio of actual to predicted merit reduction (Nielsen,
"Damping parameter in Marquardt's method", IMM DTU, 1999), so near a
solution with a local error bound nu falls faster than the merit and the
iteration turns quadratic; every step is a descent direction for the merit.

Where no local error bound holds (a non-isolated or degenerate solution)
the merit contracts only sublinearly, with a ratio per step near 1.  Once
RATE_WINDOW steps are accepted, the run must be able to reach grad_tol
within max_iter at the rate it has shown over the last RATE_WINDOW steps;
if it cannot, it ends as Sublinear instead of spending its whole budget to
end as MaxIter.

Both solvers minimize ||p||^2 subject to c(x) = 0, p leading the state x,
and share the Lagrangian's pieces below: the residual [J^T lam + 2p; c],
the KKT matrix [[H_xx, J^T], [J, 0]] and the certificate read from it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import LinearSolveFailure, RankDeficientInput, ValidationError


# Accepted steps over which the merit's rate is measured.  Shorter windows
# read a ratio near 1 on runs that follow the full-rank wall for a few dozen
# steps and then converge.
RATE_WINDOW = 50
# A step no longer than this ends the run as StepTol.
STEP_TOL = 1e-14
# The shift nu = mu ||g|| never falls below NU_FLOOR; mu starts at NU_SCALE.
NU_FLOOR = 1e-14
NU_SCALE = 1.0


class Termination(str, enum.Enum):
    """Why a run ended.

    GradTol and StepTol are converged (CONVERGED).  Stalled rejected 21
    trial steps in one iteration.  Sublinear stopped early: at the merit's
    rate over the last RATE_WINDOW accepted steps, grad_tol was out of reach
    within max_iter, so the run could only have ended as MaxIter.  MaxIter
    used all max_iter iterations without that test firing; it needs
    RATE_WINDOW accepted steps and does not judge the last iteration.
    """

    GRAD_TOL = "GradTol"
    STEP_TOL = "StepTol"
    MAX_ITER = "MaxIter"
    STALLED = "Stalled"
    SUBLINEAR = "Sublinear"


CONVERGED = (Termination.GRAD_TOL, Termination.STEP_TOL)


@dataclass
class LmConfig:
    max_iter: int = 500
    grad_tol: float = 1e-12

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ValidationError(f"max_iter must be at least 1, got {self.max_iter}")
        # Written so that NaN fails too.
        if not self.grad_tol > 0:
            raise ValidationError(f"grad_tol must be positive, got {self.grad_tol}")


@dataclass
class LmTrace:
    """Accepted-iterate history: merits[0] is the merit at the initial point.

    rejected[k] counts the trials rejected before accepted step k; a
    Stalled run ends with one more entry, the trials of its last iteration.
    """

    merits: list = field(default_factory=list)
    nus: list = field(default_factory=list)
    step_norms: list = field(default_factory=list)
    rejected: list = field(default_factory=list)
    termination: Termination = Termination.MAX_ITER

    @property
    def iterations(self) -> int:
        return len(self.step_norms)

    @property
    def rate(self) -> float | None:
        """Geometric-mean merit ratio per step over the last
        min(RATE_WINDOW, iterations) accepted steps; None before the first."""
        window = min(RATE_WINDOW, self.iterations)
        if not window:
            return None
        return (self.merits[-1] / self.merits[-1 - window]) ** (1.0 / window)


def lm_step(g, h, nu: float) -> np.ndarray:
    """Solve the shifted normal equations (H^T H + nu I) dz = -H^T g."""
    g = np.asarray(g, dtype=float)
    h = np.asarray(h, dtype=float)
    if h.shape[0] != g.size:
        raise LinearSolveFailure(f"Jacobian has {h.shape[0]} rows for {g.size} residuals")
    if nu <= 0:
        raise LinearSolveFailure("the shift must be positive")
    rhs = -(h.T @ g)
    m = h.T @ h
    m.flat[:: m.shape[0] + 1] += nu
    try:
        dz = np.linalg.solve(m, rhs)
        residual = m @ dz - rhs
        if np.linalg.norm(residual) > 1e-10 * (1.0 + np.linalg.norm(rhs)):
            dz = dz - np.linalg.solve(m, residual)
            residual = m @ dz - rhs
    except np.linalg.LinAlgError as exc:
        raise LinearSolveFailure(str(exc)) from exc
    # Written so that a NaN residual (an overflowed system) fails too.
    if not np.linalg.norm(residual) <= 1e-10 * (1.0 + np.linalg.norm(rhs)):
        raise LinearSolveFailure("shifted normal equations solved inaccurately")
    return dz


def lm_minimize(g_fn, h_fn, z0, cfg: LmConfig | None = None):
    """Drive g to zero from z0; returns (z, trace).

    Steps are accepted only when they strictly decrease ||g||; a rejected
    step raises mu and retries, giving up as Stalled after 21 trials in one
    iteration.  A run whose observed rate cannot reach grad_tol within
    max_iter ends as Sublinear (see the module docstring).  A
    RankDeficientInput raised by g_fn during a trial step is treated as a
    rejection, so the iterate backs away from the wall.
    """
    cfg = cfg or LmConfig()
    z = np.asarray(z0, dtype=float).copy()
    g = np.asarray(g_fn(z), dtype=float)
    merit = float(np.linalg.norm(g))
    trace = LmTrace(merits=[merit])
    mu, growth = NU_SCALE, 2.0

    for _ in range(cfg.max_iter):
        if merit <= cfg.grad_tol:
            trace.termination = Termination.GRAD_TOL
            return z, trace
        h = np.asarray(h_fn(z), dtype=float)
        rejected = 0
        while True:
            nu = max(NU_FLOOR, mu * merit)
            dz = lm_step(g, h, nu)
            z_trial = z + dz
            try:
                g_trial = np.asarray(g_fn(z_trial), dtype=float)
                merit_trial = float(np.linalg.norm(g_trial))
            except RankDeficientInput:
                merit_trial = np.inf
            if merit_trial < merit:
                break
            rejected += 1
            mu, growth = mu * growth, 2.0 * growth
            if rejected == 21:
                trace.rejected.append(rejected)
                trace.termination = Termination.STALLED
                return z, trace
        predicted = merit**2 - float(np.linalg.norm(g + h @ dz)) ** 2
        rho = (merit**2 - merit_trial**2) / predicted if predicted > 0 else 0.0
        mu, growth = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        z, g, merit = z_trial, g_trial, merit_trial
        trace.merits.append(merit)
        trace.nus.append(nu)
        trace.step_norms.append(float(np.linalg.norm(dz)))
        trace.rejected.append(rejected)
        if merit <= cfg.grad_tol:
            trace.termination = Termination.GRAD_TOL
            return z, trace
        if np.linalg.norm(dz) <= STEP_TOL:
            trace.termination = Termination.STEP_TOL
            return z, trace
        left = cfg.max_iter - trace.iterations
        if (trace.iterations >= RATE_WINDOW and left > 0
                and merit * trace.rate**left > cfg.grad_tol):
            trace.termination = Termination.SUBLINEAR
            return z, trace

    trace.termination = Termination.MAX_ITER
    return z, trace


def lagrangian_gradient(p, lam, c, jac) -> np.ndarray:
    """Gradient of ||p||^2 + lam . c(x) in (x, lam): [J^T lam + 2p; c], with
    J = dc/dx and p the leading entries of x."""
    grad_x = jac.T @ lam
    grad_x[: p.size] += 2.0 * p
    return np.concatenate([grad_x, c])


def bordered_hessian(jac) -> np.ndarray:
    """The KKT matrix [[0, J^T], [J, 0]]; the solver writes H_xx into its
    leading block, which has one row and column per column of J."""
    n_x = jac.shape[1]
    full = np.zeros((n_x + jac.shape[0],) * 2)
    full[n_x:, :n_x] = jac
    full[:n_x, n_x:] = jac.T
    return full


def certify(g_fn, h_fn, z, n_x: int, trace: LmTrace, cfg: LmConfig | None = None) -> bool:
    """Second-order certificate of a local minimizer at z.

    The run converged, the merit ||g(z)|| is within grad_tol, and H_xx is
    positive semidefinite on ker J, both read from the bordered Hessian
    h_fn(z) whose leading n_x x n_x block is H_xx.
    """
    cfg = cfg or LmConfig()
    if trace.termination not in CONVERGED or not np.linalg.norm(g_fn(z)) <= cfg.grad_tol:
        return False
    full = h_fn(z)
    h_xx, j = full[:n_x, :n_x], full[n_x:, :n_x]
    _, s, vt = np.linalg.svd(j)
    rank = int(np.count_nonzero(s > s[0] * max(j.shape) * 1e-12)) if s.size and s[0] else 0
    kernel = vt[rank:].T
    return not kernel.shape[1] or bool(np.linalg.eigvalsh(kernel.T @ h_xx @ kernel).min() > -1e-8)
