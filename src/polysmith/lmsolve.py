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
and share the Lagrangian's pieces below: KktWorkspace, with the residual
[J^T lam + 2p; c] and the KKT matrix [[H_xx, J^T], [J, 0]], and the
certificate read from them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, LinearSolveFailure, RankDeficientInput, ValidationError
from .structured import rank_of


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
    max_iter ends as Sublinear (see the module docstring).  A trial whose
    shifted solve fails (lm_step's LinearSolveFailure), or whose g_fn raises
    RankDeficientInput, is a rejection: the larger shift of the next trial
    conditions the solve better, and the iterate backs away from the wall.
    A Jacobian with the wrong number of rows still raises LinearSolveFailure.
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
        if h.shape[0] != g.size:
            raise LinearSolveFailure(f"Jacobian has {h.shape[0]} rows for {g.size} residuals")
        rejected = 0
        while True:
            nu = max(NU_FLOOR, mu * merit)
            try:
                dz = lm_step(g, h, nu)
                z_trial = z + dz
                g_trial = np.asarray(g_fn(z_trial), dtype=float)
                merit_trial = float(np.linalg.norm(g_trial))
            except (LinearSolveFailure, RankDeficientInput):
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


class KktWorkspace:
    """The state z = (x, lam) of one problem min ||p||^2 subject to c(x) = 0.

    The residual and the Hessian share one linearization per iterate: the
    solver asks for the Hessian at the point whose residual it has just
    accepted, so a one-slot cache keyed by z builds each linearization once
    per iterate instead of twice.  A solver sets n_x and n_c and defines
    linearize(z), a record with p, lam, c and J = dc/dx at z, and
    write_hxx(h_xx, lin), which writes H_xx into its zeroed block.
    """

    n_x: int
    n_c: int
    _key = None
    _lin = None

    def check_state(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.size != self.n_x + self.n_c:
            raise DimensionMismatch(f"state has size {z.size}, expected {self.n_x + self.n_c}")
        return z

    def linearization_at(self, z):
        """linearize(z), cached for the last z; every array of it is read-only."""
        key = np.asarray(z, dtype=float).tobytes()
        if self._key != key:
            lin = self.linearize(np.frombuffer(key))
            for value in vars(lin).values():
                if isinstance(value, np.ndarray):
                    value.flags.writeable = False
            self._key, self._lin = key, lin
        return self._lin

    def residual(self, z) -> np.ndarray:
        """Gradient of ||p||^2 + lam . c(x) in (x, lam): [J^T lam + 2p; c]."""
        lin = self.linearization_at(z)
        grad_x = lin.jac.T @ lin.lam
        grad_x[: lin.p.size] += 2.0 * lin.p
        return np.concatenate([grad_x, lin.c])

    def hessian(self, z) -> np.ndarray:
        """The KKT matrix [[H_xx, J^T], [J, 0]], the exact Hessian of the Lagrangian."""
        lin = self.linearization_at(z)
        n_x = self.n_x
        full = np.zeros((n_x + self.n_c,) * 2)
        full[n_x:, :n_x] = lin.jac
        full[:n_x, n_x:] = lin.jac.T
        self.write_hxx(full[:n_x, :n_x], lin)
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
    kernel = vt[rank_of(s, j.shape):].T
    return not kernel.shape[1] or bool(np.linalg.eigvalsh(kernel.T @ h_xx @ kernel).min() > -1e-8)
