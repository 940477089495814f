import numpy as np
import pytest

from polysmith import lmsolve
from polysmith.errors import LinearSolveFailure, RankDeficientInput, ValidationError
from polysmith.lmsolve import RATE_WINDOW, LmConfig, LmTrace, Termination, lm_minimize, lm_step


def test_lm_step_zero_gradient():
    h = np.array([[1.0, 0.2], [0.0, 1.5]])
    assert np.allclose(lm_step(np.zeros(2), h, 1.0), 0.0)


def test_lm_step_newton_limit():
    g = np.array([3.0, -1.0])
    dz = lm_step(g, np.eye(2), 1e-14)
    assert np.allclose(dz, -g, atol=1e-10)


def test_lm_step_matches_normal_equations():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(6, 4))
    g = rng.normal(size=6)
    nu = 0.37
    dz = lm_step(g, h, nu)
    expected = np.linalg.solve(h.T @ h + nu * np.eye(4), -h.T @ g)
    assert np.allclose(dz, expected, atol=1e-10)


def lm_step_eye_form(g, h, nu):
    """lm_step with the shift added as nu * np.eye(n), refinement included."""
    rhs = -(h.T @ g)
    m = h.T @ h + nu * np.eye(h.shape[1])
    dz = np.linalg.solve(m, rhs)
    residual = m @ dz - rhs
    if np.linalg.norm(residual) > 1e-10 * (1.0 + np.linalg.norm(rhs)):
        dz = dz - np.linalg.solve(m, residual)
    return dz


@pytest.mark.parametrize("n", [3, 17, 60])
def test_lm_step_matches_eye_form_bitwise_and_keeps_inputs(n):
    rng = np.random.default_rng(n)
    for nu in (1e-14, 1e-6, 0.37, 25.0):
        a = rng.normal(size=(n, n))
        h = a + a.T
        g = rng.normal(size=n)
        h0, g0 = h.copy(), g.copy()
        dz = lm_step(g, h, nu)
        assert np.array_equal(h, h0) and np.array_equal(g, g0)
        assert dz.tobytes() == lm_step_eye_form(g, h, nu).tobytes()


def test_lm_step_rejects_bad_shift():
    with pytest.raises(LinearSolveFailure):
        lm_step(np.ones(2), np.eye(2), 0.0)


def test_shifted_system_positive_definite():
    rng = np.random.default_rng(1)
    for _ in range(10):
        h = rng.normal(size=(3, 3))
        nu = 10.0 ** rng.uniform(-8, 2)
        eigs = np.linalg.eigvalsh(h.T @ h + nu * np.eye(3))
        assert eigs.min() > 0.0


def test_lm_minimize_linear_scalar():
    z, trace = lm_minimize(
        lambda v: v.copy(), lambda v: np.eye(1), np.array([5.0]), LmConfig()
    )
    assert abs(z[0]) <= 1e-12
    assert trace.termination == Termination.GRAD_TOL


def test_lm_minimize_quadratic_decay_on_sqrt2():
    z, trace = lm_minimize(
        lambda v: np.array([v[0] ** 2 - 2.0]),
        lambda v: np.array([[2.0 * v[0]]]),
        np.array([1.0]),
        LmConfig(),
    )
    assert z[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    errors = [abs(m) for m in trace.merits if m > 1e-14]
    ratios = [errors[k + 1] / errors[k] ** 2 for k in range(len(errors) - 1)]
    assert max(ratios[-3:]) <= 1e6


def test_lm_minimize_merit_strictly_decreases():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(3, 3))

    def g(v):
        return m @ v + 0.1 * v**3

    def h(v):
        return m + np.diag(0.3 * v**2)

    _, trace = lm_minimize(g, h, rng.normal(size=3), LmConfig(max_iter=200))
    merits = trace.merits
    assert all(b < a for a, b in zip(merits, merits[1:]))


def test_lm_minimize_stalls_on_constant_residual():
    _, trace = lm_minimize(
        lambda v: np.array([1.0]), lambda v: np.array([[0.0]]), np.array([0.0]), LmConfig()
    )
    assert trace.termination == Termination.STALLED


def test_config_validation():
    with pytest.raises(ValidationError):
        LmConfig(max_iter=0)
    with pytest.raises(ValidationError):
        LmConfig(grad_tol=0.0)
    with pytest.raises(ValidationError):
        LmConfig(grad_tol=float("nan"))


def test_lm_minimize_adaptive_shift_on_ill_conditioned_linear():
    # With nu tied to ||g|| alone the 1e-4 direction crawls for 500 steps;
    # the gain-ratio multiplier shrinks nu once the model predicts well.
    scales = np.array([1.0, 1e-2, 1e-4])
    z, trace = lm_minimize(
        lambda v: scales * v - 1.0, lambda v: np.diag(scales), np.zeros(3), LmConfig()
    )
    assert trace.termination == Termination.GRAD_TOL
    assert trace.iterations <= 40
    assert np.allclose(z, 1.0 / scales, rtol=1e-10)


def test_lm_minimize_counts_rejected_trials():
    # A wall at z >= 0.5 rejects the full Newton step toward the root at 1.
    def g(v):
        if v[0] >= 0.5:
            raise RankDeficientInput("wall")
        return np.array([v[0] - 1.0])

    z, trace = lm_minimize(g, lambda v: np.eye(1), np.array([0.0]), LmConfig(max_iter=5))
    assert trace.rejected[0] >= 1
    assert len(trace.rejected) == trace.iterations + (trace.termination == Termination.STALLED)
    assert z[0] < 0.5


def test_lm_minimize_rejects_trials_whose_shifted_solve_fails(monkeypatch):
    # A shifted solve that fails below nu = 2 rejects the trial and doubles
    # the shift, as a wall does; one that always fails stalls after 21 trials.
    nus = []

    def step(g, h, nu, _fn=lmsolve.lm_step):
        nus.append(nu)
        if nu < 2.0:
            raise LinearSolveFailure("shifted normal equations solved inaccurately")
        return _fn(g, h, nu)

    monkeypatch.setattr(lmsolve, "lm_step", step)
    cfg = LmConfig(max_iter=3)
    _, trace = lm_minimize(lambda v: v - 1.0, lambda v: np.eye(1), np.array([0.0]), cfg)
    assert nus[:2] == [1.0, 2.0] and trace.rejected[0] == 1
    assert trace.merits[1] < trace.merits[0]
    monkeypatch.setattr(lmsolve, "lm_step", lambda g, h, nu: step(g, h, 0.0))
    z, trace = lm_minimize(lambda v: v - 1.0, lambda v: np.eye(1), np.array([0.0]), cfg)
    assert trace.termination == Termination.STALLED and trace.rejected == [21]
    assert z[0] == 0.0


def test_lm_minimize_raises_on_a_jacobian_of_the_wrong_shape():
    # A Jacobian whose rows do not match g is a programming error, not a
    # rejected trial: it raises before the first trial step.
    calls = []

    def g(v):
        calls.append(v)
        return v - 1.0

    with pytest.raises(LinearSolveFailure, match="2 rows for 1 residuals"):
        lm_minimize(g, lambda v: np.ones((2, 1)), np.array([0.0]), LmConfig())
    assert len(calls) == 1


def test_lm_minimize_ends_sublinear_tail_early():
    # g = 1/z has its root at infinity: the merit shrinks by a ratio near 1
    # per step and could not reach grad_tol within max_iter.
    def g(v):
        return 1.0 / v

    def h(v):
        return np.array([[-1.0 / v[0] ** 2]])

    _, trace = lm_minimize(g, h, np.array([1.0]), LmConfig())
    assert trace.termination == Termination.SUBLINEAR
    assert trace.iterations < 100
    assert trace.rate == pytest.approx((trace.merits[-1] / trace.merits[-51]) ** (1 / 50))
    assert 0.9 < trace.rate < 1.0
    # The last iteration is not judged: a run that uses its budget is MaxIter.
    _, trace = lm_minimize(g, h, np.array([1.0]), LmConfig(max_iter=RATE_WINDOW))
    assert trace.termination == Termination.MAX_ITER


def test_lm_minimize_keeps_slow_run_that_reaches_tolerance():
    # A singular root: linear rate, but fast enough to reach grad_tol.
    def g(v):
        return np.array([(v[0] ** 2 + v[1] ** 2) ** 2])

    def h(v):
        r = v[0] ** 2 + v[1] ** 2
        return np.array([[4.0 * v[0] * r, 4.0 * v[1] * r]])

    _, trace = lm_minimize(g, h, np.array([1.0, 0.5]), LmConfig())
    assert trace.termination == Termination.GRAD_TOL
    assert trace.iterations > RATE_WINDOW


def test_trace_rate_over_short_runs():
    _, trace = lm_minimize(
        lambda v: v.copy(), lambda v: np.eye(1), np.array([5.0]), LmConfig(max_iter=1)
    )
    assert trace.iterations == 1
    assert trace.rate == trace.merits[1] / trace.merits[0]
    assert LmTrace(merits=[1.0]).rate is None
