from dataclasses import replace

import numpy as np
import pytest

from polysmith import cli, gcdkit, mccoy_opt
from polysmith.detadj import determinant
from polysmith.errors import UnattainableProblem
from polysmith.gcdkit import Analysis, local_invariant_structure
from polysmith.lmsolve import LmConfig, Termination
from polysmith.matpoly import MatPoly, PerturbStructure, taylor_weights
from polysmith.mccoy_opt import (
    McCoyProblem,
    _McCoyWorkspace,
    companion_linearization,
    initial_guess_mccoy,
    reversed_problem,
    solve_mccoy,
)
from polysmith.snf_opt import SnfProblem, _Workspace, initial_guess
from polysmith.structured import numeric_rank

from conftest import FIXTURES
from oracles import (
    det_grid_minima,
    fd_columns,
    mccoy_all_entries_distance,
    mccoy_rank2_instance,
    per_candidate_mccoy_omega,
)


def pencil_as_matpoly(e, f):
    arr = np.zeros((*e.shape, 2))
    arr[:, :, 0] = -f
    arr[:, :, 1] = e
    return MatPoly(arr)


def test_linearization_degree_one_is_input():
    rng = np.random.default_rng(0)
    a = MatPoly(rng.normal(size=(2, 2, 2)))
    e, f = companion_linearization(a)
    assert np.allclose(e, a.coeff[:, :, 1])
    assert np.allclose(f, -a.coeff[:, :, 0])


def test_linearization_preserves_determinant():
    rng = np.random.default_rng(1)
    a = MatPoly(rng.normal(size=(2, 2, 3)))
    det_a = determinant(a).trimmed(1e-10).coeffs
    det_p = determinant(pencil_as_matpoly(*companion_linearization(a))).trimmed(1e-10).coeffs
    same = np.allclose(det_p, det_a, atol=1e-9)
    flipped = np.allclose(det_p, -det_a, atol=1e-9)
    assert same or flipped


def test_linearization_rank_bookkeeping():
    rng = np.random.default_rng(2)
    a = MatPoly(rng.normal(size=(3, 3, 3)))
    e, f = companion_linearization(a)
    for omega in (0.37, -1.1, 0.2 + 0.8j):
        lhs = numeric_rank(e * omega - f)
        rhs = a.rows * (a.degree_bound - 1) + numeric_rank(a.evaluate(omega))
        assert lhs == rhs


def test_residual_zero_at_planted_solution():
    rng = np.random.default_rng(3)
    base = rng.normal(size=(2, 2))
    omega = 0.7
    coeff = np.zeros((2, 2, 2))
    coeff[:, :, 0] = -omega * base
    coeff[:, :, 1] = base
    a = MatPoly(coeff)
    problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
    # p = 0, omega, no X at r = n, and 2 n r zero multipliers.
    z = np.zeros(a.coeff.size + 2 + 2 * 2 * 2)
    z[a.coeff.size] = omega
    ws = _McCoyWorkspace(problem, z)
    assert np.linalg.norm(ws.residual(z)) <= 1e-10


def test_residual_matches_finite_differences():
    a = mccoy_rank2_instance(0)
    problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
    z0 = initial_guess_mccoy(problem)
    ws = _McCoyWorkspace(problem, z0)
    rng = np.random.default_rng(4)
    z = z0 + 0.02 * rng.normal(size=z0.size)

    def lagrangian(v):
        lin = ws.linearize(v)
        return np.array([lin.p @ lin.p + lin.lam @ lin.c])

    fd = fd_columns(lagrangian, z, eps=1e-6).ravel()
    g = ws.residual(z)
    assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd)) <= 1e-5


def sparse_cubic(rng, n):
    """Random n x n cubic with about a third of its coefficients zeroed, so a
    support mask leaves gaps in every coefficient block, as in ex1."""
    coeff = rng.normal(size=(n, n, 4))
    coeff[rng.random(coeff.shape) < 0.35] = 0.0
    coeff[:, :, 3] += np.eye(n)
    return MatPoly(coeff)


def _jacobian_case(kind, r):
    rng = np.random.default_rng(40 + r)
    if kind == "reversed":  # an eigenvalue near infinity of the input
        a = mccoy_rank2_instance(4)
        return reversed_problem(McCoyProblem(a, PerturbStructure.full(a), r=r))
    if kind == "ex2":  # the paper's r = n shape: n = 4, d = 2, support mask
        a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
        return McCoyProblem(a, PerturbStructure.support(a), r=r)
    if kind == "linearized":  # the masked cubic: gaps in every coefficient block
        a = sparse_cubic(rng, 3)
        return McCoyProblem(a, PerturbStructure.support(a), r=r)
    if kind == "constant":
        a = MatPoly(rng.normal(size=(3, 3, 1)))
        return McCoyProblem(a, PerturbStructure.full(a), r=r)
    a = MatPoly(rng.normal(size=(3, 3, 4)))
    return McCoyProblem(a, PerturbStructure.full(a), r=r)


JACOBIAN_CASES = [pytest.param(kind, r, id=f"{kind}-{r}")
                  for kind in ("linearized", "dense", "constant") for r in (2, 3)]
JACOBIAN_CASES.append(pytest.param("ex2", 4, id="ex2-4"))


def _perturbed_state(kind, r, seed):
    """A workspace centred at the seed of a case, and a state near the seed."""
    problem = _jacobian_case(kind, r)
    z0 = initial_guess_mccoy(problem)
    z = z0 + 0.05 * np.random.default_rng(seed).normal(size=z0.size)
    return _McCoyWorkspace(problem, z0), z


@pytest.mark.parametrize("kind, r", JACOBIAN_CASES)
def test_constraint_jacobian_matches_finite_differences(kind, r):
    ws, z = _perturbed_state(kind, r, 50 + r)
    fd = fd_columns(lambda v: ws.linearize(v).c, z)[:, : ws.n_x]
    jac = ws.linearization_at(z).jac
    assert np.linalg.norm(jac - fd) / np.linalg.norm(fd) <= 1e-8


@pytest.mark.parametrize("kind, r", JACOBIAN_CASES)
def test_constraint_jacobian_kernel_blocks_equal_the_kron_product(kind, r):
    # The Re X and Im X columns are (M Q) kron I_r and i times it, written by
    # a broadcast product: bit for bit np.kron, signed zeros included, at
    # r < n and at r = n (no X).  M has a row of signed zeros.
    ws, z = _perturbed_state(kind, r, 70 + r)
    rng = np.random.default_rng(r)
    p, omega, x, _ = ws.unpack(z)
    m = rng.normal(size=(ws.n, ws.n)) + 1j * rng.normal(size=(ws.n, ws.n))
    m[0] = complex(-0.0, 0.0)
    jac = ws.constraint_jacobian(taylor_weights(omega, ws.d, 1)[0], m, m, ws.b0 + ws.q @ x)
    k = np.kron(m @ ws.q, np.eye(ws.r))
    assert k.shape == (ws.nr, (ws.n - ws.r) * ws.r)
    for got, want in ((jac[: ws.nr, ws.sl_xr], k.real), (jac[ws.nr :, ws.sl_xr], k.imag),
                      (jac[: ws.nr, ws.sl_xi], -k.imag), (jac[ws.nr :, ws.sl_xi], k.real)):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("kind, r", [*JACOBIAN_CASES, pytest.param("reversed", 2, id="reversed-2")])
def test_hessian_matches_finite_differences(kind, r):
    ws, z = _perturbed_state(kind, r, 60 + r)
    h_full = ws.hessian(z)
    assert np.array_equal(h_full, h_full.T)
    fd = fd_columns(ws.residual, z)
    assert np.linalg.norm(h_full - fd) / np.linalg.norm(fd) <= 1e-8


def test_residual_and_hessian_share_one_linearization(monkeypatch):
    # One linearization at the seed plus one per trial step; every Hessian
    # is taken at the point whose residual was just accepted, so it reuses it.
    calls = []
    original = _McCoyWorkspace.linearize

    def counted(ws, z):
        calls.append(1)
        return original(ws, z)

    monkeypatch.setattr(_McCoyWorkspace, "linearize", counted)
    a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
    report = solve_mccoy(McCoyProblem(a, PerturbStructure.support(a), r=4), LmConfig())
    trials = report.trace.iterations + sum(report.trace.rejected)
    assert report.trace.iterations == 7
    assert len(calls) == 1 + trials == 8


def test_solve_interpolates_the_determinant_once(monkeypatch):
    # The nonsingularity check and the eigenvalue seed share one Analysis.
    calls = []

    def counted(a, _fn=gcdkit.determinant):
        calls.append(1)
        return _fn(a)

    monkeypatch.setattr(gcdkit, "determinant", counted)
    a = mccoy_rank2_instance(0)
    solve_mccoy(McCoyProblem(a, PerturbStructure.full(a), r=2), LmConfig())
    assert len(calls) == 1


@pytest.mark.parametrize("solver", ["snf", "mccoy"])
def test_linearization_cache_is_read_only(solver):
    # The one cache of lmsolve.KktWorkspace, seen through both solvers.
    a = mccoy_rank2_instance(0)
    if solver == "snf":
        problem = SnfProblem(a, PerturbStructure.full(a), deg_h=1)
        ws, z = _Workspace(problem), initial_guess(problem)
    else:
        problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
        z = initial_guess_mccoy(problem)
        ws = _McCoyWorkspace(problem, z)
    lin = ws.linearization_at(z)
    assert ws.linearization_at(z.copy()) is lin
    names = ("p", "lam", "c", "jac") + (() if solver == "snf" else ("b", "dm", "d2m"))
    for name in names:
        assert not getattr(lin, name).flags.writeable
    z[0] += 1.0
    assert ws.linearization_at(z) is not lin


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("n, r", [(n, r) for n in (2, 3, 4) for r in range(2, n + 1)])
def test_constant_input_reaches_eckart_young_distance(n, r, seed):
    # The nearest matrix of rank n - r drops the rank by r at every omega.
    a = MatPoly(np.random.default_rng(seed).normal(size=(n, n, 1)))
    report = solve_mccoy(McCoyProblem(a, PerturbStructure.full(a), r=r), LmConfig())
    assert report.trace.termination in (Termination.GRAD_TOL, Termination.STEP_TOL)
    s = np.linalg.svd(a.coeff[:, :, 0], compute_uv=False)
    assert report.distance == pytest.approx(np.linalg.norm(s[n - r :]), rel=1e-10)
    assert report.certified
    assert report.delta_a.coeff.shape == a.coeff.shape
    # Rank n - r, measured against |A|: at r = n the solved matrix is zero.
    solved = np.linalg.svd((a + report.delta_a).coeff[:, :, 0], compute_uv=False)
    assert np.count_nonzero(solved > 1e-10 * s[0]) == n - r


def test_initial_guess_candidates_and_orthonormal_kernel():
    # The seed is the chart centre (X = 0, lam = 0), where the frame [Q | B0]
    # is unitary.
    a = MatPoly.from_entries([[[-1, 1], [0], [0]], [[0], [-2, 1], [0]], [[0], [0], [3]]])
    problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
    z0 = initial_guess_mccoy(problem)
    ws = _McCoyWorkspace(problem, z0)
    _, omega, x, lam = ws.unpack(z0)
    assert x.shape == (1, 2) and not x.any() and not lam.any()
    frame = np.hstack([ws.q, ws.b0])
    assert np.linalg.norm(frame.conj().T @ frame - np.eye(3)) <= 1e-12
    assert np.isfinite(omega.real) and np.isfinite(omega.imag)


def _seed_case(rng, case):
    """Seeded dense n = 2..6 input: of degree 1 to 3, constant (no candidates),
    or scaled by 1e200, where A overflows on the outer grid points."""
    n, kind = 2 + case % 5, case % 3
    coeff = rng.normal(size=(n, n, 1 if kind == 1 else int(rng.integers(2, 5))))
    return MatPoly(coeff * (1e200 if kind == 2 else 1.0))


def test_batched_seed_matches_per_candidate_loop_bitwise():
    # One evaluation and one stacked SVD over the finite candidates against one
    # of each per candidate: the same omega, the same |det| grid minima.
    rng = np.random.default_rng(30)
    seen = {"overflow": 0, "no candidates": 0}
    for case in range(60):
        a = _seed_case(rng, case)
        problem = McCoyProblem(a, PerturbStructure.full(a), r=int(rng.integers(2, a.rows + 1)))
        analysis = Analysis(a)
        with np.errstate(over="ignore", invalid="ignore"):
            z = initial_guess_mccoy(problem, analysis)
            omega = per_candidate_mccoy_omega(a, problem.r, analysis)
            grid = mccoy_opt._grid_extrema(analysis)
            values = a.evaluate(np.concatenate([analysis.eigenvalues, grid]))
            want = np.array(det_grid_minima(analysis), dtype=complex)
        assert grid.astype(complex).tobytes() == want.tobytes()
        m_p = problem.structure.num_params
        assert z[m_p : m_p + 2].tobytes() == np.array([omega.real, omega.imag]).tobytes()
        seen["overflow"] += not np.isfinite(values).all()
        seen["no candidates"] += values.shape[0] == 0
    assert min(seen.values()) >= 5, seen


def test_seed_scores_candidates_in_one_evaluation_and_one_svd(monkeypatch):
    # ex1 at r = 4: every candidate in one evaluation and one stacked SVD; the
    # winner's A(omega) and its frame take one more of each.
    a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
    analysis = Analysis(a)
    count = analysis.eigenvalues.size + mccoy_opt._grid_extrema(analysis).size
    points, shapes, evaluate, svd = [], [], MatPoly.evaluate, np.linalg.svd
    monkeypatch.setattr(MatPoly, "evaluate",
                        lambda self, z: points.append(np.shape(z)) or evaluate(self, z))
    monkeypatch.setattr(np.linalg, "svd",
                        lambda m, *args, **kw: shapes.append(np.shape(m)) or svd(m, *args, **kw))
    initial_guess_mccoy(McCoyProblem(a, PerturbStructure.support(a), r=4), analysis)
    assert points == [(count,), ()] and shapes == [(count, 4, 4), (4, 4)] and count > 1


def test_solve_repeated_eigenvalue_distance_zero():
    a = MatPoly.from_entries([[[-1, 1], [0]], [[0], [-1, 1]]])
    report = solve_mccoy(McCoyProblem(a, PerturbStructure.degree(a), r=2), LmConfig())
    assert report.distance <= 1e-10


def test_solve_matches_all_entries_vanish_oracle():
    for seed in (0, 1):
        a = mccoy_rank2_instance(seed)
        report = solve_mccoy(McCoyProblem(a, PerturbStructure.full(a), r=2), LmConfig())
        assert report.trace.termination in (Termination.GRAD_TOL, Termination.STEP_TOL)
        want = mccoy_all_entries_distance(a)
        assert report.distance == pytest.approx(want, abs=1e-6)
        _assert_mccoy_invariants(a, report)


def _assert_mccoy_invariants(a, report):
    bc = report.kernel
    assert bc.shape[0] == a.rows
    assert np.linalg.norm(bc.conj().T @ bc - np.eye(bc.shape[1])) <= 1e-8
    solved = a + report.delta_a
    # Kernel columns really annihilate the solved matrix.
    m = solved.evaluate(report.omega)
    assert np.linalg.norm(m @ bc) <= 1e-7 * (1.0 + np.linalg.norm(m))
    s = np.linalg.svd(m, compute_uv=False)
    assert s[-bc.shape[1]] <= 1e-8 * max(1.0, s[0])
    assert np.all(np.isfinite(report.delta_a.coeff))
    merits = report.trace.merits
    assert all(b < a_ for a_, b in zip(merits, merits[1:]))


def test_solve_conjugation_symmetry():
    a = mccoy_rank2_instance(2)
    problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
    z0 = initial_guess_mccoy(problem)
    ws = _McCoyWorkspace(problem, z0)
    report = solve_mccoy(problem, LmConfig(), z0=z0)
    z0_conj = z0.copy()
    z0_conj[ws.sl_w.start + 1] *= -1.0
    z0_conj[ws.sl_xi] *= -1.0
    report_conj = solve_mccoy(problem, LmConfig(), z0=z0_conj)
    assert report.distance == pytest.approx(report_conj.distance, abs=1e-8)


def test_solve_scaling_covariance():
    a = mccoy_rank2_instance(3)
    cfg = LmConfig()
    rep1 = solve_mccoy(McCoyProblem(a, PerturbStructure.full(a), r=2), cfg)
    scaled = 2.0 * a
    rep2 = solve_mccoy(McCoyProblem(scaled, PerturbStructure.full(scaled), r=2), cfg)
    assert rep2.distance == pytest.approx(2.0 * rep1.distance, abs=1e-6)
    assert rep2.omega.real == pytest.approx(rep1.omega.real, abs=1e-6)
    assert abs(rep2.omega.imag) == pytest.approx(abs(rep1.omega.imag), abs=1e-6)


def test_reversed_problem_round_trip_and_profile():
    z = [0.0]
    c = MatPoly.from_entries(
        [
            [[0, 1], [-1, 1], z, z],
            [[1, 1], [0, 1], z, z],
            [z, z, [0, 1], [-1, 1]],
            [z, z, [1, 1], [0, 1]],
        ],
        degree_bound=1,
    )
    problem = McCoyProblem(c, PerturbStructure.support(c), r=2)
    rev = reversed_problem(problem)
    assert np.array_equal(rev.structure.mask, problem.structure.mask[:, :, ::-1])
    back = reversed_problem(rev)
    assert np.allclose(back.a.coeff, c.coeff)
    profile = local_invariant_structure(rev.a, 0.0)
    assert profile == [(0, 2), (2, 2)]


def test_rank_drop_two_takes_the_attainability_verdict():
    # A rank drop of 2 is a non-trivial Smith form: where snf finds the
    # infimum at infinity, mccoy raises too, and the reversal reaches it.
    a = cli.parse(str(FIXTURES / "unattainable_C.json")).to_matpoly()
    problem = McCoyProblem(a, PerturbStructure.support(a), r=2)
    with pytest.raises(UnattainableProblem, match=r"reversed_problem\(problem\)"):
        solve_mccoy(problem)
    report = solve_mccoy(reversed_problem(problem))
    # The eigenvalue 0 of the reversal is double, so omega moves with the root of the distance.
    assert report.distance < 1e-10 and abs(report.omega) < 1e-5
    assert report.certified
    # A rank drop of 3 is not gated: its plain minimum beats the reversal's.
    plain = solve_mccoy(replace(problem, r=3))
    assert plain.distance == pytest.approx(np.sqrt(3.0), rel=1e-12)
    assert solve_mccoy(reversed_problem(replace(problem, r=3))).distance == pytest.approx(2.0)


def test_reversed_solve_reaches_infimum_at_infinity():
    # A = C + E t with <C, E> = 0 and |E| < |C|: |C + w E|^2 / (1 + |w|^2)
    # falls towards |E|^2 as |w| grows, so the plain solve cannot converge,
    # while on the reversal E + C t zeroing E puts the eigenvalue at 0.
    rng = np.random.default_rng(1)
    c, e = rng.normal(size=(2, 2, 2))
    e = 0.2 * (e - np.sum(c * e) / np.sum(c * c) * c)
    a = MatPoly(np.stack([c, e], axis=2))
    problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
    assert solve_mccoy(problem, LmConfig()).trace.termination == Termination.SUBLINEAR
    report = solve_mccoy(reversed_problem(problem), LmConfig())
    assert abs(report.omega) <= 1e-8
    assert report.distance == pytest.approx(np.linalg.norm(e), rel=1e-10)
    assert report.distance == pytest.approx(0.2545527, abs=1e-7)
    assert report.certified


def test_linearized_kernel_maps_back_to_matrix_kernel():
    rng = np.random.default_rng(6)
    base = rng.normal(size=(2, 2))
    coeff = np.zeros((2, 2, 3))
    # (t^2 - 0.3 t - 0.4) * base has a kernel of dimension 2 at both roots
    coeff[:, :, 0] = -0.4 * base
    coeff[:, :, 1] = -0.3 * base
    coeff[:, :, 2] = base
    coeff += 0.03 * rng.normal(size=coeff.shape)
    a = MatPoly(coeff)
    report = solve_mccoy(McCoyProblem(a, PerturbStructure.full(a), r=2), LmConfig())
    assert report.trace.termination == Termination.GRAD_TOL
    solved = a + report.delta_a
    # The kernel is an orthonormal n x r basis of the kernel of the solved
    # matrix polynomial itself at omega.
    kernel = report.kernel
    assert kernel.shape == (2, 2)
    assert np.linalg.norm(kernel.conj().T @ kernel - np.eye(2)) <= 1e-12
    assert np.linalg.norm(solved.evaluate(report.omega) @ kernel) <= 1e-7
    s = np.linalg.svd(solved.evaluate(report.omega), compute_uv=False)
    assert s[-2] <= 1e-8 * max(1.0, s[0])


def test_divergence_watchdog_raises():
    a = mccoy_rank2_instance(5)
    problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
    z_far = initial_guess_mccoy(problem)
    z_far[a.coeff.size : a.coeff.size + 2] = 2e8, 0.0
    # There is no `mccoy --reversal`: the advice names the library's transform.
    with pytest.raises(UnattainableProblem, match=r"lies at infinity; solve "
                       r"mccoy_opt\.reversed_problem\(problem\)"):
        solve_mccoy(problem, LmConfig(), z0=z_far)


def test_ex2_converges_in_few_iterations():
    # The gain-ratio shift reaches the quadratic phase early: 7 iterations.
    a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
    report = solve_mccoy(McCoyProblem(a, PerturbStructure.support(a), r=4), LmConfig())
    assert report.trace.termination == Termination.GRAD_TOL
    assert report.trace.iterations <= 20


def test_empty_mask_seeds_zero_perturbation():
    # No free coefficient: the least-norm seed solve has no columns.
    a = mccoy_rank2_instance(0)
    report = solve_mccoy(McCoyProblem(a, PerturbStructure(np.zeros_like(a.coeff, dtype=bool)), r=2))
    assert report.distance == 0.0
    assert not report.certified
