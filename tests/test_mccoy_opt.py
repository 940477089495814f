import numpy as np
import pytest

from polysmith import cli, gcdkit, mccoy_opt
from polysmith.detadj import determinant
from polysmith.errors import UnattainableProblem
from polysmith.gcdkit import local_invariant_structure
from polysmith.lmsolve import LmConfig, Termination
from polysmith.matpoly import MatPoly, PerturbStructure
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
    fd_columns,
    mccoy_all_entries_distance,
    mccoy_constraint_jacobian_loop,
    mccoy_hessian_loop,
    mccoy_rank2_instance,
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
    ws = _McCoyWorkspace(problem)
    m, _ = ws.operator(a, omega)
    _, _, vh = np.linalg.svd(m)
    bc = vh[-2:, :].conj().T
    z = ws.pack(np.zeros(ws.m_p), complex(omega), bc.real.copy(), bc.imag.copy(), np.zeros(ws.n_c))
    assert np.linalg.norm(ws.residual(z)) <= 1e-10


def test_residual_matches_finite_differences():
    a = mccoy_rank2_instance(0)
    problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
    ws = _McCoyWorkspace(problem)
    rng = np.random.default_rng(4)
    z = initial_guess_mccoy(problem) + 0.02 * rng.normal(size=ws.n_x + ws.n_c)

    def lagrangian(v):
        p, omega, br, bi, lam = ws.unpack(v)
        m, _ = ws.operator(ws.perturbed(p), omega)
        return np.array([p @ p + lam @ ws.constraint(m, br + 1j * bi)])

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


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(7)
    quad = MatPoly(rng.normal(size=(2, 2, 3)))
    rev = mccoy_rank2_instance(4)
    quad3 = MatPoly(rng.normal(size=(3, 3, 3)))
    cubic = sparse_cubic(rng, 3)
    constant = MatPoly(rng.normal(size=(3, 3, 1)))
    problems = [
        McCoyProblem(quad, PerturbStructure.full(quad), r=2),
        reversed_problem(McCoyProblem(rev, PerturbStructure.full(rev), r=2)),
        McCoyProblem(quad3, PerturbStructure.full(quad3), r=3),
        McCoyProblem(cubic, PerturbStructure.support(cubic), r=2),
        McCoyProblem(constant, PerturbStructure.full(constant), r=2),
    ]
    for problem in problems:
        ws = _McCoyWorkspace(problem)
        z = initial_guess_mccoy(problem) + 0.05 * rng.normal(size=ws.n_x + ws.n_c)
        h_full = ws.hessian(z)
        assert np.array_equal(h_full, h_full.T)
        fd = fd_columns(ws.residual, z, eps=1e-6)
        assert np.linalg.norm(h_full - fd) / np.linalg.norm(fd) <= 1e-8


def _jacobian_case(kind, r):
    rng = np.random.default_rng(40 + r)
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


@pytest.mark.parametrize("kind, r", JACOBIAN_CASES)
def test_constraint_jacobian_matches_loop_bitwise(kind, r):
    problem = _jacobian_case(kind, r)
    ws = _McCoyWorkspace(problem)
    rng = np.random.default_rng(50 + r)
    for _ in range(3):
        z = rng.normal(size=ws.n_x + ws.n_c)
        p, omega, br, bi, _ = ws.unpack(z)
        bc = br + 1j * bi
        m, dm = ws.operator(ws.perturbed(p), omega)
        want = mccoy_constraint_jacobian_loop(ws, m, dm, bc, omega)
        assert np.array_equal(ws.constraint_jacobian(m, dm, bc, omega), want)
        assert np.array_equal(ws.linearization_at(z).jac, want)


@pytest.mark.parametrize("kind, r", JACOBIAN_CASES)
def test_hessian_matches_loop_bitwise(kind, r):
    ws = _McCoyWorkspace(_jacobian_case(kind, r))
    rng = np.random.default_rng(60 + r)
    for _ in range(3):
        z = rng.normal(size=ws.n_x + ws.n_c)
        got = ws.hessian(z)
        assert np.array_equal(got, mccoy_hessian_loop(ws, z))
        assert np.array_equal(got, got.T)


def test_residual_and_hessian_share_one_linearization(monkeypatch):
    # One linearization for the seed plus one per residual; every Hessian is
    # taken at the point whose residual was just accepted, so it reuses it.
    calls = []
    original = mccoy_opt.companion_linearization

    def counted(a):
        calls.append(1)
        return original(a)

    monkeypatch.setattr(mccoy_opt, "companion_linearization", counted)
    a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
    report = solve_mccoy(McCoyProblem(a, PerturbStructure.support(a), r=4), LmConfig())
    residuals = report.trace.iterations + 1 + sum(report.trace.rejected)
    assert report.trace.iterations == 11
    assert len(calls) == 1 + residuals == 13


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
        ws, z = _McCoyWorkspace(problem), initial_guess_mccoy(problem)
    lin = ws.linearization_at(z)
    assert ws.linearization_at(z.copy()) is lin
    names = ("p", "lam", "c", "jac") + (() if solver == "snf" else ("bc", "m", "dm"))
    for name in names:
        assert not getattr(lin, name).flags.writeable
    z[0] += 1.0
    assert ws.linearization_at(z) is not lin


@pytest.mark.parametrize("seed", [0, 8])
def test_constant_input_reaches_eckart_young_distance(seed):
    # The nearest matrix of rank 1 drops the rank by 2 at every omega.
    a = MatPoly(np.random.default_rng(seed).normal(size=(3, 3, 1)))
    report = solve_mccoy(McCoyProblem(a, PerturbStructure.full(a), r=2), LmConfig())
    assert report.trace.termination in (Termination.GRAD_TOL, Termination.STEP_TOL)
    s = np.linalg.svd(a.coeff[:, :, 0], compute_uv=False)
    assert report.distance == pytest.approx(np.hypot(s[1], s[2]), rel=1e-10)
    assert report.delta_a.coeff.shape == a.coeff.shape
    assert numeric_rank((a + report.delta_a).coeff[:, :, 0]) == 1


def test_initial_guess_candidates_and_orthonormal_kernel():
    a = MatPoly.from_entries([[[-1, 1], [0]], [[0], [-2, 1]]])
    problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
    ws = _McCoyWorkspace(problem)
    z0 = initial_guess_mccoy(problem)
    _, omega, br, bi, _ = ws.unpack(z0)
    bc = br + 1j * bi
    assert np.linalg.norm(bc.conj().T @ bc - np.eye(2)) <= 1e-12
    assert np.isfinite(omega.real) and np.isfinite(omega.imag)


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
    assert np.linalg.norm(bc.conj().T @ bc - np.eye(bc.shape[1])) <= 1e-8
    solved = a + report.delta_a
    # Kernel block columns really annihilate the solved pencil/matrix.
    m = solved.evaluate(report.omega)
    if bc.shape[0] == a.rows:
        assert np.linalg.norm(m @ bc) <= 1e-7 * (1.0 + np.linalg.norm(m))
    s = np.linalg.svd(m, compute_uv=False)
    assert s[-bc.shape[1]] <= 1e-8 * max(1.0, s[0])
    assert np.all(np.isfinite(report.delta_a.coeff))
    merits = report.trace.merits
    assert all(b < a_ for a_, b in zip(merits, merits[1:]))


def test_solve_conjugation_symmetry():
    a = mccoy_rank2_instance(2)
    problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
    ws = _McCoyWorkspace(problem)
    z0 = initial_guess_mccoy(problem)
    report = solve_mccoy(problem, LmConfig(), z0=z0)
    p, omega, br, bi, lam = ws.unpack(z0)
    z0_conj = ws.pack(p, omega.conjugate(), br, -bi, lam)
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
    omega = report.omega
    n, d = 2, 2
    kernel = report.kernel
    assert kernel.shape[0] == n * d
    top = kernel[:n, :]
    # Pencil kernel vectors stack x, omega x, ..., so the top block is a
    # kernel block of the solved matrix polynomial itself.
    assert np.linalg.norm(solved.evaluate(omega) @ top) <= 1e-7
    assert np.allclose(kernel[n:, :], omega * top, atol=1e-7)
    s = np.linalg.svd(solved.evaluate(omega), compute_uv=False)
    assert s[-2] <= 1e-8 * max(1.0, s[0])


def test_divergence_watchdog_raises():
    a = mccoy_rank2_instance(5)
    problem = McCoyProblem(a, PerturbStructure.full(a), r=2)
    ws = _McCoyWorkspace(problem)
    z0 = initial_guess_mccoy(problem)
    p, omega, br, bi, lam = ws.unpack(z0)
    z_far = ws.pack(p, 2e8 + 0j, br, bi, lam)
    # There is no `mccoy --reversal`: the advice names the library's transform.
    with pytest.raises(UnattainableProblem, match=r"lies at infinity; solve "
                       r"mccoy_opt\.reversed_problem\(problem\)"):
        solve_mccoy(problem, LmConfig(), z0=z_far)


def test_ex2_converges_in_few_iterations():
    # The gain-ratio shift reaches the quadratic phase early: 11 iterations.
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
