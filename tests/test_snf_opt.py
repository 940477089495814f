import json

import numpy as np
import pytest

from polysmith import cli, gcdkit, mccoy_opt, snf_opt
from polysmith.detadj import adjoint
from polysmith.gcdkit import distance_lower_bound
from polysmith.lmsolve import LmConfig, Termination, certify
from polysmith.matpoly import MatPoly, PerturbStructure, Poly
from polysmith.mccoy_opt import (
    McCoyProblem,
    _McCoyWorkspace,
    initial_guess_mccoy,
    reversed_problem,
    solve_mccoy,
)
from polysmith.snf_opt import (
    SnfProblem,
    _Workspace,
    initial_guess,
    live_entries,
    solve,
    solve_best_degree,
)

from conftest import FIXTURES
from oracles import (
    conv_matrix_loop,
    diagonal_projection_distance,
    diagonal_snf_instance,
    fd_columns,
    mccoy_rank2_instance,
    per_root_divisor_root,
    per_root_rank_drop_score,
    random_full_rank_matpoly,
    snf_kkt_hessian_block,
)
from test_gcdkit import SEED_GOLDEN


def nontrivial_2x2():
    # diag(t-1, t-1) times a unimodular factor, so the divisor t-1 is exact.
    base = MatPoly.from_entries([[[-1, 1], [0]], [[0], [-1, 1]]])
    uni = MatPoly.from_entries([[[1], [0, 1]], [[0], [1]]])
    return base @ uni


def test_kkt_residual_zero_at_exact_solution():
    a = nontrivial_2x2()
    problem = SnfProblem(a, PerturbStructure.degree(a), deg_h=1)
    z0 = initial_guess(problem)
    g = _Workspace(problem).residual(z0)
    assert np.linalg.norm(g) <= 1e-9


def test_kkt_residual_matches_finite_differences():
    mat, _, _ = diagonal_snf_instance(0)
    problem = SnfProblem(mat, PerturbStructure.degree(mat), deg_h=1)
    ws = _Workspace(problem)
    rng = np.random.default_rng(11)
    z = initial_guess(problem) + 0.02 * rng.normal(size=ws.n_x + ws.n_c)

    def lagrangian(v):
        lin = ws.linearization_at(v)
        return np.array([lin.p @ lin.p + lin.lam @ lin.c])

    fd = fd_columns(lagrangian, z, eps=1e-6).ravel()
    g = ws.residual(z)
    assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(fd)) <= 1e-5


def test_kkt_hessian_blocks_and_symmetry():
    mat, _, _ = diagonal_snf_instance(1)
    problem = SnfProblem(mat, PerturbStructure.degree(mat), deg_h=1)
    ws = _Workspace(problem)
    z0 = initial_guess(problem)
    # Zero multipliers at the initial point: the perturbation block is 2I.
    h_full = ws.hessian(z0)
    block = h_full[: ws.m_p, : ws.m_p]
    assert np.allclose(block, 2.0 * np.eye(ws.m_p), atol=1e-7)
    assert np.array_equal(h_full, h_full.T)


def _hessian_case(kind):
    if kind.startswith("ex1"):
        a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
        return a, PerturbStructure.support(a), int(kind[-1])
    mat, _, _ = diagonal_snf_instance(9)
    return mat, PerturbStructure.degree(mat), 1


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", ["ex1-deg1", "ex1-deg2", "diagonal"])
def test_kkt_hessian_matches_block_assembly_bitwise(kind, reverse):
    a, structure, deg_h = _hessian_case(kind)
    problem = SnfProblem(a, structure, deg_h=deg_h)
    ws = _Workspace(reversed_problem(problem) if reverse else problem)
    rng = np.random.default_rng(17)
    for _ in range(2):
        z = rng.normal(size=ws.n_x + ws.n_c)
        z[ws.sl_p] *= 1e-2
        got = ws.hessian(z)
        assert np.array_equal(got, snf_kkt_hessian_block(ws, z))
        assert np.array_equal(got, got.T)
        _, f_vec, h, _ = ws.unpack(z)
        blocks = f_vec.reshape(ws.n_live, ws.deg_f + 1)
        assert np.array_equal(ws.divisor_matrix(h), conv_matrix_loop(h, ws.deg_f + 1))
        assert np.array_equal(ws.cofactor_blocks(f_vec),
                              np.vstack([conv_matrix_loop(b, ws.n_h) for b in blocks]))


def _random_sparse_case(rng, n, d):
    """Gaussian coefficients on a random set of entries, and a mask on
    random coefficients of another random set of entries."""
    entries, masked = rng.random((n, n, 1)) < 0.6, rng.random((n, n, 1)) < 0.2
    a = MatPoly(np.where(entries, rng.normal(size=(n, n, d + 1)), 0.0))
    return a, PerturbStructure(masked & (rng.random((n, n, d + 1)) < 0.7))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_dropped_adjugate_entries_vanish_for_every_perturbation(n, d):
    # The workspace constrains only the live adjugate entries.  A dropped
    # entry is zero at every admissible p, and a kept one is not
    # identically zero, for the input and for its reversal (the data of
    # reversed_problem).
    rng = np.random.default_rng(1000 * n + d)
    for _ in range(3):
        a, structure = _random_sparse_case(rng, n, d)
        for a, structure in ((a, structure), (a.reversed(), structure.reversed())):
            live = live_entries(a, structure)
            dead = np.setdiff1d(np.arange(n * n), live)
            for k in range(3):
                p = rng.normal(size=structure.num_params)
                adj = adjoint(structure.apply(a, p)).coeff.transpose(1, 0, 2).reshape(n * n, -1)
                scale = np.max(np.abs(adj))
                assert np.max(np.abs(adj[dead]), initial=0.0) <= 1e-12 * scale
                if k == 0:
                    assert np.all(np.max(np.abs(adj[live]), axis=1) > 1e-8 * scale)
            if (n - 1) * d >= 1:
                ws = _Workspace(SnfProblem(a, structure, deg_h=1))
                assert np.array_equal(ws.live, live)
                assert ws.n_c == live.size * ((n - 1) * d + 1) + 1


def test_kkt_size_counts_live_entries_only():
    a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
    for deg_h, rows in ((2, 165), (1, 172)):
        ws = _Workspace(SnfProblem(a, PerturbStructure.support(a), deg_h=deg_h))
        assert ws.live.size == 8 and ws.n_x + ws.n_c == rows
    mat, _, _ = diagonal_snf_instance(0)
    ws = _Workspace(SnfProblem(mat, PerturbStructure.degree(mat), deg_h=1))
    assert ws.live.tolist() == [0, 3] and ws.n_x + ws.n_c == 19
    dense = random_full_rank_matpoly(np.random.default_rng(3), 3, 2)
    ws = _Workspace(SnfProblem(dense, PerturbStructure.full(dense), deg_h=1))
    assert ws.live.tolist() == list(range(9)) and ws.n_x + ws.n_c == 111


def test_reachable_degrees_run_once_per_workspace_outside_the_loop(monkeypatch):
    # The permutation loop of reachable_adjoint_degrees is factorial in n;
    # one call per input serves the attainability verdict and every
    # divisor degree's workspace, and none runs from inside lm_minimize.
    calls, inside = [], []

    def counted(*args, _fn=gcdkit.reachable_adjoint_degrees):
        calls.append(1)
        return _fn(*args)

    def loop(*args, _fn=snf_opt.lm_minimize):
        before = len(calls)
        out = _fn(*args)
        inside.append(len(calls) - before)
        return out

    monkeypatch.setattr(gcdkit, "reachable_adjoint_degrees", counted)
    monkeypatch.setattr(snf_opt, "reachable_adjoint_degrees", counted)
    monkeypatch.setattr(snf_opt, "lm_minimize", loop)
    a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
    report = solve(SnfProblem(a, PerturbStructure.support(a), deg_h=2), LmConfig())
    assert report.trace.iterations == 19
    assert len(calls) == 1 and inside == [0]
    calls.clear()
    inside.clear()
    solve_best_degree(a, PerturbStructure.support(a), LmConfig())
    assert len(calls) == 1 and inside == [0, 0]


def test_report_records_every_seed_and_its_score():
    # ex1 --deg-h 2: the shortlisted fits of SEED_GOLDEN["ex1-2"] with their
    # rank-drop scores, in candidate order; the solve starts from the first
    # with the least score.
    a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
    problem = SnfProblem(a, PerturbStructure.support(a), deg_h=2)
    report = solve(problem, LmConfig())
    fits, scores = zip(*report.seeds)
    assert [float(fit.residual).hex() for fit in fits] == \
        [residual for _, residual in SEED_GOLDEN["ex1-2"][0]]
    chosen = scores.index(min(scores))
    ws = _Workspace(problem)
    z0 = initial_guess(problem, ws)
    assert np.array_equal(ws.unpack(z0)[2], fits[chosen].h.coeffs)


def _rank_drop_cases():
    # Workspaces of 2x2 diagonal, dense n=3 (d=1, 2) and ex1 inputs under
    # every mask kind, with their shortlisted fits, then random monic
    # divisors (real and complex roots, a constant one, roots at zero under
    # a mask without constant terms, where the weight vanishes).
    rng = np.random.default_rng(27)
    ex1 = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
    inputs = [(diagonal_snf_instance(seed)[0], 1) for seed in range(20)]
    inputs += [(random_full_rank_matpoly(rng, 3, d), deg_h) for d in (1, 2) for deg_h in (1, 2)
               for _ in range(4)]
    inputs += [(ex1, 1), (ex1, 2)]
    for k, (a, deg_h) in enumerate(inputs):
        kind = (PerturbStructure.degree, PerturbStructure.support, PerturbStructure.full)[k % 3]
        ws = _Workspace(SnfProblem(a, kind(a), deg_h=deg_h))
        yield ws, [fit for fit, _ in ws.seeds]
        divisors = [np.concatenate([rng.normal(size=deg_h) * 10.0 ** rng.uniform(-3, 3), [1.0]])
                    for _ in range(6)] + [np.array([1.0]), np.eye(deg_h + 1)[-1]]
        yield ws, [gcdkit.ApproxGcdResult(Poly(h), [], 0.0, 0, "converged") for h in divisors]
    a = random_full_rank_matpoly(rng, 3, 2)
    mask = np.ones(a.coeff.shape, dtype=bool)
    mask[:, :, 0] = False
    ws = _Workspace(SnfProblem(a, PerturbStructure(mask), deg_h=2))
    yield ws, [gcdkit.ApproxGcdResult(Poly(h), [], 0.0, 0, "converged")
               for h in ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, -0.5, 1.0])]


def test_batched_rank_drop_scores_match_per_root_loop_bitwise():
    seen = {"finite": 0, "inf": 0, "complex roots": 0}
    for ws, fits in _rank_drop_cases():
        got = snf_opt._rank_drop_scores(ws, fits)
        want = [per_root_rank_drop_score(ws, fit) for fit in fits]
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
        seen["finite"] += sum(np.isfinite(want))
        seen["inf"] += sum(np.isinf(want))
        seen["complex roots"] += sum(fit.h.coeffs[1] ** 2 < 4 * fit.h.coeffs[0]
                                     for fit in fits if fit.h.coeffs.size == 3)
    assert min(seen.values()) >= 5, seen


def test_batched_divisor_root_matches_per_root_loop_bitwise():
    # The reported root of divisors with two real roots (A drops rank by two
    # at one of them), a complex pair, one root or none, on dense n = 2..6
    # inputs: one stacked SVD over the real roots against one evaluation and
    # one SVD per root.
    rng = np.random.default_rng(30)
    seen = {"first of two": 0, "second of two": 0, "complex": 0, "linear": 0, "constant": 0}
    for case in range(100):
        a = random_full_rank_matpoly(rng, 2 + case % 5, int(rng.integers(1, 4)))
        kind = ("two", "two", "complex", "linear", "constant")[case % 5]
        if kind == "two":
            roots = rng.uniform(-2.0, 2.0, 2)
            drop = MatPoly(np.zeros((a.rows, a.rows, 2)))
            drop.coeff[np.arange(a.rows), np.arange(a.rows), 0] = 1.0
            drop.coeff[[0, 1], [0, 1]] = [-roots[rng.integers(2)], 1.0]
            a, h = drop @ a, Poly(np.polynomial.polynomial.polyfromroots(roots))
        elif kind == "complex":
            h = Poly([rng.uniform(1.0, 2.0), rng.uniform(-1.0, 1.0), 1.0])
        else:
            h = Poly(rng.normal(size=2) if kind == "linear" else [rng.normal()])
        got, want = snf_opt._divisor_root(h, a), per_root_divisor_root(h, a)
        assert np.complex128(got).tobytes() == np.complex128(want).tobytes()
        if kind == "two":
            kind = ("first", "second")[int(got == snf_opt._divisor_roots(h)[1])] + " of two"
        seen[kind] += 1
    assert min(seen.values()) >= 5, seen


def test_linear_divisor_root_is_np_roots_bitwise():
    # A trimmed linear divisor's root is -h0/h1 without np.roots' eigvals;
    # random pairs over sixteen decades each, zero constant terms of both
    # signs, and pairs that trim to a constant.  Quadratics keep np.roots.
    rng = np.random.default_rng(28)
    pairs = rng.normal(size=(5000, 2)) * 10.0 ** rng.uniform(-8, 8, size=(5000, 2))
    pairs = np.vstack([pairs, [[0.0, 1.0], [-0.0, 2.5], [0.0, -3.0], [1.0, 1e-13]]])
    seen = {0: 0, 1: 0}
    for h0, h1 in pairs:
        h = Poly([h0, h1])
        trimmed = h.trimmed(1e-12)
        want = np.roots(trimmed.coeffs[::-1]) if trimmed.degree() >= 1 else np.zeros(0)
        got = snf_opt._divisor_roots(h)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (h0, h1)
        seen[got.size] += 1
    assert seen[0] >= 1 and seen[1] >= 4500
    quadratic = Poly([0.5, -0.3, 1.0])
    assert snf_opt._divisor_roots(quadratic).tobytes() == np.roots([1.0, -0.3, 0.5]).tobytes()


def singular_at_one_3x3(seed):
    # A(1) has rank 2, so det A has a root at t = 1, one of the nodes.
    rng = np.random.default_rng(seed)
    lead = rng.normal(size=(3, 3))
    at_one = rng.normal(size=(3, 2)) @ rng.normal(size=(2, 3))
    return MatPoly(np.stack([at_one - lead, lead], axis=2))


def test_kkt_hessian_matches_finite_differences():
    diag, _, _ = diagonal_snf_instance(2)
    dense = singular_at_one_3x3(16)
    assert abs(np.linalg.det(dense.evaluate(1.0))) <= 1e-12
    rng = np.random.default_rng(12)
    for mat, structure in ((diag, PerturbStructure.degree(diag)),
                           (dense, PerturbStructure.full(dense))):
        problem = SnfProblem(mat, structure, deg_h=1)
        ws = _Workspace(problem)
        z = initial_guess(problem) + 0.02 * rng.normal(size=ws.n_x + ws.n_c)
        h_full = ws.hessian(z)
        fd = fd_columns(ws.residual, z, eps=1e-6)
        assert np.linalg.norm(h_full - fd) / np.linalg.norm(fd) <= 1e-4
        # The adjoint curvature alone: zero for 2x2, from (n-3)-minors above.
        curv = h_full[ws.sl_p, ws.sl_p] - 2.0 * np.eye(ws.m_p)
        fd_curv = fd[ws.sl_p, ws.sl_p] - 2.0 * np.eye(ws.m_p)
        assert np.linalg.norm(curv - fd_curv) <= 1e-6 * max(1.0, np.linalg.norm(fd_curv))
        if mat.rows == 2:
            assert np.all(curv == 0.0)
        else:
            assert np.linalg.norm(fd_curv) >= 1e-2


def test_initial_guess_near_planted_solution():
    rng = np.random.default_rng(13)
    base = nontrivial_2x2()
    noise = 1e-3 * rng.normal(size=base.coeff.shape)
    noisy = MatPoly(base.coeff + noise)
    problem = SnfProblem(noisy, PerturbStructure.full(noisy), deg_h=1)
    g = _Workspace(problem).residual(initial_guess(problem))
    assert np.linalg.norm(g) <= 10.0 * np.linalg.norm(noise) * 10.0


def test_solve_exact_nontrivial_distance_zero():
    a = nontrivial_2x2()
    report = solve(SnfProblem(a, PerturbStructure.degree(a), deg_h=1), LmConfig())
    assert report.distance <= 1e-10
    assert np.all(report.delta_a.coeff == 0.0) or report.distance <= 1e-10
    assert report.certified


def test_solve_diagonal_instances_match_projection_oracle():
    # 23, 62, 64, 71, 102 and 112 ended in local minima (64 Stalled) while the
    # seed score ignored the perturbation structure.
    for seed in (3, 4, 23, 62, 64, 71, 102, 112):
        mat, f, g = diagonal_snf_instance(seed)
        report = solve(SnfProblem(mat, PerturbStructure.degree(mat), deg_h=1), LmConfig())
        assert report.trace.termination in (Termination.GRAD_TOL, Termination.STEP_TOL)
        want = diagonal_projection_distance(f, g)
        assert report.distance == pytest.approx(want, abs=1e-6)
        _assert_report_invariants(mat, report)


def _assert_report_invariants(mat, report):
    # Mask respect: off-diagonals of the diagonal instances stay exactly zero.
    assert np.all(report.delta_a.coeff[0, 1] == 0.0)
    assert np.all(report.delta_a.coeff[1, 0] == 0.0)
    # Rank drop of at least two at the divisor root.
    solved = mat + report.delta_a
    s = np.linalg.svd(solved.evaluate(report.omega), compute_uv=False)
    assert s[-2] <= 1e-8 * max(1.0, s[0])
    # Constraint residual against the recomputed adjoint.
    adj = adjoint(solved)
    fitted = report.cofactors * report.h
    residual = (adj - fitted.with_degree_bound(adj.degree_bound)).frobenius_norm()
    assert residual <= 1e-8 * (1.0 + adj.frobenius_norm())
    # Merit decreases monotonically along accepted iterations.
    merits = report.trace.merits
    assert all(b < a for a, b in zip(merits, merits[1:]))
    # Distance dominates the Sylvester lower bound.
    bound, _ = distance_lower_bound(mat)
    assert report.distance >= bound - 1e-12


def test_solve_distance_dominates_lower_bound():
    mat, _, _ = diagonal_snf_instance(5)
    report = solve(SnfProblem(mat, PerturbStructure.degree(mat), deg_h=1), LmConfig())
    bound, _ = distance_lower_bound(mat)
    assert bound <= report.distance


def _certify_case(solver):
    """(report, residual, Hessian, n_x) of a converged solve by either solver."""
    if solver == "snf":
        mat, _, _ = diagonal_snf_instance(6)
        problem = SnfProblem(mat, PerturbStructure.degree(mat), deg_h=1)
        ws = _Workspace(problem)
        report = solve(problem, LmConfig())
    else:
        mat = mccoy_rank2_instance(0)
        problem = McCoyProblem(mat, PerturbStructure.full(mat), r=2)
        z0 = initial_guess_mccoy(problem)
        ws = _McCoyWorkspace(problem, z0)
        report = solve_mccoy(problem, LmConfig(), z0=z0)
    return report, ws.residual, ws.hessian, ws.n_x


@pytest.mark.parametrize("solver", ["snf", "mccoy"])
def test_certify_rejects_non_stationary_point(solver):
    # One certificate for both solvers: it holds at the solution and fails
    # once z is moved off it.
    report, residual, hessian, n_x = _certify_case(solver)
    assert report.certified
    assert certify(residual, hessian, report.z, n_x, report.trace) is True
    rng = np.random.default_rng(14)
    moved = report.z + 0.5 * rng.normal(size=report.z.size)
    assert certify(residual, hessian, moved, n_x, report.trace) is False


def test_solver_modules_call_lm_minimize_and_certify(monkeypatch):
    # The benchmark tracer names the residual and Hessian spans after the
    # module whose lm_minimize attribute is called, and times snf_opt.certify:
    # a call moved into lmsolve would silently zero those per-solver counters.
    calls = {}
    for module, name in ((snf_opt, "lm_minimize"), (mccoy_opt, "lm_minimize"),
                         (snf_opt, "certify")):
        def counted(*args, _fn=getattr(module, name), _key=f"{module.__name__}.{name}"):
            calls[_key] = calls.get(_key, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    for solver in ("snf", "mccoy"):
        _certify_case(solver)
    assert calls == {"polysmith.snf_opt.lm_minimize": 1, "polysmith.mccoy_opt.lm_minimize": 1,
                     "polysmith.snf_opt.certify": 1}


def test_solve_reversal_mode_on_unattainable_input():
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
    structure = PerturbStructure.support(c)
    from polysmith.errors import UnattainableProblem

    with pytest.raises(UnattainableProblem):
        solve(SnfProblem(c, structure, deg_h=2), LmConfig())
    report = solve(reversed_problem(SnfProblem(c, structure, deg_h=2)), LmConfig())
    # The reversed adjoint has the exact common divisor t^2, so the infimum 0
    # is attained in reversed coordinates, at omega = 0 (infinity for c).
    assert report.distance <= 1e-8
    assert report.omega == 0


def test_snf_reversal_is_snf_on_the_reversed_document(capsys, tmp_path):
    # `snf --reversal` solves the reversed problem and maps only omega and dA
    # back; the divisor and the local structure stay in reversed coordinates.
    source = FIXTURES / "unattainable_C.json"
    doc = json.loads(source.read_text())
    doc["entries"] = [[(cell + [0.0] * (2 - len(cell)))[::-1] for cell in row]
                      for row in doc["entries"]]
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(doc))
    reports = []
    for argv in (["snf", str(source), "--deg-h", "2", "--reversal"],
                 ["snf", str(path), "--deg-h", "2"]):
        assert cli.run(argv) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        del report["input_digest"], report["wall_seconds"]
        reports.append(report)
    rev, plain = reports
    assert plain["omega"] == [0.0, 0.0] and rev["omega"] == [np.inf, 0.0]
    assert rev["delta"] == [[cell[::-1] for cell in row] for row in plain["delta"]]
    del rev["omega"], rev["delta"], plain["omega"], plain["delta"]
    assert rev == plain


def test_reversal_reports_infinity_from_the_rank_drop():
    # Three unimodular blocks [[t, t-1], [t+1, t]]: each reversed block has
    # Smith form diag(1, t^2), so the triple root at zero of the divisor
    # fit lands microns away from zero, but the rank drops at zero itself.
    block = [[[0, 1], [-1, 1]], [[1, 1], [0, 1]]]
    zero = [0.0]
    entries = [[block[i % 2][j % 2] if i // 2 == j // 2 else zero for j in range(6)]
               for i in range(6)]
    a = MatPoly.from_entries(entries, degree_bound=1)
    problem = SnfProblem(a, PerturbStructure.support(a), deg_h=1)
    report = solve(reversed_problem(problem), LmConfig())
    assert report.omega == 0
    assert report.invariant_structure == [(0, 3), (2, 3)]


def test_solve_support_mask_respects_zero_coefficients():
    rng = np.random.default_rng(15)
    mat, _, _ = diagonal_snf_instance(8)
    mat.coeff[0, 1, 1] = 0.4  # one off-diagonal linear term joins the support
    structure = PerturbStructure.support(mat)
    report = solve(SnfProblem(mat, structure, deg_h=1), LmConfig())
    assert report.trace.termination in (Termination.GRAD_TOL, Termination.STEP_TOL)
    zeros = mat.coeff == 0.0
    assert np.all(report.delta_a.coeff[zeros] == 0.0)
    solved = mat + report.delta_a
    s = np.linalg.svd(solved.evaluate(report.omega), compute_uv=False)
    assert s[-2] <= 1e-8 * max(1.0, s[0])


def test_solve_best_degree_picks_smaller_distance():
    mat, f, g = diagonal_snf_instance(7)
    report = solve_best_degree(mat, PerturbStructure.degree(mat))
    direct = solve(SnfProblem(mat, PerturbStructure.degree(mat), deg_h=1), LmConfig())
    assert report.distance <= direct.distance + 1e-9


def test_solve_builds_one_adjugate_per_residual(monkeypatch):
    # The residual, the Hessian and the certificate share one linearization
    # per iterate: the adjugate and the constraint Jacobian are built once
    # per residual evaluation, 20 times for ex1, and the seed builds no J.
    built, jacobians = [], []

    def counted(a, _cls=snf_opt.AdjugateNodes):
        built.append(1)
        return _cls(a)

    def counted_jacobian(self, *args, _fn=_Workspace.constraint_jacobian):
        jacobians.append(1)
        return _fn(self, *args)

    monkeypatch.setattr(snf_opt, "AdjugateNodes", counted)
    monkeypatch.setattr(_Workspace, "constraint_jacobian", counted_jacobian)
    a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
    report = solve(SnfProblem(a, PerturbStructure.support(a), deg_h=2), LmConfig())
    assert report.certified and report.trace.iterations == 19
    assert len(built) == report.trace.iterations + 1 + sum(report.trace.rejected)
    assert len(jacobians) == len(built) == 20


def test_ex1_converges_in_few_iterations():
    # The gain-ratio shift reaches the quadratic phase early: 19 iterations.
    a = cli.parse(str(FIXTURES / "ex1.json")).to_matpoly()
    report = solve(SnfProblem(a, PerturbStructure.support(a), deg_h=2), LmConfig())
    assert report.trace.termination == Termination.GRAD_TOL
    assert report.trace.iterations <= 30
    assert report.certified


def test_sublinear_dense_tail_ends_early_and_uncertified(capsys, tmp_path):
    # The fourth dense n=3 input drawn from seed 0 (d=2): with deg_h=2 the
    # merit contracts by about 0.96 per step towards a degenerate point and
    # used to run all 500 iterations to MaxIter.
    rng = np.random.default_rng(0)
    for k in range(4):
        a = random_full_rank_matpoly(rng, 3, 1 + k % 2)
    doc = {"rows": 3, "cols": 3, "structure": "support",
           "entries": [[a.coeff[i, j].tolist() for j in range(3)] for i in range(3)]}
    path = tmp_path / "dense3.json"
    path.write_text(json.dumps(doc))
    code = cli.run(["snf", str(path), "--deg-h", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == cli.EXIT_STALLED
    assert report["trace"]["termination"] == Termination.SUBLINEAR.value
    assert report["trace"]["iterations"] <= 60
    assert report["certified"] is False
    assert report["trace"]["rate"] > 0.95
