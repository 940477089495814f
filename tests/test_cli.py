import importlib
import importlib.util
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polysmith import cli, detadj, gcdkit, snf_opt
from polysmith.errors import ParseError, ValidationError
from polysmith.lmsolve import LmTrace, Termination
from polysmith.matpoly import MatPoly, PerturbStructure
from polysmith.snf_opt import SnfProblem

from conftest import FIXTURES
from oracles import random_full_rank_matpoly


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out.strip().splitlines()[-1]
    return json.loads(out), code


def test_parse_minimal_document(tmp_path):
    path = tmp_path / "one.json"
    path.write_text('{"rows":1,"cols":1,"entries":[[[1.0]]]}')
    doc = cli.parse(str(path))
    mat = doc.to_matpoly()
    assert mat.rows == mat.cols == 1
    assert mat.entry(0, 0).coeffs.tolist() == [1.0]


def test_parse_ex1_fixture_degree():
    doc = cli.parse(str(FIXTURES / "ex1.json"))
    assert doc.to_matpoly().degree() == 3
    assert doc.structure == "support"


def test_parse_ragged_grid_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows":2,"cols":2,"entries":[[[1.0]],[[1.0],[2.0]]]}')
    with pytest.raises(ValidationError):
        cli.parse(str(path))


def test_parse_errors(tmp_path):
    with pytest.raises(ParseError):
        cli.parse(str(tmp_path / "missing.json"))
    bad = tmp_path / "syntax.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError):
        cli.parse(str(bad))
    for entries in ("5", "[5, 5]"):
        bad.write_text('{"rows":2,"cols":2,"entries":%s}' % entries)
        with pytest.raises(ValidationError):
            cli.parse(str(bad))


def test_check_reports_unattainable(capsys):
    report, code = run_cli(capsys, ["check", str(FIXTURES / "unattainable_C.json")])
    assert code == 0
    assert report["unattainable"] is True
    assert report["reversal_invariant_structure"] == [[0, 2], [2, 2]]


def test_check_determinism(capsys):
    first, _ = run_cli(capsys, ["check", str(FIXTURES / "ex1.json")])
    second, _ = run_cli(capsys, ["check", str(FIXTURES / "ex1.json")])
    first.pop("wall_seconds")
    second.pop("wall_seconds")
    assert first == second


@pytest.mark.parametrize("argv", [["mccoy", "--rank-drop", "4"], ["snf", "--deg-h", "2"]])
def test_solver_reports_repeat_in_one_process(capsys, argv):
    # Per-workspace caches must not leak between runs.
    docs = []
    for _ in range(2):
        report, code = run_cli(capsys, [argv[0], str(FIXTURES / "ex1.json"), *argv[1:]])
        assert code == 0
        report.pop("wall_seconds")
        docs.append(json.dumps(report, sort_keys=True))
    assert docs[0] == docs[1]


def test_exit_code_validation_error(capsys, tmp_path):
    path = tmp_path / "rect.json"
    path.write_text('{"rows":1,"cols":2,"entries":[[[1.0],[2.0]]]}')
    _, code = run_cli(capsys, ["check", str(path)])
    assert code == cli.EXIT_INVALID
    path.write_text('{"rows":2,"cols":2,"entries":5}')
    for command in ("check", "bound"):
        report, code = run_cli(capsys, [command, str(path)])
        assert code == cli.EXIT_INVALID and "error" in report
    # A constant 3x3 matrix has a constant adjugate: no divisor of degree 1.
    grid = [[[1.0 + (i == j)] for j in range(3)] for i in range(3)]
    path.write_text(json.dumps({"rows": 3, "cols": 3, "entries": grid}))
    report, code = run_cli(capsys, ["snf", str(path), "--deg-h", "1"])
    assert code == cli.EXIT_INVALID and "infeasible" in report["error"]
    # Degree 3 fits under (n-1)d = 4 but is never nearer than degree 1 or 2.
    a = random_full_rank_matpoly(np.random.default_rng(0), 3, 2)
    with pytest.raises(ValidationError, match="infeasible"):
        SnfProblem(a, PerturbStructure.support(a), deg_h=3)
    path.write_text(json.dumps({"rows": 3, "cols": 3, "entries": [
        [a.coeff[i, j].tolist() for j in range(3)] for i in range(3)]}))
    _, code = run_cli(capsys, ["snf", str(path), "--deg-h", "3"])
    assert code == cli.EXIT_INVALID


NO_DIVISOR_DEGREE = {  # (n-1)d = 0: no divisor degree is feasible
    "constant": {"rows": 2, "cols": 2, "entries": [[[1], [2]], [[3], [4]]]},
    "1x1": {"rows": 1, "cols": 1, "entries": [[[1.0, 2.0]]]},
}


@pytest.mark.parametrize("reversal", [[], ["--reversal"]], ids=["plain", "reversal"])
@pytest.mark.parametrize("name", NO_DIVISOR_DEGREE)
def test_snf_without_feasible_degree_is_invalid(capsys, tmp_path, name, reversal):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(NO_DIVISOR_DEGREE[name]))
    for degree in ([], ["--deg-h", "1"]):
        report, code = run_cli(capsys, ["snf", str(path), *degree, *reversal])
        assert code == cli.EXIT_INVALID and "feasible" in report["error"]


@pytest.mark.parametrize("name", NO_DIVISOR_DEGREE)
def test_bound_and_check_agree(capsys, tmp_path, name):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(NO_DIVISOR_DEGREE[name]))
    bound, code = run_cli(capsys, ["bound", str(path)])
    check, _ = run_cli(capsys, ["check", str(path)])
    assert code == cli.EXIT_OK
    for key in ("lower_bound", "sylvester_sigma"):
        assert bound[key] == check[key]


SINGULAR = {  # det A = 0 over the rational functions
    "zero-1x1": {"rows": 1, "cols": 1, "entries": [[[0.0]]]},
    "rank-one-2x2": {"rows": 2, "cols": 2, "entries": [[[1], [2]], [[2], [4]]]},
    "zero-3x3": {"rows": 3, "cols": 3, "entries": [[[0.0]] * 3] * 3},
    "diag-3x3": {"rows": 3, "cols": 3, "entries": [[[1.0, 1.0], [0.0], [0.0]],
                                                   [[0.0], [1.0, 1.0], [0.0]],
                                                   [[0.0], [0.0], [0.0]]]},
}


@pytest.mark.parametrize("command", ["check", "bound"])
@pytest.mark.parametrize("name", SINGULAR)
def test_singular_input_is_rejected(capsys, tmp_path, name, command):
    # One rule for every size: a singular input is rejected, never reported
    # trivial or non-trivial.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(SINGULAR[name]))
    report, code = run_cli(capsys, [command, str(path)])
    assert code == 1
    assert report["error"] == "matrix polynomial is singular over the rational functions"


@pytest.mark.parametrize("rank_drop", ["1", "5"])
def test_mccoy_rank_drop_out_of_range_is_invalid(capsys, rank_drop):
    # ex1 is 4x4: a rank drop outside 2..4 is a usage error, not a library failure.
    code = cli.run(["mccoy", str(FIXTURES / "ex1.json"), "--rank-drop", rank_drop])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert code == cli.EXIT_INVALID and "out of range" in json.loads(lines[0])["error"]


# Reversed-adjoint approximate GCD inputs that used to escape as tracebacks:
# an alternating-fit sweep that raises the residual, and an adjugate whose
# entries all trim to zero.
APPROX_GCD_BREAKERS = [
    [[[7.201517957741638e-07, -1.3744795293573324e-07, 1.0539539198412028e-06],
      [2.5069315663659017e-06, 4.486547899589429e-06, -1.1026437885587052e-05]],
     [[-3.8886471768372175e-09, 5.67005582013524e-07, -1.1986755540404252e-07],
      [-15222125.565161938, -43253427.52114434, 54229557.41551935]]],
    [[[-8.444300178685122e-16, -3.680061629127464e-16],
      [1.0540424840260954e-15, -7.474884729072235e-16]],
     [[6.500080822533866e-34, -1.648664259119408e-33],
      [-4.634990513311799e-33, -2.3070101583409703e-34]]],
]


@pytest.mark.parametrize("entries", APPROX_GCD_BREAKERS)
def test_snf_reversal_approx_gcd_errors_are_reported(capsys, tmp_path, entries):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": entries}))
    code = cli.run(["snf", str(path), "--deg-h", "1", "--reversal"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert code == 1 and "error" in json.loads(lines[0])


def test_exit_code_unattainable(capsys):
    report, code = run_cli(
        capsys, ["snf", str(FIXTURES / "unattainable_C.json"), "--deg-h", "2"]
    )
    assert code == cli.EXIT_UNATTAINABLE
    # The advice names what reaches the infimum, and no flag snf lacks.
    assert report["error"] == (
        "the nearest non-trivial Smith form lies at infinity; solve "
        "mccoy_opt.reversed_problem(problem) instead (snf: add or drop --reversal)"
    )


@pytest.mark.parametrize("rank_drop, want", [("2", cli.EXIT_UNATTAINABLE), ("3", 0)])
def test_mccoy_rank_drop_two_takes_the_attainability_verdict(capsys, rank_drop, want):
    # check flags unattainable_C: its nearest rank drop of 2 is at infinity.
    code = cli.run(["mccoy", str(FIXTURES / "unattainable_C.json"), "--rank-drop", rank_drop])
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert code == want and len(lines) == 1
    assert "Traceback" not in captured.err
    report = json.loads(lines[0])
    if want:
        assert "reversed_problem(problem)" in report["error"]
    else:
        assert report["distance"] == pytest.approx(3 ** 0.5)


def test_snf_small_instance_through_cli(capsys, tmp_path):
    f = np.polynomial.polynomial.polyfromroots([0.6, 1.1]) * 0.9
    g = np.polynomial.polynomial.polyfromroots([0.8, -1.0]) * 0.7
    doc = {
        "rows": 2,
        "cols": 2,
        "entries": [[list(f), [0.0]], [[0.0], list(g)]],
        "structure": "degree",
    }
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(doc))
    report, code = run_cli(capsys, ["snf", str(path), "--deg-h", "1"])
    assert code == 0
    assert report["certified"] is True
    assert report["trace"]["termination"] == "GradTol"
    assert 0.0 < report["distance"] < 0.2
    assert len(report["divisor"]) == 2


def test_mccoy_small_instance_through_cli(capsys, tmp_path):
    rng = np.random.default_rng(5)
    base = rng.normal(size=(2, 2))
    entries = [
        [[-0.5 * base[0, 0], base[0, 0]], [-0.5 * base[0, 1], base[0, 1]]],
        [[-0.5 * base[1, 0], base[1, 0]], [-0.5 * base[1, 1], base[1, 1]]],
    ]
    entries[0][0][0] += 0.05
    doc = {"rows": 2, "cols": 2, "entries": entries, "structure": "full"}
    path = tmp_path / "near.json"
    path.write_text(json.dumps(doc))
    report, code = run_cli(capsys, ["mccoy", str(path), "--rank-drop", "2"])
    assert code == 0
    assert report["distance"] < 0.1
    assert len(report["invariant_factor"]) in (2, 3)


def test_mccoy_constant_input_keeps_every_kernel_column(capsys, tmp_path):
    # The rank-2 drop of a constant 2x2 is its zero matrix, at distance
    # |A|_F; a kernel basis that lets a column shrink to zero stalls short
    # of it.
    path = tmp_path / "constant.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[[1], [2]], [[3], [4]]]}))
    report, code = run_cli(capsys, ["mccoy", str(path), "--rank-drop", "2"])
    assert code == cli.EXIT_OK and report["certified"] is True
    assert report["distance"] == pytest.approx(5.477225575051661, rel=1e-10)


def test_mccoy_reports_certificate(capsys, tmp_path):
    # ex2 is a certified minimizer, and so is the first dense n=3 input drawn
    # from seed 0 (d=1), which a kernel chart from a row permutation of the
    # seed kernel misses.  The third (d=1) converges to a saddle, uncertified
    # with exit 0, above the distance snf --deg-h 1 reaches on it.
    report, code = run_cli(capsys, ["mccoy", str(FIXTURES / "ex1.json"), "--rank-drop", "4"])
    assert code == cli.EXIT_OK and report["certified"] is True
    assert report["trace"]["iterations"] == 7
    rng = np.random.default_rng(0)
    paths = []
    for k in range(3):
        a = random_full_rank_matpoly(rng, 3, 1 + k % 2)
        doc = {"rows": 3, "cols": 3, "entries": [[a.coeff[i, j].tolist() for j in range(3)]
                                                 for i in range(3)]}
        paths.append(tmp_path / f"dense{k}.json")
        paths[-1].write_text(json.dumps(doc))
    report, code = run_cli(capsys, ["mccoy", str(paths[0]), "--rank-drop", "2"])
    assert code == cli.EXIT_OK and report["certified"] is True
    assert report["distance"] == pytest.approx(0.9142492814, abs=1e-8)
    report, code = run_cli(capsys, ["mccoy", str(paths[2]), "--rank-drop", "2"])
    assert code == cli.EXIT_OK and report["certified"] is False
    assert report["trace"]["termination"] == "GradTol" and report["trace"]["iterations"] == 7
    assert report["distance"] == pytest.approx(1.238155, abs=1e-6)
    report, code = run_cli(capsys, ["snf", str(paths[2]), "--deg-h", "1"])
    assert code == cli.EXIT_OK and report["certified"] is True
    assert report["distance"] == pytest.approx(1.117725, abs=1e-6)


def test_inaccurate_shifted_solves_end_short_of_tol(capsys, tmp_path):
    # On ex1 scaled by 1e3 some shifted solves of the SNF path miss their
    # residual test.  Each such trial is rejected and retried at a larger
    # shift, and the run ends Sublinear with exit 2, not exit 1.
    doc = json.loads((FIXTURES / "ex1.json").read_text())
    doc["entries"] = [[[1e3 * x for x in cell] for cell in row] for row in doc["entries"]]
    path = tmp_path / "ex1_scaled.json"
    path.write_text(json.dumps(doc))
    report, code = run_cli(capsys, ["snf", str(path), "--deg-h", "2"])
    assert code == cli.EXIT_STALLED and report["certified"] is False
    assert report["trace"]["termination"] == "Sublinear"
    assert report["trace"]["iterations"] == 50 and report["trace"]["rejected_trials"] >= 1


def test_mccoy_rank_gap_tells_a_feasible_point(capsys, tmp_path):
    # ex2 drops rank by 4 at omega.  On ex1 scaled by 1e3 the run ends
    # Sublinear at a distance below ex2's optimum, at a point where the
    # rank has not dropped: the gap says so, the exit code stays 2.
    report, code = run_cli(capsys, ["mccoy", str(FIXTURES / "ex1.json"), "--rank-drop", "4"])
    assert code == cli.EXIT_OK and report["rank_gap"] <= 1e-10
    doc = json.loads((FIXTURES / "ex1.json").read_text())
    doc["entries"] = [[[1e3 * x for x in cell] for cell in row] for row in doc["entries"]]
    path = tmp_path / "ex1_scaled.json"
    path.write_text(json.dumps(doc))
    report, code = run_cli(capsys, ["mccoy", str(path), "--rank-drop", "4"])
    assert code == cli.EXIT_STALLED and report["certified"] is False
    assert report["rank_gap"] >= 1e-2
    # At r=2 the gap is the third singular value of 4, not the smallest.
    report, code = run_cli(capsys, ["mccoy", str(path), "--rank-drop", "2"])
    a = cli.parse(str(path)).to_matpoly()
    omega = complex(*report["omega"])
    solved = np.linalg.svd((a + MatPoly.from_entries(report["delta"])).evaluate(omega),
                           compute_uv=False)
    top = np.linalg.svd(a.evaluate(omega), compute_uv=False)[0]
    assert code == cli.EXIT_STALLED
    assert report["rank_gap"] == pytest.approx(solved[2] / top, rel=1e-9)


def test_mask_file_structure(capsys, tmp_path):
    doc = {
        "rows": 2,
        "cols": 2,
        "entries": [[[1.0, 1.0], [0.0]], [[0.0], [1.0, -1.0]]],
    }
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps(doc))
    mask_path = tmp_path / "mask.json"
    mask_path.write_text(json.dumps({"mask": [[[True, False], [False]], [[False], [True, True]]]}))
    report, code = run_cli(capsys, ["check", str(matrix_path), "--structure", str(mask_path)])
    assert code == 0
    assert "is_trivial" in report


@pytest.mark.parametrize("flag", ["no", "false", "", None, 2, -1, 0.0, 1.5, [True]])
def test_mask_flags_other_than_booleans_or_bits_are_invalid(capsys, tmp_path, flag):
    # bool("no") is True, so reading flags with bool() made a "no" perturbable.
    doc = {"rows": 2, "cols": 2, "entries": [[[1.0, 1.0], [0.0]], [[0.0], [1.0, -1.0]]]}
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps(doc))
    mask_path = tmp_path / "mask.json"
    mask_path.write_text(json.dumps({"mask": [[[flag, flag], []], [[], [flag]]]}))
    report, code = run_cli(capsys, ["check", str(matrix_path), "--structure", str(mask_path)])
    assert code == cli.EXIT_INVALID
    assert "flags" in report["error"]


def test_mask_bits_read_as_booleans(tmp_path):
    a = MatPoly.from_entries([[[1.0, 1.0], [0.0]], [[0.0], [1.0, -1.0]]])
    bits = cli._mask_from_grid([[[1, 0], [0]], [[0], [True, False]]], a)
    flags = cli._mask_from_grid([[[True, False], [False]], [[False], [1, 0]]], a)
    assert np.array_equal(bits.mask, flags.mask)
    assert bits.mask.tolist() == [[[True, False], [False, False]], [[False, False], [True, False]]]


def test_selftest_command(capsys):
    report, code = run_cli(capsys, ["selftest", "--seed", "0"])
    assert code == 0
    assert report["passed"] == report["total"]


def test_snf_reversal_flag(capsys):
    report, code = run_cli(
        capsys,
        ["snf", str(FIXTURES / "unattainable_C.json"), "--deg-h", "2", "--reversal"],
    )
    assert code == 0
    assert report["distance"] <= 1e-8


def test_usage_error_exits_invalid(capsys):
    # argparse alone would exit 2, which reads as a solve short of --tol.
    ex1 = str(FIXTURES / "ex1.json")
    for argv in (["mccoy", ex1, "--rank-drop", "4", "--bogus"],
                 ["mccoy", ex1, "--rank-drop", "4", "--linearize", "true"],
                 ["mccoy", ex1]):
        code = cli.run(argv)
        out = capsys.readouterr().out.strip().splitlines()
        assert code == cli.EXIT_INVALID and len(out) == 1
        report = json.loads(out[0])
        assert report["command"] == "mccoy" and report["error"]


@pytest.mark.parametrize("flags", [["--max-iter", "0"], ["--tol", "0"], ["--tol", "-1"]],
                         ids=["max-iter-0", "tol-0", "tol-negative"])
def test_bad_solver_settings_exit_invalid(capsys, flags):
    argv = ["mccoy", str(FIXTURES / "ex1.json"), "--rank-drop", "4", *flags]
    report, code = run_cli(capsys, argv)
    assert code == cli.EXIT_INVALID and report["command"] == "mccoy" and report["error"]


@pytest.mark.parametrize("termination", [Termination.STALLED, Termination.SUBLINEAR],
                         ids=lambda t: t.value)
def test_exit_code_stalled(capsys, monkeypatch, tmp_path, termination):
    from polysmith.matpoly import MatPoly, Poly
    from polysmith.snf_opt import SnfReport

    stub = SnfReport(
        delta_a=MatPoly.zeros(2, 2, 1),
        distance=0.0,
        h=Poly([0.0, 1.0]),
        cofactors=MatPoly.zeros(2, 2, 0),
        omega=0j,
        invariant_structure=[],
        certified=False,
        trace=LmTrace(merits=[1.0], termination=termination),
    )
    monkeypatch.setattr(cli, "solve", lambda *a, **k: stub)
    doc = {"rows": 2, "cols": 2, "entries": [[[1.0, 1.0], [0.0]], [[0.0], [1.0, -1.0]]]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    report, code = run_cli(capsys, ["snf", str(path), "--deg-h", "1"])
    assert code == cli.EXIT_STALLED
    assert report["trace"]["termination"] == termination.value
    assert report["trace"]["rate"] is None and report["trace"]["shift"] is None


def test_check_builds_adjugate_and_determinant_once(capsys, monkeypatch):
    # Sylvester builds are counted where the benchmark's tracer wraps them for
    # gcdkit, and their SVDs at gcdkit._sylvester_svd, which decomposes each
    # matrix Analysis builds once: ex1 builds the matrix at the actual
    # degrees and the padded one, and its reachable degrees raise no entry's,
    # so the reachable matrix would be the first; unattainable_C builds the
    # reachable one and its reversal too.
    calls = {}
    for name in ("adjoint", "determinant", "generalized_sylvester", "_sylvester_svd"):
        def counted(*args, _fn=getattr(gcdkit, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(gcdkit, name, counted)
    report, code = run_cli(capsys, ["check", str(FIXTURES / "ex1.json")])
    assert code == 0 and report["is_trivial"]
    assert calls == {"adjoint": 1, "determinant": 1, "generalized_sylvester": 2,
                     "_sylvester_svd": 2}
    calls.clear()
    report, code = run_cli(capsys, ["check", str(FIXTURES / "unattainable_C.json")])
    assert code == 0 and report["unattainable"]
    assert calls == {"adjoint": 1, "determinant": 1, "generalized_sylvester": 4,
                     "_sylvester_svd": 4}


@pytest.mark.parametrize("command", ["check", "bound"])
def test_lower_bound_builds_no_adjugate_jacobian(capsys, monkeypatch, tmp_path, command):
    # The bound's gradient scale is the Frobenius norm of the adjugate
    # Jacobian, read off singular values at the adjugate nodes: neither
    # jacobian_adj nor AdjugateNodes.jacobian runs, and the bound is the one
    # the built Jacobian gives.
    a = random_full_rank_matpoly(np.random.default_rng(5), 5, 2)
    analysis = gcdkit.Analysis(a)
    scale = np.linalg.norm(detadj.jacobian_adj(analysis.norm))
    want = gcdkit._rescaled(analysis.padded[1] / ((5 - 1) * 2 * scale), analysis.k)
    calls = []
    monkeypatch.setattr(detadj, "jacobian_adj", lambda *args: calls.append(args))
    monkeypatch.setattr(detadj.AdjugateNodes, "jacobian", lambda *args: calls.append(args))
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"rows": a.rows, "cols": a.cols, "entries": a.coeff.tolist()}))
    report, code = run_cli(capsys, [command, str(path)])
    assert code == cli.EXIT_OK and calls == []
    assert report["lower_bound"] == pytest.approx(want, rel=1e-13) and want > 0


def _blocks(rng, n):
    """Block diagonal s [[t, t - c], [t + c, t]] blocks, as unattainable_C."""
    coeff = np.zeros((n, n, 2))
    for i in range(0, n, 2):
        s, c = rng.uniform(0.5, 2.0, 2)
        coeff[i : i + 2, i : i + 2] = s * np.array([[[0, 1], [-c, 1]], [[c, 1], [0, 1]]])
    return MatPoly(coeff)


SEARCH_CALLS = {
    "generic-6": {"generalized_sylvester": 1, "_sylvester_svd": 1},
    "generic-8": {"generalized_sylvester": 1, "_sylvester_svd": 1},
    "ex1": {"reachable_adjoint_degrees": 1, "generalized_sylvester": 2, "_sylvester_svd": 2},
    "blocks-6": {"reachable_adjoint_degrees": 1, "generalized_sylvester": 4, "_sylvester_svd": 4},
    "dense-6": {"reachable_adjoint_degrees": 1, "generalized_sylvester": 1, "_sylvester_svd": 1},
}


@pytest.mark.parametrize("name", sorted(SEARCH_CALLS))
def test_check_searches_degrees_only_below_full_degree(capsys, monkeypatch, tmp_path, name):
    # The (n-1)!-permutation search of reachable_adjoint_degrees runs only
    # when some adjugate entry is below degree (n-1)d.  A generic dense input
    # has none: check builds its one Sylvester matrix and decomposes it once
    # for the GCD degree, the padded rank and sigma.  Two dense 3x3 blocks
    # under the support mask leave the off-block entries dead: the search
    # runs, raises no live entry's degree, and that one matrix still decides.
    calls, want = {}, SEARCH_CALLS[name]
    for fn in ("reachable_adjoint_degrees", "generalized_sylvester", "_sylvester_svd"):
        def counted(*args, _fn=getattr(gcdkit, fn), _name=fn):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(gcdkit, fn, counted)
    kind, _, n = name.partition("-")
    if kind == "ex1":
        path = FIXTURES / "ex1.json"
    else:
        rng = np.random.default_rng(int(n))
        if kind == "generic":
            a = random_full_rank_matpoly(rng, int(n), 2)
        elif kind == "dense":
            a = MatPoly(np.zeros((6, 6, 3)))
            a.coeff[:3, :3], a.coeff[3:, 3:] = (random_full_rank_matpoly(rng, 3, 2).coeff
                                                for _ in range(2))
        else:
            a = _blocks(rng, int(n))
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"rows": a.rows, "cols": a.cols, "entries": a.coeff.tolist()}))
    report, code = run_cli(capsys, ["check", str(path), "--structure", "support"])
    assert code == 0 and report["is_trivial"] and report["unattainable"] is (kind == "blocks")
    assert calls == want


def test_commands_are_looked_up_per_run(capsys, monkeypatch):
    # The parser is built once per process; a command wrapped after that,
    # as a tracer does, must still be the one that runs.
    run_cli(capsys, ["bound", str(FIXTURES / "ex1.json")])
    monkeypatch.setattr(cli, "_cmd_bound", lambda args: ({"stub": True}, cli.EXIT_OK))
    report, code = run_cli(capsys, ["bound", str(FIXTURES / "ex1.json")])
    assert code == cli.EXIT_OK and report["stub"] is True

@pytest.mark.parametrize("name, expected", [("ex1.json", cli.EXIT_OK),
                                            ("unattainable_C.json", cli.EXIT_UNATTAINABLE)])
def test_snf_without_degree_analyses_once(capsys, monkeypatch, name, expected):
    calls = []

    def counted(*args, _fn=snf_opt.detect_unattainable):
        calls.append(args)
        return _fn(*args)

    monkeypatch.setattr(snf_opt, "detect_unattainable", counted)
    _, code = run_cli(capsys, ["snf", str(FIXTURES / name)])
    assert code == expected
    assert len(calls) == 1

# Contract: every document, well formed or not, gives an exit code in
# {0, 1, 2, 3, 4} and exactly one JSON object on stdout (file descriptor 1,
# so output written by native code counts too).
COEFFICIENTS = st.one_of(
    st.sampled_from([0, 0.0, 1, -1, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(-4.0, 4.0),
)
BAD_CELLS = st.sampled_from([[], 1.0, [[1.0]], ["1"], [None], [True], [10**400], {}])
STRUCTURES = st.one_of(
    st.sampled_from([None, "full", "support", "degree", 3, {}, [], [[1]], [[[1]]], True,
                     {"mask": 1}, [[[True], 2]]]),
    st.recursive(st.booleans(), lambda leaf: st.lists(leaf, max_size=3), max_leaves=12),
)


@st.composite
def documents(draw):
    n = draw(st.integers(1, 3))
    doc = {"rows": n, "cols": n,
           "entries": [[draw(st.lists(COEFFICIENTS, min_size=1, max_size=3)) for _ in range(n)]
                       for _ in range(n)]}
    structure = draw(STRUCTURES)
    if structure is not None:
        doc["structure"] = structure
    breakage = draw(st.sampled_from(["none", "none", "cell", "rows", "flat", "key", "top"]))
    if breakage == "cell":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        doc["entries"][i][j] = draw(BAD_CELLS)
    elif breakage == "rows":
        doc["rows"] = draw(st.sampled_from([n + 1, 0, "2", None, 1.5]))
    elif breakage == "flat":
        doc["entries"] = doc["entries"][0]
    elif breakage == "key":
        del doc[draw(st.sampled_from(["rows", "cols", "entries"]))]
    elif breakage == "top":
        doc = [doc]
    return doc


CONTRACT_COMMANDS = (
    ["check"],
    ["bound"],
    ["snf", "--deg-h", "1", "--max-iter", "20"],
    ["snf", "--deg-h", "1", "--reversal", "--max-iter", "20"],
    ["mccoy", "--rank-drop", "2", "--max-iter", "20"],
)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(documents())
@example({"rows": 2, "cols": 2, "entries": [[[1.0], [0.0, 1.0]], [[0.0], [1.0]]], "structure": 3})
@example({"rows": 1, "cols": 1, "entries": [[[10**400]]]})
@example({"rows": 3, "cols": 3,
          "entries": [[[2.0, 1.0], [0.5, 0.0], [0.5, 2.0]], [[2.0, 0.0], [-1.0, 2.0], [2.0, -1e300]],
                      [[1.0, 2.0], [-1.0, -1e300], [2.0, 0.5]]]})
def test_cli_contract_on_any_document(capfd, tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in CONTRACT_COMMANDS:
        code = cli.run([command[0], str(path), *command[1:]])
        lines = capfd.readouterr().out.strip().splitlines()
        assert code in (0, 1, 2, 3, 4)
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)


def test_benchmark_tracer_targets_resolve():
    # bench/tracer.py wraps these by name; a renamed or deleted function
    # would otherwise surface only in a traced benchmark run.
    path = FIXTURES.parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(module, name) for module, name, _ in tracer.TARGETS]
    for module, name in targets + [(tracer.LM_MODULE, tracer.LM_FUNCTION)]:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
