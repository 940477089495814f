"""Benchmark workloads: seeded input documents, job lists and correctness gates.

Every workload is a fixed list of CLI jobs.  The job layout (sizes, families,
commands) is the same for every seed; the seed only draws the coefficients,
so the cost of a pass does not swing with the seed.  The dense n=3 tail of
`solve-sweep` is the one exception: its inputs come from a constant seed,
because whether each of its hard solves converges or runs to the iteration
limit decides most of the pass time.

Each job carries a gate that turns the CLI's exit code and report into one
outcome:

- ``ok``: the answer passed its check;
- ``short``: the solver ended short of the reference (it did not converge, or
  converged to a local minimum above an oracle distance).  This is a solver
  outcome the CLI reports honestly, not a wrong answer, but the job counts
  as failed;
- ``wrong``: the job raised, exited with an unexpected code, or reported an
  answer that violates its check;
- ``ref-miss``: a published reference value of the paper was missed.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from polysmith.gcdkit import distance_lower_bound
from polysmith.matpoly import MatPoly

PAPER = "paper-examples"
SOLVE = "solve-sweep"
ANALYSIS = "analysis-sweep"
WORKLOADS = (PAPER, SOLVE, ANALYSIS)

# Acceptance constants of the paper's examples, as in tests/test_acceptance.py.
EX1_DISTANCE = 0.164813183138322
EX1_OMEGA = -0.0316467323869714 + 0.979576980535687j
EX1_DIVISOR = np.array([0.960572576466186, 0.0632934647739423, 1.0])
EX2_DISTANCE = 0.824645447014665
UNATTAINABLE_PROFILE = [0, 0, 2, 2]

# Seed of the dense n=3 tail of solve-sweep, fixed for every benchmark seed.
TAIL_SEED = 0
CONVERGED = ("GradTol", "StepTol")

OK, SHORT, WRONG, REF_MISS = "ok", "short", "wrong", "ref-miss"


@dataclass
class Job:
    kind: str
    argv: list
    gate: Callable[[int, dict], str]

    @property
    def command(self) -> str:
        return self.argv[0]


def _write(workdir: str, name: str, a: MatPoly) -> str:
    doc = {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[a.coeff[i, j].tolist() for j in range(a.cols)] for i in range(a.rows)],
        "structure": "support",
    }
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _copy_fixture(workdir: str, fixtures: str, name: str) -> str:
    return shutil.copyfile(os.path.join(fixtures, name), os.path.join(workdir, name))


def _solved(a: MatPoly, report: dict) -> MatPoly:
    delta = MatPoly.from_entries(report["delta"])
    return a + delta.with_degree_bound(a.degree_bound)


# ---------------------------------------------------------------- gates


def _gate_ex1_snf(code, report):
    if code != 0:
        return REF_MISS
    omega = complex(*report["omega"])
    divisor = np.asarray(report["divisor"])
    hit = (
        abs(report["distance"] - EX1_DISTANCE) <= 1e-6
        and min(abs(omega - EX1_OMEGA), abs(omega - EX1_OMEGA.conjugate())) <= 1e-4
        and divisor.size == 3
        and float(np.max(np.abs(divisor - EX1_DIVISOR))) <= 1e-4
        and report["certified"] is True
    )
    return OK if hit else REF_MISS


def _gate_ex2_mccoy(code, report):
    if code != 0:
        return REF_MISS
    return OK if abs(report["distance"] - EX2_DISTANCE) <= 1e-6 else REF_MISS


def _gate_unattainable_check(code, report):
    if code != 0 or report.get("unattainable") is not True:
        return REF_MISS
    degrees = []
    for deg, mult in report.get("reversal_invariant_structure", []):
        degrees.extend([deg] * mult)
    return OK if degrees == UNATTAINABLE_PROFILE else REF_MISS


def _oracle_gate(want: float):
    """2x2 oracle jobs: converged distances must equal the oracle's to 1e-6.

    No structured perturbation can beat the oracle, so a distance below it is
    a wrong answer; one above it is a local minimum, a short solve.
    """

    def gate(code, report):
        if code not in (0, 2):
            return WRONG
        if report["trace"]["termination"] not in CONVERGED:
            return SHORT
        if report["distance"] < want - 1e-6:
            return WRONG
        return OK if report["distance"] <= want + 1e-6 else SHORT

    return gate


def _dense_gate(a: MatPoly, bound: float):
    """Converged dense solves: two singular values of (A + dA)(omega) vanish,
    and the distance is at least the Sylvester lower bound."""
    scale = a.frobenius_norm()

    def gate(code, report):
        if code not in (0, 2):
            return WRONG
        if report["trace"]["termination"] not in CONVERGED:
            return SHORT
        omega = complex(*report["omega"])
        s = np.linalg.svd(_solved(a, report).evaluate(omega), compute_uv=False)
        if float(np.max(s[-2:])) > 1e-6 * scale:
            # StepTol can stop short of a solution; only a claimed GradTol
            # solution that is not one is a wrong answer.
            if report["trace"]["termination"] == "StepTol":
                return SHORT
            return WRONG
        return OK if report["distance"] >= bound - 1e-12 else WRONG

    return gate


def _expect_exit(expected: int):
    def gate(code, report):
        return OK if code == expected else WRONG

    return gate


def _gate_reversal_zero(code, report):
    """Unattainable inputs: the reversed entries already share the root at
    zero, so the reversed problem is solved with no perturbation."""
    if code not in (0, 2):
        return WRONG
    if report["trace"]["termination"] not in CONVERGED:
        return SHORT
    return OK if report["distance"] <= 1e-9 else WRONG


def _analysis_gate(trivial: bool, unattainable: bool):
    """check/bound flags per family; lower_bound > 0 only on trivial inputs."""

    def gate(code, report):
        if code != 0:
            return WRONG
        bound = report["lower_bound"]
        if "is_trivial" in report:
            if report["is_trivial"] is not trivial or report["unattainable"] is not unattainable:
                return WRONG
            if unattainable and "reversal_invariant_structure" not in report:
                return WRONG
            positive = trivial and not unattainable
            return OK if (bound > 0.0) == positive else WRONG
        if not trivial:
            return OK if bound == 0.0 else WRONG
        return OK if bound > 0.0 and np.isfinite(bound) else WRONG

    return gate


# ---------------------------------------------------------------- families


def unattainable_blocks(rng, n: int) -> MatPoly:
    """Block diagonal copies of the 2x2 block of unattainable_C.json.

    Block k is s_k [[t, t - c_k], [t + c_k, t]] (unattainable_C has s = c = 1);
    its determinant is the constant (s_k c_k)^2, so the infimum sits at
    infinity once n >= 4.
    """
    coeff = np.zeros((n, n, 2))
    for b in range(n // 2):
        s, c = rng.uniform(0.5, 2.0, size=2)
        i = 2 * b
        coeff[i, i] = [0.0, s]
        coeff[i, i + 1] = [-c * s, s]
        coeff[i + 1, i] = [c * s, s]
        coeff[i + 1, i + 1] = [0.0, s]
    return MatPoly(coeff)


def planted(rng, n: int) -> MatPoly:
    """U(t) diag(1, ..., 1, t - a, t - a) V with U = I + tN unimodular (N
    strictly upper triangular) and V orthogonal: degree 2, and the last two
    invariant factors share t - a."""
    root = rng.uniform(-1.0, 1.0)
    u = np.zeros((n, n, 2))
    u[:, :, 0] = np.eye(n)
    u[:, :, 1] = np.triu(rng.normal(scale=0.5, size=(n, n)), 1)
    diag = np.zeros((n, n, 2))
    diag[np.arange(n), np.arange(n), 0] = 1.0
    for k in (n - 2, n - 1):
        diag[k, k] = [-root, 1.0]
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return MatPoly(u) @ MatPoly(diag) @ MatPoly(v[:, :, None])


# ---------------------------------------------------------------- job lists


def paper_jobs(workdir: str, fixtures: str, seed: int, oracles) -> list:
    """The published runs; their inputs are fixed, so the seed is unused."""
    ex1 = _copy_fixture(workdir, fixtures, "ex1.json")
    unatt = _copy_fixture(workdir, fixtures, "unattainable_C.json")
    return [
        Job("ex1-snf", ["snf", ex1, "--deg-h", "2", "--structure", "support"], _gate_ex1_snf),
        Job("ex2-mccoy", ["mccoy", ex1, "--rank-drop", "4", "--structure", "support"],
            _gate_ex2_mccoy),
        Job("unattainable-check", ["check", unatt, "--structure", "support"],
            _gate_unattainable_check),
    ]


# Bulk of solve-sweep: 2x2 oracle instances.  The McCoy oracle is a fine grid
# search (about 0.25 s each), so there are fewer McCoy than diagonal jobs.
DIAGONAL_JOBS = 57
MCCOY_JOBS = 24
# Dense n=3 inputs, alternating d=1 and d=2, three jobs each.  With 15 of the
# 100 jobs in the tail, p90 (around the 11th slowest job) falls inside the tail
# rather than on the border between the tail and the slowest 2x2 jobs,
# where it would jump with the seed.
TAIL_INPUTS = 5
UNATTAINABLE_SIZES = (4, 6)


def solve_jobs(workdir: str, fixtures: str, seed: int, oracles) -> list:
    rng = np.random.default_rng(seed)
    jobs = []
    for k, inst in enumerate(rng.integers(0, 2**31, size=DIAGONAL_JOBS)):
        mat, f, g = oracles.diagonal_snf_instance(int(inst))
        path = _write(workdir, f"diag{k}", mat)
        want = oracles.diagonal_projection_distance(f, g)
        jobs.append(Job("diag-snf", ["snf", path, "--deg-h", "1", "--structure", "degree"],
                        _oracle_gate(want)))
    for k, inst in enumerate(rng.integers(0, 2**31, size=MCCOY_JOBS)):
        mat = oracles.mccoy_rank2_instance(int(inst))
        path = _write(workdir, f"mccoy{k}", mat)
        want = oracles.mccoy_all_entries_distance(mat)
        jobs.append(Job("mccoy-2x2", ["mccoy", path, "--rank-drop", "2", "--structure", "full"],
                        _oracle_gate(want)))
    tail_rng = np.random.default_rng(TAIL_SEED)
    for k in range(TAIL_INPUTS):
        a = oracles.random_full_rank_matpoly(tail_rng, 3, 1 + k % 2)
        path = _write(workdir, f"dense{k}", a)
        gate = _dense_gate(a, distance_lower_bound(a)[0])
        jobs.append(Job("dense-snf1", ["snf", path, "--deg-h", "1"], gate))
        jobs.append(Job("dense-snf2", ["snf", path, "--deg-h", "2"], gate))
        jobs.append(Job("dense-mccoy", ["mccoy", path, "--rank-drop", "2"], gate))
    for n in UNATTAINABLE_SIZES:
        path = _write(workdir, f"unatt{n}", unattainable_blocks(rng, n))
        jobs.append(Job("unatt-snf", ["snf", path, "--deg-h", "1"], _expect_exit(3)))
        jobs.append(Job("unatt-snf-rev", ["snf", path, "--deg-h", "1", "--reversal"],
                        _gate_reversal_zero))
    return jobs


ANALYSIS_SIZES = range(3, 9)
ANALYSIS_COPIES = 4
# Eight generic n=7 inputs, not four.  With four, the slowest tenth of the
# jobs is exactly the n=8 and n=7 checks, so p90 sits on the border between
# them and the much faster next kind and jumps with the seed; with eight it
# falls inside the n=7 generic checks.
GENERIC_N7_COPIES = 8


def analysis_jobs(workdir: str, fixtures: str, seed: int, oracles) -> list:
    rng = np.random.default_rng(seed)
    jobs = []
    for n in ANALYSIS_SIZES:
        families = [("generic", lambda: oracles.random_full_rank_matpoly(rng, n, 2), True, False),
                    ("planted", lambda: planted(rng, n), False, False)]
        if n % 2 == 0:
            families.append(("unattainable", lambda: unattainable_blocks(rng, n), True, True))
        for family, make, trivial, unattainable in families:
            gate = _analysis_gate(trivial, unattainable)
            copies = GENERIC_N7_COPIES if (family, n) == ("generic", 7) else ANALYSIS_COPIES
            for copy in range(copies):
                path = _write(workdir, f"{family}{n}_{copy}", make())
                jobs.append(Job(f"check-{family}-n{n}",
                                ["check", path, "--structure", "support"], gate))
                jobs.append(Job(f"bound-{family}-n{n}", ["bound", path], gate))
    return jobs


BUILDERS = {PAPER: paper_jobs, SOLVE: solve_jobs, ANALYSIS: analysis_jobs}
