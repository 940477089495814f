"""File-based front end: parse matrix polynomial documents, run, report.

Input documents are JSON with ascending-degree coefficient lists:

    {"rows": 2, "cols": 2,
     "entries": [[[1.0, 0.5], [0.0]], [[0.0], [2.0]]],
     "structure": "support"}

Reports are JSON on standard output; diagnostics go to standard error.
Exit codes: 0 success, 1 the library rejected the input or a numeric step
failed, 2 the solver ended short of --tol (Stalled, or Sublinear: at its
observed rate it could not reach --tol within --max-iter), 3 unattainable
problem, 4 invalid input or usage.  Every run prints exactly one JSON object
on standard output.  `snf` and `mccoy` report `certified`: the run converged
within --tol and the Hessian of the Lagrangian is positive semidefinite on
the constraint kernel.  An uncertified result does not change the exit code.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import selftest
from .errors import ParseError, PolysmithError, UnattainableProblem, ValidationError
from .gcdkit import distance_lower_bound, triviality_report
from .lmsolve import LmConfig, Termination
from .matpoly import MatPoly, PerturbStructure
from .mccoy_opt import McCoyProblem, solve_mccoy
from .snf_opt import SnfProblem, solve, solve_best_degree

EXIT_OK = 0
EXIT_STALLED = 2
EXIT_UNATTAINABLE = 3
EXIT_INVALID = 4

_FLOAT_MAX = sys.float_info.max
# Terminations that end a solve short of --tol with EXIT_STALLED; MaxIter
# keeps exit 0 and reports its termination.
_SHORT_OF_TOL = (Termination.STALLED, Termination.SUBLINEAR)


@dataclass
class InputDocument:
    rows: int
    cols: int
    entries: list
    structure: object = None

    def to_matpoly(self) -> MatPoly:
        return MatPoly.from_entries(self.entries)

    def to_structure(self, a: MatPoly, override=None) -> PerturbStructure:
        choice = override if override is not None else self.structure
        if choice is None:
            choice = "support"
        if isinstance(choice, str):
            name = choice.lower()
            if name == "full":
                return PerturbStructure.full(a)
            if name == "support":
                return PerturbStructure.support(a)
            if name == "degree":
                return PerturbStructure.degree(a)
            return _mask_from_file(choice, a)
        return _mask_from_grid(choice, a)


def _mask_from_grid(grid, a: MatPoly) -> PerturbStructure:
    mask = np.zeros_like(a.coeff, dtype=bool)
    if not (isinstance(grid, list) and len(grid) == a.rows
            and all(isinstance(row, list) and len(row) == a.cols for row in grid)):
        raise ValidationError("mask grid shape does not match the matrix")
    for i in range(a.rows):
        for j in range(a.cols):
            cells = grid[i][j]
            if not isinstance(cells, list):
                raise ValidationError(f"mask entry ({i},{j}) must be a list of flags")
            if len(cells) > a.degree_bound + 1:
                raise ValidationError(f"mask entry ({i},{j}) longer than degree bound")
            # Only true/false or 0/1: bool("no") would make a coefficient perturbable.
            if not all(type(c) in (bool, int) and c in (0, 1) for c in cells):
                raise ValidationError(f"mask entry ({i},{j}) flags must be true/false or 0/1")
            mask[i, j, : len(cells)] = cells
    return PerturbStructure(mask)


def _mask_from_file(path: str, a: MatPoly) -> PerturbStructure:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read mask file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"mask file {path} is not valid JSON: {exc}") from exc
    grid = doc.get("mask", doc) if isinstance(doc, dict) else doc
    return _mask_from_grid(grid, a)


def parse(path: str) -> InputDocument:
    """Load and validate an input document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object at the top level")
    for key in ("rows", "cols", "entries"):
        if key not in raw:
            raise ParseError(f"{path}: missing field '{key}'")
    rows, cols, entries = raw["rows"], raw["cols"], raw["entries"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows >= 1 and cols >= 1):
        raise ValidationError("rows and cols must be positive integers")
    if not isinstance(entries, list) or not all(isinstance(r, list) for r in entries):
        raise ValidationError("entries must be a list of rows, each a list of coefficient lists")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValidationError("entries grid is ragged or does not match rows/cols")
    for i, row in enumerate(entries):
        for j, cell in enumerate(row):
            if not isinstance(cell, list) or not cell:
                raise ValidationError(f"entry ({i},{j}) must be a non-empty coefficient list")
            for c in cell:
                # abs() rather than math.isfinite: JSON integers may exceed the float range.
                if not isinstance(c, (int, float)) or isinstance(c, bool) or not abs(c) <= _FLOAT_MAX:
                    raise ValidationError(f"entry ({i},{j}) has a non-finite coefficient")
    return InputDocument(rows=rows, cols=cols, entries=entries, structure=raw.get("structure"))


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _complex_field(z) -> list:
    if z == np.inf:
        return [math.inf, 0.0]
    z = complex(z)
    return [z.real, z.imag]


def _trace_summary(trace) -> dict:
    return {
        "iterations": trace.iterations,
        "rejected_trials": sum(trace.rejected),
        "final_grad_norm": trace.merits[-1],
        "termination": trace.termination.value,
        "rate": trace.rate,
        "shift": trace.nus[-1] if trace.nus else None,
        "merits": list(trace.merits),
    }


def _load(args):
    """The command's input as (a, structure); structure is None for a command
    without --structure, whose document's structure field is not read."""
    doc = parse(args.input)
    if doc.rows != doc.cols:
        raise ValidationError("solver commands need a square matrix polynomial")
    a = doc.to_matpoly()
    return a, doc.to_structure(a, args.structure) if hasattr(args, "structure") else None


def _solved(report, omega, delta, **fields):
    """Payload and exit code of a solve; exit 2 when it ended short of --tol."""
    payload = {"distance": report.distance, "omega": _complex_field(omega),
               "delta": _matpoly_grid(delta), **fields, "certified": report.certified,
               "trace": _trace_summary(report.trace)}
    return payload, EXIT_STALLED if report.trace.termination in _SHORT_OF_TOL else EXIT_OK


def _lm_config(args) -> LmConfig:
    return LmConfig(max_iter=args.max_iter, grad_tol=args.tol)


def _cmd_check(args):
    payload = asdict(triviality_report(*_load(args)))
    if not payload["unattainable"]:
        del payload["reversal_invariant_structure"]
    return payload, EXIT_OK


def _cmd_bound(args):
    a, _ = _load(args)
    bound, sigma = distance_lower_bound(a)
    return {"lower_bound": bound, "sylvester_sigma": sigma}, EXIT_OK


def _cmd_snf(args):
    a, structure = _load(args)
    if args.reversal:
        # The reversed problem (mccoy_opt.reversed_problem) of the input.
        a, structure = a.reversed(), structure.reversed()
    cfg = _lm_config(args)
    if args.deg_h is None:
        report = solve_best_degree(a, structure, cfg)
    else:
        report = solve(SnfProblem(a, structure, deg_h=args.deg_h), cfg)
    omega, delta = report.omega, report.delta_a
    if args.reversal:
        # Only omega and dA map back to the input; the divisor and the local
        # invariant structure stay in reversed coordinates.
        omega = np.inf if omega == 0 else 1.0 / omega
        delta = delta.reversed()
    return _solved(report, omega, delta, divisor=report.h.coeffs.tolist(),
                   invariant_structure=[list(pair) for pair in report.invariant_structure])


def _cmd_mccoy(args):
    report = solve_mccoy(McCoyProblem(*_load(args), r=args.rank_drop), _lm_config(args))
    return _solved(report, report.omega, report.delta_a,
                   invariant_factor=report.invariant_factor.coeffs.tolist(),
                   rank_gap=report.rank_gap)


def _cmd_selftest(args):
    results = list(selftest.run_selftest(args.seed))
    for name, ok, detail in results:
        state = "ok" if ok else "FAIL"
        print(f"{state:4s} {name}" + (f" ({detail})" if detail else ""), file=sys.stderr)
    payload = {
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in results],
        "passed": int(sum(ok for _, ok, _ in results)),
        "total": len(results),
    }
    return payload, EXIT_OK if payload["passed"] == payload["total"] else 1


def _matpoly_grid(a: MatPoly) -> list:
    return [[a.coeff[i, j].tolist() for j in range(a.cols)] for i in range(a.rows)]


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValidationError; argparse's own exit status 2
    would read as a solve that ended short of --tol."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = _Parser(
        prog="polysmith",
        description="Nearby non-trivial Smith forms of matrix polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_structure=True, with_solver=False):
        p.add_argument("input", help="path to the input JSON document")
        if with_structure:
            p.add_argument(
                "--structure",
                default=None,
                help="full | support | degree | path to a mask JSON file",
            )
        if with_solver:
            p.add_argument("--max-iter", type=int, default=500)
            p.add_argument("--tol", type=float, default=1e-12)

    p_check = sub.add_parser("check", help="triviality and unattainability report")
    add_common(p_check)

    p_bound = sub.add_parser("bound", help="lower bound on the distance to non-triviality")
    add_common(p_bound, with_structure=False)

    p_snf = sub.add_parser("snf", help="nearest matrix polynomial with non-trivial Smith form")
    add_common(p_snf, with_solver=True)
    p_snf.add_argument("--deg-h", type=int, choices=(1, 2), default=None,
                       help="divisor degree; both are tried when omitted")
    p_snf.add_argument("--reversal", action="store_true",
                       help="optimize the reversed adjoint (eigenvalue at infinity)")

    p_mccoy = sub.add_parser("mccoy", help="nearest matrix polynomial with a rank-r eigenvalue")
    add_common(p_mccoy, with_solver=True)
    p_mccoy.add_argument("--rank-drop", type=int, required=True)

    p_self = sub.add_parser("selftest", help="run the built-in oracle suite")
    p_self.add_argument("--seed", type=int, default=0)
    return parser


def run(argv=None):
    """Parse arguments, dispatch, and print the report document."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
    except ValidationError as exc:
        return _fail(argv[0] if argv else None, exc, EXIT_INVALID)
    # Looked up on every call, not bound into the cached parser, so that a
    # command wrapped or replaced after the first run is the one that runs.
    commands = {"check": _cmd_check, "bound": _cmd_bound, "snf": _cmd_snf,
                "mccoy": _cmd_mccoy, "selftest": _cmd_selftest}
    started = time.perf_counter()
    try:
        payload, code = commands[args.command](args)
    except (ParseError, ValidationError) as exc:
        return _fail(args.command, exc, EXIT_INVALID)
    except UnattainableProblem as exc:
        return _fail(args.command, exc, EXIT_UNATTAINABLE)
    except PolysmithError as exc:
        return _fail(args.command, exc, 1)
    report = {"command": args.command}
    if hasattr(args, "input"):
        report["input_digest"] = _digest(args.input)
    report.update(payload)
    report["wall_seconds"] = time.perf_counter() - started
    print(json.dumps(report))
    return code


def _fail(command, exc, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    print(json.dumps({"command": command, "error": str(exc)}))
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
