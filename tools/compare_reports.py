"""Record every benchmark job's report for a tree, and compare two records.

    python3 tools/compare_reports.py write --out tools/_reports/new
    python3 tools/compare_reports.py write --root ../parent --out tools/_reports/old
    python3 tools/compare_reports.py compare tools/_reports/old tools/_reports/new

`write` runs each job of the benchmark workloads (bench/workloads.py of the
checkout at --root, default the one holding this script) once, in process,
through that checkout's `polysmith.cli.run`, on the seeds given (default 1
and 7919).  It writes one file per workload and seed, one line per job in
job order: the exit code, the benchmark grade, and the report with sorted
keys and without `wall_seconds` and `input_digest`, the fields that differ
between identical runs.  bench/workloads.py and tests/oracles.py are
imported read-only: no bytecode is written next to them.

`compare` reads two such directories.  Exit code, grade, termination and
`certified` must match exactly; every other number bit for bit, or within
--rtol relative.  It lists every job that moved and exits 1 if any did.

BLAS is pinned to one thread before numpy is imported, as bench/run.py does:
the bits of a report depend on it.  Run it outside the test suite; the bits
also depend on the BLAS build.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DROPPED = ("wall_seconds", "input_digest")
SHOWN = 5  # differences listed per moved job


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run_job(cli, job) -> dict:
    """One CLI call as its exit code, grade and report; as bench/run.py grades
    it, a job that raises, or whose report its gate cannot read, is `wrong`."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(job.argv)
        report = json.loads(out.getvalue().strip().splitlines()[-1])
    except Exception as exc:  # noqa: BLE001 - recorded as the job's outcome
        return {"exit": None, "grade": "wrong", "report": {"raised": type(exc).__name__}}
    try:
        grade = job.gate(code, report)
    except (KeyError, TypeError, ValueError):
        grade = "wrong"
    return {"exit": code, "grade": grade,
            "report": {k: v for k, v in report.items() if k not in DROPPED}}


def write(args) -> int:
    root = Path(args.root).resolve()
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "src"))
    workloads = _load("workloads", root / "bench" / "workloads.py")
    oracles = _load("oracles", root / "tests" / "oracles.py")
    from polysmith import cli

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as workdir:
                jobs = workloads.BUILDERS[name](workdir, str(root / "tests" / "fixtures"),
                                                seed, oracles)
                lines = [json.dumps({"job": k, "kind": job.kind, **run_job(cli, job)},
                                    sort_keys=True) for k, job in enumerate(jobs)]
            (out / f"{name}-{seed}.jsonl").write_text("\n".join(lines) + "\n")
            print(f"{name} seed {seed}: {len(lines)} jobs", file=sys.stderr)
    return 0


def _moved(old, new, rtol: float, path: str = ""):
    """(path, old, new) of every leaf where new differs from old: floats by
    their bits or within rtol, everything else (exit code, grade, termination,
    `certified`, counts, strings) exactly."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _moved(old.get(key), new.get(key), rtol, f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _moved(a, b, rtol, f"{path}[{i}]")
    elif isinstance(old, float) and isinstance(new, float):
        same = old.hex() == new.hex() or (math.isnan(old) and math.isnan(new))
        if not same and not (rtol and math.isclose(old, new, rel_tol=rtol, abs_tol=0.0)):
            yield path, old, new
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def compare(args) -> int:
    old_dir, new_dir = Path(args.old), Path(args.new)
    files = sorted(p.name for p in old_dir.glob("*.jsonl"))
    if not files or files != sorted(p.name for p in new_dir.glob("*.jsonl")):
        print(f"the two directories hold different records: {files}", file=sys.stderr)
        return 2
    total = identical = 0
    moved_jobs = []
    for name in files:
        old_lines = (old_dir / name).read_text().splitlines()
        new_lines = (new_dir / name).read_text().splitlines()
        if len(old_lines) != len(new_lines):
            print(f"{name}: {len(old_lines)} jobs against {len(new_lines)}", file=sys.stderr)
            return 2
        for old_line, new_line in zip(old_lines, new_lines):
            total += 1
            identical += old_line == new_line
            old, new = json.loads(old_line), json.loads(new_line)
            diffs = list(_moved(old, new, args.rtol))
            if diffs:
                moved_jobs.append(f"{name[:-6]} job {old['job']} ({old['kind']})")
                print(moved_jobs[-1])
                for path, a, b in diffs[:SHOWN]:
                    print(f"    {path}: {a!r} -> {b!r}")
    print(f"{identical}/{total} reports byte-identical; {total - len(moved_jobs)}/{total} "
          f"within rtol {args.rtol:g}; {len(moved_jobs)} moved")
    return 1 if moved_jobs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="record every job's report for one tree")
    p_write.add_argument("--root", default=str(ROOT), help="checkout whose src/ runs the jobs")
    p_write.add_argument("--out", required=True, help="output directory (git-ignored)")
    p_write.add_argument("--seeds", type=int, nargs="+", default=[1, 7919])
    p_compare = sub.add_parser("compare", help="compare two recorded directories")
    p_compare.add_argument("old")
    p_compare.add_argument("new")
    p_compare.add_argument("--rtol", type=float, default=0.0,
                           help="relative tolerance on numbers; 0 means bit for bit")
    args = parser.parse_args(argv)
    return write(args) if args.command == "write" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
