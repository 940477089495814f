import importlib.util
import json
import math

import pytest

from conftest import FIXTURES

PATH = FIXTURES.parent.parent / "tools" / "compare_reports.py"
SPEC = importlib.util.spec_from_file_location("compare_reports", PATH)
compare_reports = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_reports)


def record(**changes):
    """One job line as `write` records it; changes replace report fields."""
    report = {"command": "mccoy", "distance": 1.7320508075688772, "certified": True,
              "termination": "GradTol", "omega": [0.25, 0.0]}
    job = {"job": 0, "kind": "mccoy", "exit": 0, "grade": "ok", "report": report}
    for key, value in changes.items():
        (job if key in job else report)[key] = value
    return job


def write_records(directory, files):
    """files maps a file name to its list of job records."""
    directory.mkdir()
    for name, jobs in files.items():
        lines = [json.dumps(job, sort_keys=True) for job in jobs]
        (directory / name).write_text("\n".join(lines) + "\n")
    return str(directory)


def compare(tmp_path, old_files, new_files, *flags):
    old = write_records(tmp_path / "old", old_files)
    new = write_records(tmp_path / "new", new_files)
    return compare_reports.main(["compare", old, new, *flags])


def test_identical_records_pass(tmp_path, capsys):
    files = {"solve-sweep-1.jsonl": [record(), record(job=1, distance=2.0)]}
    assert compare(tmp_path, files, files) == 0
    assert "2/2 reports byte-identical" in capsys.readouterr().out


@pytest.mark.parametrize("change", [{"certified": False}, {"exit": 3}, {"grade": "wrong"},
                                    {"termination": "Sublinear"}])
@pytest.mark.parametrize("flags", [(), ("--rtol", "1e-3")])
def test_flipped_outcome_moves_at_any_rtol(tmp_path, change, flags):
    name = "paper-examples-1.jsonl"
    assert compare(tmp_path, {name: [record()]}, {name: [record(**change)]}, *flags) == 1


@pytest.mark.parametrize("rtol, want", [("0", 1), ("1e-12", 0)])
def test_one_ulp_moves_only_bit_for_bit(tmp_path, rtol, want):
    near = math.nextafter(1.7320508075688772, math.inf)
    name = "analysis-sweep-1.jsonl"
    assert compare(tmp_path, {name: [record()]}, {name: [record(distance=near)]},
                   "--rtol", rtol) == want


def test_signed_zero_moves_bit_for_bit(tmp_path, capsys):
    name = "solve-sweep-7919.jsonl"
    assert compare(tmp_path, {name: [record()]}, {name: [record(omega=[0.25, -0.0])]}) == 1
    assert ".report.omega[1]: 0.0 -> -0.0" in capsys.readouterr().out


@pytest.mark.parametrize("new_files", [
    {"solve-sweep-1.jsonl": [record()], "solve-sweep-7919.jsonl": [record()]},
    {"solve-sweep-7919.jsonl": [record()]},
    {"solve-sweep-1.jsonl": [record(), record(job=1)]},
])
def test_different_file_sets_or_job_counts_are_not_comparable(tmp_path, new_files):
    assert compare(tmp_path, {"solve-sweep-1.jsonl": [record()]}, new_files) == 2
