"""tools/kernel_gate.py on hand-made bits_gate digests."""

import copy
import importlib.util
import json
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "kernel_gate.py")
_spec = importlib.util.spec_from_file_location("kernel_gate", _PATH)
kernel_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kernel_gate)

F = -1.2345678901234567
DIGEST = {
    "solvers": {
        "young*1000 plain_g summary": {
            "F_value": F, "X_star": "ab", "status": "Converged", "converged": True, "iterations": 40,
            "grad_norm": 1e-9, "columns": {"F": "c1", "thompson_step": "c2"}, "mu_events": [],
        },
        "crafted rgd full": {"error": "StepFailure: iteration 1112: overflow encountered in multiply"},
    },
    "cli": {"check young.json": {"exit": 0, "stdout": "{}\n", "stderr": "", "files": {}}},
}


def _gate(tmp_path, capsys, change, parent=DIGEST):
    paths = [str(tmp_path / "parent.json"), str(tmp_path / "change.json")]
    for path, digest in zip(paths, (parent, change)):
        with open(path, "w") as fh:
            json.dump(digest, fh)
    code = kernel_gate.main(paths)
    return code, capsys.readouterr().out


def _changed(path, value):
    """DIGEST with the field at `path` (a tuple of keys) set to `value`."""
    digest = copy.deepcopy(DIGEST)
    node = digest
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return digest


RUN = ("solvers", "young*1000 plain_g summary")


def test_identical(tmp_path, capsys):
    code, out = _gate(tmp_path, capsys, copy.deepcopy(DIGEST))
    assert code == 0
    assert out == ("kernel gate: 0 differing, 0 failing; worst converged relative |dF| 0.0e+00, "
                   "largest iteration move 0\n")


def test_f_moved_one_ulp_passes_and_is_listed(tmp_path, capsys):
    change = _changed(RUN + ("F_value",), math.nextafter(F, 0.0))
    change["solvers"][RUN[1]]["columns"]["thompson_step"] = "c3"
    code, out = _gate(tmp_path, capsys, change)
    assert code == 0
    assert out.splitlines() == [
        "young*1000",
        "  plain_g summary: F_value, columns.thompson_step",
        "kernel gate: 1 differing, 0 failing; worst converged relative |dF| 1.8e-16, largest iteration move 0",
    ]


@pytest.mark.parametrize("path, value, why", [
    (RUN + ("status",), "MaxIter", "status changed"),
    (RUN + ("iterations",), 42, "iterations moved by more than 1"),
    (RUN + ("F_value",), F * (1 + 1e-10), "F moved beyond 1e-11"),
    (("solvers", "crafted rgd full", "error"), "StepFailure: iteration 1110: overflow", "error changed"),
])
def test_violations_fail(tmp_path, capsys, path, value, why):
    code, out = _gate(tmp_path, capsys, _changed(path, value))
    assert code == 1
    assert f"VIOLATION: {why}" in out and "kernel gate: 1 differing, 1 failing;" in out


def test_one_iteration_more_passes(tmp_path, capsys):
    code, out = _gate(tmp_path, capsys, _changed(RUN + ("iterations",), 41))
    assert code == 0 and "plain_g summary: iterations" in out


def test_cli_stdout_changed_fails(tmp_path, capsys):
    code, out = _gate(tmp_path, capsys, _changed(("cli", "check young.json", "stdout"), "{\"x\": 1}\n"))
    assert code == 1
    assert out.splitlines()[:2] == ["cli", "  check young.json: stdout"]
    assert out.splitlines()[2].startswith("kernel gate: 1 differing, 1 failing;")


@pytest.mark.parametrize("status, margins", [
    ("Converged", "worst converged relative |dF| 5.0e-12, largest iteration move 1"),
    ("MaxIter", "worst converged relative |dF| 0.0e+00, largest iteration move 1"),  # F of a MaxIter run is not gated
])
def test_summary_line_prints_margins(tmp_path, capsys, status, margins):
    parent = _changed(RUN + ("status",), status)
    change = copy.deepcopy(parent)
    change["solvers"][RUN[1]].update(F_value=F + 5e-12 * abs(F), iterations=41)
    change["solvers"]["crafted rgd full"]["error"] = "StepFailure: iteration 7: overflow"  # errors have no margin
    code, out = _gate(tmp_path, capsys, change, parent)
    assert code == 1  # the error changed
    assert out.splitlines()[-1] == f"kernel gate: 2 differing, 1 failing; {margins}"


def test_usage(capsys):
    assert kernel_gate.main(["only-one.json"]) == 2
    assert "usage" in capsys.readouterr().err
