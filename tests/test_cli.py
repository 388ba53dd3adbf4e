import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import blfix.cli
import blfix.matcore
from blfix.cli import main
from blfix.datum import (
    BLDatum,
    datum_to_json_obj,
    gen_holder,
    gen_random,
    gen_young,
    load_datum,
    save_datum,
)
from blfix.errors import TooLarge, atomic_write_text
from blfix.matcore import SpdMatrix, save_matrix

from conftest import dsyevd_failing_on


def _young_with(**fields) -> bytes:
    obj = datum_to_json_obj(gen_young())
    obj.update(fields)
    return json.dumps(obj).encode()


MALFORMED_DATA = [
    _young_with(maps=[[["x", 0.0]], [[0.0, 1.0]], [[1.0, -1.0]]]),
    _young_with(maps=[[[1.0], [2.0, 3.0]], [[0.0, 1.0]], [[1.0, -1.0]]]),
    _young_with(weights=[None, 2.0 / 3.0, 2.0 / 3.0]),
    b"\xff\xfe{}",
    b"[" * 100000,
]
MALFORMED_MATRICES = [
    '{"n": 2, "data": [[1.0, 0.0], 5]}',
    '{"n": 2, "data": [[1.0, "a"], ["a", 1.0]]}',
]
# datum files that parse as JSON but fail a check, with the message naming it
REJECTED_DATA = {
    "json-array": (b"[]", "must contain a JSON object"),
    "d-zero": (_young_with(d=0), 'field "d" must be a positive integer'),
    "maps-length": (_young_with(maps=[[[1.0, 0.0]], [[0.0, 1.0]]]), 'field "maps" must list 3 matrices'),
    "weights-length": (_young_with(weights=[0.5, 0.5]), 'field "weights" must list 3 numbers'),
    "declared-shape": (_young_with(d=3), "declared shape (1x3) does not match maps (1x2)"),
    "flat-row-map": (_young_with(maps=[[1.0, 0.0], [[0.0, 1.0]], [[1.0, -1.0]]]), "map 0 is not a matrix"),
    "inf-entry": (_young_with().replace(b"-1.0", b"1e400"), "map 2 has non-finite entries"),  # JSON reads inf
    # Python reads true as 1 and numpy as 1.0, so each of these would load
    "bool-dprime": (_young_with(dprime=True), "bad.json: boolean true is not allowed"),
    "bool-map-entry": (_young_with(maps=[[[True, 0.0]], [[0.0, 1.0]], [[1.0, -1.0]]]),
                       "bad.json: boolean true is not allowed"),
    "bool-weight": (_young_with(weights=[True, 2.0 / 3.0, 2.0 / 3.0]),
                    "bad.json: boolean true is not allowed"),
    # json.dumps writes these as the bare tokens NaN and -Infinity
    "nan-weight": (_young_with(weights=[math.nan, 2.0 / 3.0, 2.0 / 3.0]),
                   "bad.json: non-finite number 'NaN' is not allowed"),
    "minus-infinity-entry": (_young_with(maps=[[[-math.inf, 0.0]], [[0.0, 1.0]], [[1.0, -1.0]]]),
                             "bad.json: non-finite number '-Infinity' is not allowed"),
    # json.dumps writes these as 401-digit integer literals, which no double holds
    "huge-int-weight": (_young_with(weights=[10 ** 400, 2.0 / 3.0, 2.0 / 3.0]),
                        "bad.json: int too large to convert to float"),
    "huge-int-map-entry": (_young_with(maps=[[[10 ** 400, 0.0]], [[0.0, 1.0]], [[1.0, -1.0]]]),
                           "bad.json: int too large to convert to float"),
}
REJECTED_MATRICES = {
    "no-n": ('{"data": [[1.0]]}', 'must have fields "n" and "data"'),
    "n-zero": ('{"n": 0, "data": []}', 'field "n" must be a positive integer'),
    "inf-entry": ('{"n": 1, "data": [[1e400]]}', "matrix entries must be finite"),
    "bool-n": ('{"n": true, "data": [[2.0]]}', "bad.json: boolean true is not allowed"),
    "bool-entry": ('{"n": 2, "data": [[true, 0.0], [0.0, 2.0]]}', "bad.json: boolean true is not allowed"),
    "nan-entry": ('{"n": 1, "data": [[NaN]]}', "bad.json: non-finite number 'NaN' is not allowed"),
    "minus-infinity-entry": ('{"n": 1, "data": [[-Infinity]]}',
                             "bad.json: non-finite number '-Infinity' is not allowed"),
    "huge-int-entry": (f'{{"n": 1, "data": [[{10 ** 400}]]}}', "bad.json: int too large to convert to float"),
}


@pytest.fixture
def young_path(tmp_path):
    path = str(tmp_path / "young.json")
    save_datum(gen_young(), path)
    return path


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def assert_error_exit(capsys, *argv) -> str:
    """The command fails with exit 1 and one blfix error line, no traceback."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("blfix: error:") and "Traceback" not in captured.err
    return captured.err


def run_child(*argv, **kwargs) -> subprocess.CompletedProcess:
    """Run `python -m blfix.cli argv` in a child that imports the blfix this suite imported, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(blfix.cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "blfix.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


def _strip_volatile(summary: dict) -> dict:
    out = dict(summary)
    out.pop("wall_time_s", None)
    out.pop("argv", None)
    if "solvers" in out:
        out["solvers"] = {
            k: {kk: vv for kk, vv in v.items() if kk != "wall_time_s"}
            for k, v in out["solvers"].items()
        }
    return out


class TestGen:
    def test_gen_young_file(self, capsys, tmp_path):
        path = str(tmp_path / "y.json")
        code, _ = run_cli(capsys, "gen", "young", "--out", path)
        assert code == 0
        assert load_datum(path) == gen_young()

    def test_gen_stdout(self, capsys):
        code, out = run_cli(capsys, "gen", "holder", "--d", "2", "--m", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["d"] == 2 and obj["m"] == 3

    def test_gen_random_deterministic(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run_cli(capsys, "gen", "random", "--d", "4", "--dprime", "2", "--m", "4",
                "--seed", "7", "--out", a)
        run_cli(capsys, "gen", "random", "--d", "4", "--dprime", "2", "--m", "4",
                "--seed", "7", "--out", b)
        assert open(a).read() == open(b).read()

    def test_unwritable_out_names_the_destination(self, capsys, tmp_path):
        # the writer's temp file has a fresh random name on every run; the error names --out
        out = str(tmp_path / "missing" / "y.json")
        first, second = [(main(["gen", "young", "--out", out]), capsys.readouterr()) for _ in range(2)]
        assert first == second and first[0] == 1 and first[1].out == ""
        assert first[1].err == f"blfix: io error: [Errno 2] No such file or directory: {out!r}\n"

    def test_parser_built_once_keeps_no_state_between_calls(self, capsys, tmp_path, young_path):
        assert blfix.cli._build_parser() is blfix.cli._build_parser()
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run_cli(capsys, "gen", "random", "--d", "6", "--dprime", "3", "--m", "5", "--seed", "4", "--out", a)
        assert run_cli(capsys, "check", a)[0] == 0
        run_cli(capsys, "gen", "holder", "--out", b)
        assert load_datum(a) == gen_random(6, 3, 5, 4)
        assert load_datum(b) == gen_holder(2, 3)  # the defaults, not the first call's flags
        parser = blfix.cli._build_parser()
        first = parser.parse_args(["solve", young_path, "--solver", "g", "--tol", "1e-3", "--max-iter", "5"])
        second = parser.parse_args(["solve", young_path])
        assert (first.solver, first.tol, first.max_iter) == ("g", 1e-3, 5)
        assert (second.solver, second.tol, second.max_iter) == ("gmu", None, None)
        assert not hasattr(second, "argv_echo")


class TestSolve:
    def test_young_gmu(self, capsys, young_path):
        code, out = run_cli(capsys, "solve", young_path, "--solver", "gmu",
                            "--eps", "1e-6")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == "blfix/1"
        assert obj["result"]["status"] == "Converged"
        assert obj["result"]["bl_constant"] == pytest.approx(math.sqrt(3) / 2, rel=1e-6)

    def test_holder_plain(self, capsys, tmp_path):
        path = str(tmp_path / "holder.json")
        run_cli(capsys, "gen", "holder", "--d", "2", "--m", "3", "--out", path)
        code, out = run_cli(capsys, "solve", path, "--solver", "g")
        assert code == 0
        obj = json.loads(out)
        assert obj["result"]["bl_constant"] == pytest.approx(1.0, abs=1e-12)
        assert obj["result"]["iterations"] == 1

    def test_infeasible_scaling_exits_1(self, capsys, tmp_path):
        bad = BLDatum.from_maps([np.eye(2)] * 3, [0.5, 0.5, 0.5])
        path = str(tmp_path / "bad.json")
        path_obj = datum_to_json_obj(bad)
        (tmp_path / "bad.json").write_text(json.dumps(path_obj))
        code, _ = run_cli(capsys, "solve", path, "--solver", "g")
        assert code == 1

    def test_max_iter_exits_2(self, capsys, young_path):
        code, out = run_cli(capsys, "solve", young_path, "--solver", "gmu",
                            "--tol", "1e-13", "--max-iter", "40")
        assert code == 2
        assert json.loads(out)["result"]["status"] == "MaxIter"

    def test_blowup_exits_3(self, capsys, tmp_path):
        maps = [[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]]
        datum = BLDatum.from_maps(maps, [0.9, 0.9, 0.2])
        path = str(tmp_path / "starved.json")
        save_datum(datum, path)
        code, out = run_cli(capsys, "solve", path, "--solver", "g")
        assert code == 3
        assert json.loads(out)["result"]["status"] == "InfeasibilitySuspected"

    def test_roundoff_floor_is_not_flagged(self, capsys, tmp_path):
        # tol 1e-15 is below the roundoff of this feasible datum's steps, so the
        # run ends at the cap; the steps' jitter there is not a sign of infeasibility
        path = str(tmp_path / "r.json")
        assert main(["gen", "random", "--d", "4", "--dprime", "3", "--m", "5", "--seed", "5",
                     "--out", path]) == 0
        code, out = run_cli(capsys, "solve", path, "--solver", "g", "--tol", "1e-15",
                            "--max-iter", "2000")
        assert code in (0, 2)
        assert json.loads(out)["result"]["status"] in ("Converged", "MaxIter")

    def test_missing_file_exits_1(self, capsys):
        code, _ = run_cli(capsys, "solve", "/nonexistent/datum.json")
        assert code == 1

    def test_x0_file(self, capsys, young_path, tmp_path):
        x0 = str(tmp_path / "x0.json")
        save_matrix(SpdMatrix([[1.0, 0.5], [0.5, 1.0]]), x0)
        code, out = run_cli(capsys, "solve", young_path, "--solver", "g", "--x0", x0)
        assert code == 0
        assert json.loads(out)["result"]["iterations"] == 1

    def test_result_overflow_exits_1(self, capsys, young_path, tmp_path):
        x0 = str(tmp_path / "x0.json")
        save_matrix(SpdMatrix(np.diag([1e-320, 1.0])), x0)
        err = assert_error_exit(capsys, "solve", young_path, "--x0", x0)
        assert err == "blfix: error: iteration 1: overflow encountered in matmul\n"

    def test_x0_past_the_double_range_ends_with_a_documented_exit(self, capsys, young_path, tmp_path):
        # cond(x0) = 1.5e608: g and gmu flag the feasible datum at iteration 1
        # (ROADMAP defect 5(g)); gtilde's rescale sends the small eigenvalue to
        # about 1e-608, so a Gram matrix underflows and its factor fails
        x0 = str(tmp_path / "x0.json")
        save_matrix(SpdMatrix(np.diag([1.5e308, 1e-300])), x0)
        for trace in ([], ["--trace", str(tmp_path / "t.csv")]):
            for solver in ("g", "gmu"):
                code = main(["solve", young_path, "--solver", solver, "--x0", x0, *trace])
                captured = capsys.readouterr()
                result = json.loads(captured.out)["result"]
                assert (code, result["status"], result["iterations"]) == (3, "InfeasibilitySuspected", 1)
                assert captured.err == ""
            err = assert_error_exit(capsys, "solve", young_path, "--solver", "gtilde", "--x0", x0, *trace)
            assert err == "blfix: error: iteration 1: matrix is not positive definite\n"

    @pytest.mark.parametrize("solver", ["g", "gmu", "gtilde"])
    @pytest.mark.parametrize("start, codes", [
        ([1.79e308, 1.79e308], {"g": 1, "gmu": 1, "gtilde": 0}),  # g's X_star and gmu's T^T T overflow
        ([4e-308, 1e-320], {"g": 1, "gmu": 1, "gtilde": 3}),  # T^-1 ~ 1e160: row 0's gradient overflows
    ], ids=["huge", "subnormal"])
    def test_trace_never_changes_how_an_extreme_start_ends(self, capsys, young_path, tmp_path, solver, start, codes):
        x0 = str(tmp_path / "x0.json")
        save_matrix(SpdMatrix(np.diag(start)), x0)
        endings = []
        for trace in ([], ["--trace", str(tmp_path / "t.csv")]):
            code = main(["solve", young_path, "--solver", solver, "--x0", x0, *trace])
            captured = capsys.readouterr()
            result = json.loads(captured.out)["result"] if code != 1 else None
            endings.append((code, captured.err, result and (result["status"], result["iterations"])))
        assert endings[0] == endings[1] and endings[0][0] == codes[solver]

    @pytest.mark.parametrize("solver", ["g", "rgd"])
    def test_eigensolver_failure_exits_1(self, capsys, monkeypatch, young_path, solver):
        monkeypatch.setattr(blfix.matcore, "dsyevd", dsyevd_failing_on(3))
        err = assert_error_exit(capsys, "solve", young_path, "--solver", solver)
        assert re.match(r"blfix: error: iteration \d+: symmetric eigensolver did not converge", err)

    def test_trace_written(self, capsys, young_path, tmp_path):
        trace = str(tmp_path / "t.csv")
        code, _ = run_cli(capsys, "solve", young_path, "--solver", "g",
                          "--trace", trace)
        assert code == 0
        lines = open(trace).read().strip().split("\n")
        assert lines[0].startswith("iter,F,F_mu,grad_norm,thompson_step")

    @pytest.mark.parametrize("trace", ["missing/t.csv", "taken/t.csv", "taken/sub/t.csv", "directory", "loop/t.csv",
                                       pytest.param("x" * 300, id="300-char-name"),
                                       "new/", "directory/", ".", "..", "directory/..", "./"])
    def test_unwritable_trace_exits_1_before_the_solver(self, capsys, monkeypatch, tmp_path, young_path, trace):
        # the error line is the one the trace's write raises, and nothing is written; os.path.join
        # keeps the trailing separator and the "." that pathlib would drop
        (tmp_path / "taken").write_text("kept\n")
        (tmp_path / "directory").mkdir()
        (tmp_path / "loop").symlink_to("loop")
        trace, before = os.path.join(str(tmp_path), trace), sorted(tmp_path.rglob("*"))
        with pytest.raises(OSError) as write:
            atomic_write_text(trace, "")
        monkeypatch.setattr("blfix.cli._run_solver", lambda *a: pytest.fail("a solver ran"))
        code = main(["solve", young_path, "--solver", "g", "--trace", trace])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and captured.err == f"blfix: io error: {write.value}\n"
        assert trace in captured.err and sorted(tmp_path.rglob("*")) == before

    def test_trace_over_a_link_to_a_directory_replaces_the_link(self, capsys, tmp_path, young_path):
        # the write's final rename does not follow the last link, so the check must not either
        (tmp_path / "directory").mkdir()
        link = tmp_path / "link"
        link.symlink_to("directory")
        assert run_cli(capsys, "solve", young_path, "--solver", "g", "--trace", str(link))[0] == 0
        assert not link.is_symlink() and link.read_text().startswith("iter,")
        assert list((tmp_path / "directory").iterdir()) == []

    def test_datum_hash_is_taken_before_the_trace_replaces_the_datum(self, capsys, young_path):
        with open(young_path, "rb") as fh:
            before = hashlib.sha256(fh.read()).hexdigest()
        code, out = run_cli(capsys, "solve", young_path, "--solver", "g", "--trace", young_path)
        assert code == 0 and json.loads(out)["datum"] == {"path": young_path, "sha256": before}
        assert open(young_path).read().startswith("iter,")

    @pytest.mark.parametrize("solver", ["g", "gmu", "gtilde", "rgd"])
    @pytest.mark.parametrize("shape", [None, (6, 4, 5)], ids=["young", "random"])
    def test_trace_flag_changes_no_output(self, capsys, tmp_path, solver, shape):
        # --trace runs at the full trace level and plain solve at summary;
        # both levels run the same iterates to the same result
        path = str(tmp_path / "datum.json")
        save_datum(gen_young() if shape is None else gen_random(*shape, seed=10), path)
        _, plain = run_cli(capsys, "solve", path, "--solver", solver)
        _, traced = run_cli(capsys, "solve", path, "--solver", solver, "--trace", str(tmp_path / "t.csv"))
        assert _strip_volatile(json.loads(plain)) == _strip_volatile(json.loads(traced))

    @pytest.mark.parametrize("solver, config", [
        ("g", {"tol": 1e-10, "max_iter": 10000, "epsilon": 1e-6, "mu": None, "x0": "identity"}),
        ("gmu", {"tol": 1e-6, "max_iter": 10000, "epsilon": 1e-6, "mu": None, "x0": "identity"}),
        ("gtilde", {"tol": 1e-10, "max_iter": 10000, "epsilon": 1e-6, "mu": None, "x0": "identity"}),
        ("rgd", {"tol_grad": 1e-8, "max_iter": 10000}),
    ])
    def test_default_config_echo(self, capsys, young_path, solver, config):
        code, out = run_cli(capsys, "solve", young_path, "--solver", solver)
        assert code == 0
        assert json.loads(out)["config"] == {"solver": solver, **config}

    def test_deterministic_output(self, capsys, young_path):
        _, out1 = run_cli(capsys, "solve", young_path, "--solver", "gmu")
        _, out2 = run_cli(capsys, "solve", young_path, "--solver", "gmu")
        assert _strip_volatile(json.loads(out1)) == _strip_volatile(json.loads(out2))


    def test_overflowing_constant_prints_infinity(self, capsys, tmp_path):
        # Holder with d=10 and both maps scaled by 1e-40: the constant is 1e400
        path = str(tmp_path / "tiny.json")
        save_datum(BLDatum.from_maps([1e-40 * np.eye(10)] * 2, [0.5, 0.5]), path)
        code, out = run_cli(capsys, "solve", path, "--solver", "g")
        assert code == 0
        assert '"bl_constant": Infinity' in out
        result = json.loads(out)["result"]
        assert result["bl_constant"] == math.inf
        assert result["F_value"] == pytest.approx(-800.0 * math.log(10.0), rel=1e-12)

    @pytest.mark.parametrize("solver", ["g", "gmu", "gtilde", "rgd"])
    @pytest.mark.parametrize("c", [1e-200, 1e160], ids=["1e-200", "1e160"])
    def test_scaled_young(self, capsys, tmp_path, solver, c):
        # L_j -> c L_j adds 4 ln c to Young's F; the pushforwards alone
        # underflow (1e-200) or overflow (1e160) a double
        young = gen_young()
        path = str(tmp_path / "scaled.json")
        save_datum(BLDatum.from_maps([c * L for L in young.maps], young.weights), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", path, "--solver", solver])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        f = json.loads(captured.out)["result"]["F_value"]
        assert abs(f - (math.log(4 / 3) + 4 * math.log(c))) <= 1e-9

    def test_rgd_on_infeasible_datum_fails_cleanly(self, capsys, tmp_path):
        path = str(tmp_path / "infeasible.json")
        save_datum(BLDatum.from_maps([[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]], [0.9, 0.9, 0.2]), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = assert_error_exit(capsys, "solve", path, "--solver", "rgd")
        assert err.startswith("blfix: error: iteration ") and err.count("\n") == 1

    def test_huge_weights_fail_validation_without_warnings(self, capsys, tmp_path):
        path = _huge_weights_path(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve", path])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("blfix: validation failed: ")
        assert captured.err.count("\n") == 1


def _huge_weights_path(tmp_path) -> str:
    """A datum whose weights, and their products with ranks, overflow when summed."""
    path = str(tmp_path / "huge.json")
    save_datum(BLDatum.from_maps([[[1.0, 1.0]], [[1.0, -1.0]]], [1e308, 1e308]), path)
    return path


class TestCheck:
    def test_young_report(self, capsys, young_path):
        code, out = run_cli(capsys, "check", young_path)
        assert code == 0
        obj = json.loads(out)
        assert obj["report"]["accepted"] is True
        assert obj["critical_c"] == pytest.approx(1.0)

    def test_rejected_datum_exits_1(self, capsys, tmp_path):
        bad = BLDatum.from_maps([np.eye(2)] * 3, [0.5, 0.5, 0.5])
        path = str(tmp_path / "bad.json")
        save_datum(bad, path)
        code, out = run_cli(capsys, "check", path)
        assert code == 1
        assert json.loads(out)["report"]["scaling_ok"] is False

    def test_critical_c_too_large_prints_null(self, capsys, monkeypatch, young_path):
        def too_large(datum):
            raise TooLarge("comb(d, dprime) exceeds the limit")

        monkeypatch.setattr("blfix.cli.critical_c", too_large)
        code, out = run_cli(capsys, "check", young_path)
        assert code == 0 and json.loads(out)["critical_c"] is None

    def test_critical_c_beyond_its_bound_prints_null(self, capsys, tmp_path):
        # comb(20, 10) = 184756 index sets, but 5.5e7 minor entries: beyond critical_c's bound
        path = str(tmp_path / "random.json")
        save_datum(gen_random(20, 10, 3, 0), path)
        code, out = run_cli(capsys, "check", path)
        assert code == 0 and json.loads(out)["critical_c"] is None

    def test_huge_weights_report_without_warnings(self, capsys, tmp_path):
        path = _huge_weights_path(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", path])
        captured = capsys.readouterr()
        assert code == 1 and captured.err == ""
        report = json.loads(captured.out)["report"]
        assert report["scaling_residual"] == math.inf and report["accepted"] is False

    def test_overflowing_minor_reports_without_warnings(self, capsys, tmp_path):
        # the 2x2 minors of maps scaled by 1e200 overflow; inf is their correctly rounded |det|
        datum = gen_random(6, 2, 4, 0)
        path = str(tmp_path / "huge.json")
        save_datum(BLDatum.from_maps(datum.maps * 1e200, datum.weights), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", path])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["critical_c"] == math.inf


class TestMetric:
    def test_thompson_value(self, capsys, tmp_path):
        x, y = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        save_matrix(SpdMatrix(2 * np.eye(3)), x)
        save_matrix(SpdMatrix.identity(3), y)
        code, out = run_cli(capsys, "metric", "thompson", x, y)
        assert code == 0
        assert out.strip() == "0.6931471805599453"

    def test_hilbert_projective(self, capsys, tmp_path):
        x, y = str(tmp_path / "x.json"), str(tmp_path / "y.json")
        save_matrix(SpdMatrix(2 * np.eye(2)), x)
        save_matrix(SpdMatrix.identity(2), y)
        code, out = run_cli(capsys, "metric", "hilbert", x, y)
        assert code == 0
        assert float(out) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_largest_double(self, capsys, tmp_path):
        x, eye = str(tmp_path / "x.json"), str(tmp_path / "eye.json")
        with open(x, "w") as f:
            json.dump({"n": 2, "data": [[1e308, 0.0], [0.0, 1.0]]}, f)
        save_matrix(SpdMatrix.identity(2), eye)
        for y, want in ((x, "0.0"), (eye, "709.1962086421661")):
            code = main(["metric", "thompson", x, y])
            captured = capsys.readouterr()
            assert (code, captured.out.strip(), captured.err) == (0, want, "")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("which", ["thompson", "hilbert"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quotient_outside_the_doubles_exits_1(self, capsys, tmp_path, which, n):
        big, small = str(tmp_path / "big.json"), str(tmp_path / "small.json")
        save_matrix(SpdMatrix(1e300 * np.eye(n)), big)
        save_matrix(SpdMatrix(1e-300 * np.eye(n)), small)
        for x, y in ((big, small), (small, big)):
            err = assert_error_exit(capsys, "metric", which, x, y)
            assert err.count("\n") == 1 and "leaves the doubles" in err


class TestBench:
    def test_bench_runs_and_writes(self, capsys, tmp_path):
        out_dir = str(tmp_path / "traces")
        code, out = run_cli(
            capsys, "bench", "--d", "4", "--dprime", "2", "--m", "4", "--seed", "2",
            "--solvers", "g,gmu,rgd", "--out-dir", out_dir, "--max-iter", "20000",
        )
        assert code == 0
        obj = json.loads(out)
        assert set(obj["solvers"]) == {"g", "gmu", "rgd"}
        for name in ("g", "gmu", "rgd"):
            assert os.path.exists(os.path.join(out_dir, f"{name}.csv"))
            assert obj["solvers"][name]["iterations_to_tol"] is not None
        assert os.path.exists(os.path.join(out_dir, "summary.txt"))

    def test_bench_traces_deterministic_except_time(self, capsys, tmp_path):
        args = ["bench", "--d", "3", "--dprime", "2", "--m", "4", "--seed", "3",
                "--solvers", "gmu", "--max-iter", "20000"]
        run_cli(capsys, *args, "--out-dir", str(tmp_path / "a"))
        run_cli(capsys, *args, "--out-dir", str(tmp_path / "b"))

        def rows_without_time(path):
            lines = open(path).read().strip().split("\n")
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert rows_without_time(tmp_path / "a" / "gmu.csv") == rows_without_time(
            tmp_path / "b" / "gmu.csv"
        )

    def test_bench_datum_file(self, capsys, tmp_path, young_path):
        out_dir = str(tmp_path / "traces")
        code, out = run_cli(capsys, "bench", "--datum", young_path, "--solvers", "g,gtilde",
                            "--out-dir", out_dir)
        assert code == 0
        obj = json.loads(out)
        with open(young_path, "rb") as fh:
            assert obj["datum"] == {"path": young_path, "sha256": hashlib.sha256(fh.read()).hexdigest()}
        assert set(obj["solvers"]) == {"g", "gtilde"}
        for name, run in obj["solvers"].items():
            assert run["status"] == "Converged"
            assert abs(run["bl_constant"] - math.sqrt(3) / 2) <= 1e-9
            assert os.path.exists(os.path.join(out_dir, f"{name}.csv"))
        assert os.path.exists(os.path.join(out_dir, "summary.txt"))

    @pytest.mark.parametrize("max_iter", [None, 3])
    @pytest.mark.parametrize("datum", ["young", "random"])
    def test_iterations_to_tol_is_the_first_row_within_tol(self, capsys, tmp_path, datum, max_iter):
        path, out_dir, tol = str(tmp_path / "d.json"), tmp_path / "traces", 1e-8
        save_datum(gen_young() if datum == "young" else gen_random(10, 5, 8, 0), path)
        limit = [] if max_iter is None else ["--max-iter", str(max_iter)]
        code, out = run_cli(capsys, "bench", "--datum", path, "--solvers", "g,gmu,gtilde,rgd",
                            *limit, "--out-dir", str(out_dir))
        solvers = json.loads(out)["solvers"]
        for name, run in solvers.items():
            with open(out_dir / f"{name}.csv") as fh:
                rows = list(csv.DictReader(fh))
            column = "grad_norm" if name == "rgd" else "thompson_step"
            within = [int(r["iter"]) for r in rows if float(r[column]) <= tol]
            assert run["iterations_to_tol"] == (within[0] if within else None)
        if max_iter == 3:
            assert code == 2 and all(run["iterations_to_tol"] is None for run in solvers.values())

    def test_bench_mu_no_listed_solver_reads_exits_1(self, capsys, monkeypatch, tmp_path, young_path):
        monkeypatch.setattr("blfix.cli._run_solver", lambda *a: pytest.fail("a solver ran"))
        out_dir = tmp_path / "b"
        err = assert_error_exit(capsys, "bench", "--datum", young_path, "--solvers", "g,rgd",
                                "--mu", "0.5", "--out-dir", str(out_dir))
        assert err == "blfix: error: --mu does not apply to --solvers g,rgd\n"
        assert not out_dir.exists()

    def test_bench_mu_reaches_gmu(self, capsys, tmp_path, young_path):
        # a fixed mu keeps gmu off its epsilon target, so it runs to --max-iter
        code, out = run_cli(capsys, "bench", "--datum", young_path, "--solvers", "g,gmu",
                            "--mu", "0.5", "--max-iter", "100", "--out-dir", str(tmp_path / "b"))
        solvers = json.loads(out)["solvers"]
        assert code == 2 and [run["status"] for run in solvers.values()] == ["Converged", "MaxIter"]

    def test_bench_unknown_solver_exits_1(self, capsys, tmp_path, young_path):
        err = assert_error_exit(capsys, "bench", "--datum", young_path, "--solvers", "g,foo",
                                "--out-dir", str(tmp_path / "b"))
        assert "unknown solver 'foo'" in err

    def test_bench_repeated_solver_exits_1(self, capsys, monkeypatch, tmp_path, young_path):
        monkeypatch.setattr("blfix.cli._run_solver", lambda *a: pytest.fail("a solver ran"))
        out_dir = tmp_path / "b"
        err = assert_error_exit(capsys, "bench", "--datum", young_path, "--solvers", "g,gmu,g",
                                "--out-dir", str(out_dir))
        assert "solver 'g' is named twice" in err
        assert not out_dir.exists()

    def test_bench_out_dir_naming_a_file_exits_1_before_any_solver(self, capsys, monkeypatch, tmp_path, young_path):
        monkeypatch.setattr("blfix.cli._run_solver", lambda *a: pytest.fail("a solver ran"))
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        code = main(["bench", "--datum", young_path, "--out-dir", str(taken)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("blfix: io error:") and taken.read_text() == "kept\n"

    def test_bench_unwritable_output_exits_1_before_any_solver(self, capsys, monkeypatch, tmp_path, young_path):
        # the error line is the one the write raises, and nothing is written
        out_dir = tmp_path / "out" / "bench"
        (out_dir / "g.csv").mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        with pytest.raises(OSError) as write:
            atomic_write_text(str(out_dir / "g.csv"), "")
        monkeypatch.setattr("blfix.cli._run_solver", lambda *a: pytest.fail("a solver ran"))
        code = main(["bench", "--datum", young_path, "--solvers", "g,gmu,gtilde,rgd", "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and captured.err == f"blfix: io error: {write.value}\n"
        assert sorted(tmp_path.rglob("*")) == before


class TestUsage:
    def test_unknown_solver(self, capsys, young_path):
        assert run_cli(capsys, "solve", young_path, "--solver", "nope")[0] == 1

    def test_bench_needs_datum_or_sizes(self, capsys):
        assert run_cli(capsys, "bench", "--solvers", "g")[0] == 1

    def test_bench_empty_solver_list(self, capsys, tmp_path):
        code, out = run_cli(capsys, "bench", "--d", "3", "--dprime", "2", "--m", "4",
                            "--solvers", ",", "--out-dir", str(tmp_path / "b"))
        assert code == 1 and out == ""

    @pytest.mark.parametrize(
        "content", MALFORMED_DATA,
        ids=["string-entry", "ragged-map", "null-weight", "not-utf8", "deep-nesting"],
    )
    def test_malformed_datum_exits_1(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out = run_cli(capsys, "solve", str(path), "--solver", "g")
        assert code == 1 and out == ""

    @pytest.mark.parametrize("content, message", REJECTED_DATA.values(), ids=REJECTED_DATA.keys())
    def test_rejected_datum_names_the_check(self, capsys, tmp_path, content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        err = assert_error_exit(capsys, "solve", str(path), "--solver", "g")
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("text, message", REJECTED_MATRICES.values(), ids=REJECTED_MATRICES.keys())
    def test_rejected_matrix_names_the_check(self, capsys, tmp_path, text, message):
        bad, eye = tmp_path / "bad.json", str(tmp_path / "eye.json")
        bad.write_text(text)
        save_matrix(SpdMatrix.identity(2), eye)
        err = assert_error_exit(capsys, "metric", "thompson", str(bad), eye)
        assert err.count("\n") == 1 and message in err

    def test_gen_holder_zero_dimension_exits_1(self, capsys):
        err = assert_error_exit(capsys, "gen", "holder", "--d", "0")
        assert err.count("\n") == 1 and "need d >= 1" in err

    @pytest.mark.parametrize("command", ["metric", "x0"])
    @pytest.mark.parametrize("text", MALFORMED_MATRICES, ids=["row-not-list", "string-entry"])
    def test_malformed_matrix_exits_1(self, capsys, tmp_path, young_path, command, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        if command == "metric":
            eye = str(tmp_path / "eye.json")
            save_matrix(SpdMatrix.identity(2), eye)
            argv = ["metric", "thompson", str(bad), eye]
        else:
            argv = ["solve", young_path, "--solver", "g", "--x0", str(bad)]
        code, out = run_cli(capsys, *argv)
        assert code == 1 and out == ""

    @pytest.mark.parametrize("argv", [
        ["gen", "random", "--dprime", "0"],
        ["gen", "random", "--m", "0"],
        ["bench", "--d", "4", "--dprime", "2", "--m", "0"],
    ], ids=["gen-dprime-0", "gen-m-0", "bench-m-0"])
    def test_empty_random_shape_exits_1(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        assert_error_exit(capsys, *argv)

    @pytest.mark.parametrize("argv", [
        ["gen", "random", "--seed", "-1"],
        ["bench", "--d", "2", "--dprime", "1", "--m", "3", "--seed", "-1"],
    ], ids=["gen", "bench"])
    def test_negative_seed_exits_1(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        err = assert_error_exit(capsys, *argv)
        assert err == "blfix: error: seed must be a nonnegative integer, got -1\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("args, field", [
        (["--solver", "g", "--tol", "nan"], "tol"),
        (["--solver", "g", "--tol", "inf"], "tol"),
        (["--solver", "g", "--max-iter", "-3"], "max_iter"),
        (["--solver", "gmu", "--eps", "nan"], "epsilon"),
        (["--solver", "gmu", "--mu", "inf"], "mu_override"),
        (["--solver", "rgd", "--tol", "nan"], "tol_grad"),
        (["--solver", "rgd", "--tol", "0"], "tol_grad"),
        (["--solver", "rgd", "--max-iter", "-3"], "max_iter"),
    ], ids=lambda a: "-".join(a[1::2]) if isinstance(a, list) else a)
    def test_malformed_config_exits_1(self, capsys, young_path, args, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any arithmetic
            err = assert_error_exit(capsys, "solve", young_path, *args)
        assert err.startswith(f"blfix: error: {field} must be")

    @pytest.mark.parametrize("solver, flag, value", [
        ("rgd", "--x0", "does-not-exist.json"),
        ("rgd", "--eps", "0.1"),
        ("rgd", "--mu", "0.5"),
        ("g", "--eps", "0.1"),
        ("g", "--mu", "0.5"),
        ("gtilde", "--eps", "0.1"),
        ("gtilde", "--mu", "0.5"),
    ])
    def test_flag_the_solver_ignores_exits_1(self, capsys, young_path, solver, flag, value):
        err = assert_error_exit(capsys, "solve", young_path, "--solver", solver, flag, value)
        assert err == f"blfix: error: {flag} does not apply to --solver {solver}\n"

    def test_console_script_runs(self, young_path):
        proc = run_child("solve", young_path, "--solver", "g", text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["status"] == "Converged"

    @pytest.mark.parametrize("argv", [
        ["solve", "/dev/stdin", "--solver", "g"],
        ["check", "/dev/stdin"],
        ["bench", "--datum", "/dev/stdin", "--solvers", "g", "--out-dir", "{tmp}"],
    ], ids=["solve", "check", "bench"])
    def test_datum_read_from_a_pipe(self, tmp_path, young_path, argv):
        # a pipe can be read only once: the datum is parsed from the bytes that are hashed
        with open(young_path, "rb") as fh:
            data = fh.read()
        proc = run_child(*(a.format(tmp=tmp_path) for a in argv), input=data)
        assert proc.returncode == 0 and proc.stderr == b""
        assert json.loads(proc.stdout)["datum"] == {"path": "/dev/stdin", "sha256": hashlib.sha256(data).hexdigest()}

    @pytest.mark.parametrize("argv, error", [
        (["gen", "young", "--out", ""], "[Errno 20] Not a directory: ''"),
        (["solve", "{young}", "--solver", "g", "--trace", ""], "[Errno 20] Not a directory: ''"),
        (["bench", "--datum", "{young}", "--solvers", "g", "--out-dir", ""],
         "[Errno 2] No such file or directory: ''"),
    ], ids=["gen-out", "solve-trace", "bench-out-dir"])
    def test_empty_output_path_exits_1_before_the_solver(self, capsys, monkeypatch, tmp_path, young_path, argv, error):
        # "" names no file, as "." and "d/" do; it does not mean "no output"
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("blfix.cli._run_solver", lambda *a: pytest.fail("a solver ran"))
        before = sorted(tmp_path.rglob("*"))
        code = main([a.format(young=young_path) for a in argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "" and captured.err == f"blfix: io error: {error}\n"
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("eol", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_parse_error_counts_every_line_end(self, capsys, tmp_path, eol):
        # read as text-mode open() reads: a lone CR ends a line too
        path = tmp_path / "bad.json"
        path.write_bytes(eol.join([b"{", b'  "d": 2,', b'  "dprime": 1,', b'  "maps": [', b"    oops", b"  ]", b"}", b""]))
        err = assert_error_exit(capsys, "solve", str(path), "--solver", "g")
        assert err == f"blfix: error: {path}: line 5 column 5: Expecting value\n"
