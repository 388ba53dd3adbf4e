"""Workloads of the blfix benchmark: their data, their operations and the gate that
checks every result.

An op is one solver run on one datum, or one `blfix.cli.main([...])` command. A
pass is a workload's fixed list of ops; the benchmark runs whole passes in a
closed loop, one op at a time.

Inputs come from the seed through orthogonal changes of coordinates: every
datum of the fixed grid below becomes (U_j L_j A) with A and each U_j drawn
orthogonal from the seed. These maps have |det| = 1, so the Brascamp-Lieb
constant is unchanged, and the iterations started from the identity are
equivariant under them. Every seed therefore gives new input matrices with the
same constants and, up to rounding, the same amount of work.

Only the public API is called: the solvers with their configs, the generators,
`BLDatum.from_maps`, the objective's certificate functions, the datum and
matrix file functions, and `blfix.cli.main` with gen/check/solve/metric/bench.
Calls go through module attributes at call time so that a tracer that wraps
those attributes sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

import blfix
import blfix.cli

# tests/conftest.py FEASIBLE_SHAPES; datum i is gen_random(*shape, seed=i), as there.
SMALL_SHAPES = (
    (2, 1, 3), (2, 1, 4), (3, 2, 4), (4, 2, 4), (4, 2, 5), (4, 3, 5), (5, 2, 6),
    (5, 3, 4), (6, 3, 4), (6, 3, 5), (6, 4, 5), (7, 3, 5), (8, 4, 6), (8, 2, 10),
)
LARGE_DATA = (((30, 10, 12), 0), ((30, 10, 12), 1), ((60, 20, 12), 0), ((60, 20, 12), 1))
CLI_DATA = ((10, 5, 8), 0)
WORKLOADS = ("fp-small", "fp-large", "rgd", "cli")

FIXED_POINT_SOLVERS = ("plain_g", "regularized", "normalized")
EPS = 1e-6  # the CLI's default accuracy; regularized stops at tol = eps, as in the CLI
FIXED_POINT_TOL = 1e-10  # the CLI's default for plain_g and normalized

# Tolerances of the gate, fixed before any measured run.
HOLDER_RTOL = 1e-9  # the acceptance suite's bound for the Holder oracle
CLOSED_RTOL = 1e-6  # closed forms and references from another solver
AGREE_RTOL = 1e-6  # fixed-point solvers against their median on one datum
CERT_RTOL = 1e-6  # bl_value_Z(recover_Z(X*)) against exp(-F/2)
METRIC_RTOL = 1e-9  # Thompson distance against a generalized eigensolve

YOUNG = math.sqrt(3.0) / 2.0
NEAR_PARALLEL_DELTA = 1e-9
# Young's maps x, y with x - y replaced by x + delta*y: the constant scales by delta^(-1/3).
NEAR_PARALLEL = YOUNG * NEAR_PARALLEL_DELTA ** (-1.0 / 3.0)
NEAR_PARALLEL_NAME = "near-parallel-young"


@dataclass
class Case:
    """One datum with what a correct solve of it must report."""

    name: str
    datum: object
    reference: float | None = None  # None: agreement across the fixed-point solvers
    rtol: float = CLOSED_RTOL
    feasible: bool = True


@dataclass
class Outcome:
    status: str
    iterations: int = 0
    constant: float = math.nan
    x_star: object = None
    detail: object = None  # parsed CLI output


@dataclass
class Op:
    label: str
    kind: str  # solver name or CLI command
    run: Callable[[], Outcome]
    check: Callable[["Op", Outcome, dict], str | None]  # failure reason or None
    case: Case | None = None


@dataclass
class Workload:
    name: str
    ops: list
    warmups: list
    workdir: str | None = None
    needs_reference: list = field(default_factory=list)  # cases to solve by plain_g

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # still in use by another process
                os.rmdir(os.path.dirname(self.workdir))
            self.workdir = None


def run_op(op: Op) -> Outcome:
    """Run one op; an exception is an outcome the gate counts as a failure."""
    try:
        return op.run()
    except Exception as exc:  # the loop must go on; the gate reports it
        return Outcome(f"exception {type(exc).__name__}: {exc}")


# --- data ----------------------------------------------------------------------


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotate(datum, rng: np.random.Generator):
    """The datum (U_j L_j A) for orthogonal A and U_j drawn from rng."""
    a = _orthogonal(rng, datum.d)
    maps = [_orthogonal(rng, datum.dprime) @ L @ a for L in datum.maps]
    return blfix.BLDatum.from_maps(maps, datum.weights)


def _random_case(shape, gen_seed: int, rng) -> Case:
    d, dp, m = shape
    return Case(f"random{shape}#{gen_seed}", rotate(blfix.gen_random(d, dp, m, seed=gen_seed), rng))


def _small_cases(rng, smoke: bool) -> list:
    young = Case("young", rotate(blfix.gen_young(), rng), YOUNG)
    crafted = blfix.BLDatum.from_maps([[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]], [0.9, 0.9, 0.2])
    infeasible = Case("crafted-infeasible", rotate(crafted, rng), feasible=False)
    if smoke:
        return [young, infeasible]
    near = blfix.BLDatum.from_maps(
        [[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, NEAR_PARALLEL_DELTA]]], [2.0 / 3.0] * 3
    )
    cases = [_random_case(s, i, rng) for i, s in enumerate(SMALL_SHAPES)]
    cases.append(_random_case(*CLI_DATA, rng))
    cases += [
        Case("holder(3,2)", rotate(blfix.gen_holder(3, 2), rng), 1.0, HOLDER_RTOL),
        young,
        Case(NEAR_PARALLEL_NAME, rotate(near, rng), NEAR_PARALLEL),
        infeasible,
    ]
    return cases


# --- solver ops ------------------------------------------------------------------


def _close(value: float, reference: float | None, rtol: float) -> bool:
    return reference is not None and abs(value - reference) <= rtol * abs(reference)


def check_solve(op: Op, out: Outcome, consensus: dict) -> str | None:
    case = op.case
    if not case.feasible:
        if out.status == blfix.INFEASIBILITY_SUSPECTED:
            return None
        return f"status {out.status}, expected {blfix.INFEASIBILITY_SUSPECTED}"
    if out.status != blfix.CONVERGED:
        return f"status {out.status}, expected {blfix.CONVERGED}"
    reference, rtol = case.reference, case.rtol
    if reference is None:
        reference, rtol = consensus.get(case.name), AGREE_RTOL
    if not _close(out.constant, reference, rtol):
        return f"constant {out.constant!r}, reference {reference!r}"
    cert = blfix.bl_value_Z(case.datum, blfix.recover_Z(case.datum, out.x_star))
    if not _close(cert, out.constant, CERT_RTOL):
        return f"certificate {cert!r} differs from exp(-F/2) = {out.constant!r}"
    return None


def _fixed_point_op(case: Case, solver: str) -> Op:
    tol = EPS if solver == "regularized" else FIXED_POINT_TOL

    def run() -> Outcome:
        config = blfix.SolveConfig(solver=solver, tol=tol, epsilon=EPS)
        res, _ = blfix.solve_fixed_point(case.datum, config)
        return Outcome(res.status, res.iterations, res.bl_constant, res.X_star)

    return Op(f"{solver}:{case.name}", solver, run, check_solve, case)


def _rgd_op(case: Case) -> Op:
    def run() -> Outcome:
        res, _ = blfix.solve_rgd(case.datum, blfix.RgdConfig())
        return Outcome(res.status, res.iterations, res.bl_constant, res.X_star)

    return Op(f"rgd:{case.name}", "rgd", run, check_solve, case)


def consensus_of(ops, outcomes) -> dict:
    """Median constant of the converged fixed-point solves of each datum."""
    groups = {}
    for op, out in zip(ops, outcomes):
        if op.kind in FIXED_POINT_SOLVERS and out.status == blfix.CONVERGED:
            groups.setdefault(op.case.name, []).append(out.constant)
    return {name: statistics.median(values) for name, values in groups.items()}


def known_defect(op: Op, out: Outcome) -> str | None:
    """Name the documented defect a failed op shows, or None for a new failure.

    Known defects stay in the workloads and count as failures; they only keep a
    run's `correct` flag true.
    """
    if (
        op.kind in FIXED_POINT_SOLVERS
        and op.case.name == NEAR_PARALLEL_NAME
        and out.status == blfix.INFEASIBILITY_SUSPECTED
    ):
        return "feasible near-parallel datum flagged by the condition-number monitor"
    stalled = out.status == blfix.MAX_ITER and out.iterations < blfix.RgdConfig().max_iter
    if op.kind == "rgd" and (stalled or out.status.startswith("exception StepFailure")):
        return "rgd line search stalls at the double-precision noise floor"
    return None


# --- CLI ops ---------------------------------------------------------------------


def _cli_op(label: str, argv: list, parse: str, check) -> Op:
    """An op that runs `blfix.cli.main(argv)` and parses its standard output."""

    def run() -> Outcome:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = blfix.cli.main(argv)
        text = stdout.getvalue()
        detail = json.loads(text) if parse == "json" and rc in (0, 2, 3) else text
        iterations = 0
        if isinstance(detail, dict) and argv[0] == "solve":
            iterations = detail["result"]["iterations"]
        elif isinstance(detail, dict) and argv[0] == "bench":
            iterations = sum(s["iterations"] for s in detail["solvers"].values())
        return Outcome(f"exit {rc}", iterations, detail=detail)

    return Op(label, argv[0], run, check)


def _exit0(out: Outcome) -> str | None:
    return None if out.status == "exit 0" else f"{out.status}, expected exit 0"


def _critical_c_bounds(datum) -> tuple[float, float]:
    """Cauchy-Binet: det(L L^T) sums the squared maximal minors of L, so the
    largest minor lies between sqrt(det / #minors) and sqrt(det)."""
    n = math.comb(datum.d, datum.dprime)
    dets = [float(np.linalg.det(L @ L.T)) for L in datum.maps]
    return min(math.sqrt(v / n) for v in dets), min(math.sqrt(v) for v in dets)


def _cli_workload(rng, gen_seed: int) -> Workload:
    workdir = tempfile.mkdtemp(prefix="cli-", dir=scratch_dir())

    def path(name):
        return os.path.join(workdir, name)

    random_case = _random_case(*CLI_DATA, rng)
    young = Case("young", rotate(blfix.gen_young(), rng), YOUNG)
    blfix.save_datum(random_case.datum, path("random.json"))
    blfix.save_datum(young.datum, path("young.json"))
    n = 8
    spd = []
    for name in ("x.json", "y.json"):
        g = rng.standard_normal((n, n))
        x = blfix.SpdMatrix(g @ g.T / n + 0.1 * np.eye(n))
        blfix.save_matrix(x, path(name))
        spd.append(x.a)
    d, dp, m = CLI_DATA[0]

    def check_gen(_op, out, _consensus):
        if _exit0(out):
            return _exit0(out)
        if blfix.load_datum(path("gen.json")) != blfix.gen_random(d, dp, m, seed=gen_seed):
            return "generated datum differs from gen_random"
        return None

    def check_check(case, exact_c):
        def check(_op, out, _consensus):
            if _exit0(out):
                return _exit0(out)
            report = out.detail["report"]
            if not (report["accepted"] and report["subspace_heuristic_ok"] is True):
                return f"feasible datum reported {report}"
            c = out.detail["critical_c"]
            if exact_c:  # 1 x 1 minors are the entries
                want = min(float(np.max(np.abs(L))) for L in case.datum.maps)
                return None if _close(c, want, 1e-12) else f"critical_c {c!r}, expected {want!r}"
            lo, hi = _critical_c_bounds(case.datum)
            if c is None or not lo * (1 - 1e-9) <= c <= hi * (1 + 1e-9):
                return f"critical_c {c!r} outside Cauchy-Binet bounds [{lo!r}, {hi!r}]"
            return None

        return check

    def check_solve_cli(case, trace_csv):
        def check(_op, out, _consensus):
            if _exit0(out):
                return _exit0(out)
            result = out.detail["result"]
            outcome = Outcome(
                result["status"], result["iterations"], result["bl_constant"],
                blfix.SpdMatrix(out.detail["X_star"]["data"]),
            )
            fail = check_solve(Op("", "cli", None, None, case), outcome, {})
            if fail:
                return fail
            with open(trace_csv) as fh:
                rows = sum(1 for _ in fh)
            if rows != result["iterations"] + 2:
                return f"trace has {rows} lines for {result['iterations']} iterations"
            return None

        return check

    def check_metric(_op, out, _consensus):
        if _exit0(out):
            return _exit0(out)
        lam = scipy.linalg.eigh(spd[0], spd[1], eigvals_only=True)
        want = max(math.log(lam[-1]), -math.log(lam[0]))
        got = float(out.detail)
        return None if abs(got - want) <= METRIC_RTOL * want else f"thompson {got!r}, expected {want!r}"

    def check_bench(case, solvers):
        def check(_op, out, _consensus):
            if _exit0(out):
                return _exit0(out)
            for name in solvers:
                s = out.detail["solvers"][name]
                if s["status"] != blfix.CONVERGED or not _close(s["bl_constant"], case.reference, case.rtol):
                    return f"bench {name}: {s['status']} {s['bl_constant']!r}, reference {case.reference!r}"
                if not os.path.exists(path(os.path.join("bench", f"{name}.csv"))):
                    return f"bench {name}: trace CSV missing"
            return None

        return check

    def ops_for(case, tag):
        datum_file = path(f"{tag}.json")
        return [
            _cli_op(f"check:{tag}", ["check", datum_file], "json",
                    check_check(case, exact_c=case.datum.dprime == 1)),
            _cli_op(f"solve:{tag}", ["solve", datum_file, "--solver", "g", "--trace", path(f"{tag}.csv")],
                    "json", check_solve_cli(case, path(f"{tag}.csv"))),
        ]

    gen = _cli_op("gen", ["gen", "random", "--d", str(d), "--dprime", str(dp), "--m", str(m),
                          "--seed", str(gen_seed), "--out", path("gen.json")], "text", check_gen)
    metric = _cli_op("metric", ["metric", "thompson", path("x.json"), path("y.json")], "text", check_metric)
    solvers = ("g", "gmu", "gtilde")

    def bench(case, tag):
        argv = ["bench", "--datum", path(f"{tag}.json"), "--solvers", ",".join(solvers),
                "--out-dir", path("bench")]
        return _cli_op(f"bench:{tag}", argv, "json", check_bench(case, solvers))

    young_ops = ops_for(young, "young")
    solve_young_gmu = _cli_op(
        "solve-gmu:young", ["solve", path("young.json"), "--trace", path("young-gmu.csv")], "json",
        check_solve_cli(young, path("young-gmu.csv")),
    )
    ops = [gen, metric, *ops_for(random_case, "random"), *young_ops, solve_young_gmu,
           bench(random_case, "random")]
    warmups = [gen, metric, *young_ops, bench(young, "young")]
    return Workload("cli", ops, warmups, workdir, needs_reference=[random_case])


def scratch_dir() -> str:
    """`.perfbench_tmp/` at the repository root, for the CLI's files."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.path.join(root, ".perfbench_tmp")
    os.makedirs(out, exist_ok=True)
    return out


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """Generate a workload's data from the seed and list its ops; no op runs here."""
    rng = np.random.default_rng(seed)
    if name == "fp-small":
        cases = _small_cases(rng, smoke)
        ops = [_fixed_point_op(c, s) for c in cases for s in FIXED_POINT_SOLVERS]
        young = next(c for c in cases if c.name == "young")
        return Workload(name, ops, [_fixed_point_op(young, s) for s in FIXED_POINT_SOLVERS])
    if name == "fp-large":
        cases = [_random_case(s, g, rng) for s, g in LARGE_DATA[: 1 if smoke else None]]
        ops = [_fixed_point_op(c, s) for c in cases for s in FIXED_POINT_SOLVERS]
        return Workload(name, ops, [_fixed_point_op(cases[0], s) for s in FIXED_POINT_SOLVERS])
    if name == "rgd":
        shapes = SMALL_SHAPES[:2] if smoke else SMALL_SHAPES
        cases = [_random_case(s, i, rng) for i, s in enumerate(shapes)]
        return Workload(name, [_rgd_op(c) for c in cases], [_rgd_op(cases[0])],
                        needs_reference=cases)
    if name == "cli":
        return _cli_workload(rng, gen_seed=seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def attach_references(workload: Workload) -> None:
    """Give cases without a closed form the constant of a plain_g solve.

    Used where the op under test is not a library fixed-point solve (rgd, the
    CLI), so the reference comes from another solver or another layer.
    """
    for case in workload.needs_reference:
        res, _ = blfix.solve_fixed_point(case.datum, blfix.SolveConfig(solver="plain_g"))
        if res.status != blfix.CONVERGED:
            raise RuntimeError(f"reference solve of {case.name} ended {res.status}")
        case.reference = res.bl_constant
