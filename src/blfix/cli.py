"""Command-line front end.

Subcommands: gen (write a datum), check (validation report, witness search and
subdeterminant constant), solve (run one solver, print a JSON run summary),
metric (Thompson/Hilbert distance of two matrices), bench (run several solvers
on one datum and write aligned trace CSVs).

Exit codes for solve/bench: 0 converged, 2 iteration limit, 3 infeasibility
suspected, 1 usage/IO/validation errors. All numeric output is full double
precision; identical inputs and seeds reproduce identical bytes apart from the
wall-time and time_ns fields.
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict

from .baseline import RgdConfig, solve_rgd
from .cone import hilbert, thompson
from .datum import (
    BLDatum,
    critical_c,
    datum_to_json_obj,
    gen_holder,
    gen_random,
    gen_young,
    load_datum,
    save_datum,
    validate,
)
from .errors import BlfixError, InvalidArgument, TooLarge, ValidationFailed, atomic_write_text
from .matcore import load_matrix, matrix_to_json_obj
from .solve import (
    CONVERGED,
    INFEASIBILITY_SUSPECTED,
    MAX_ITER,
    IterTrace,
    SolveConfig,
    SolveResult,
    find_witness,
    solve_fixed_point,
)

SCHEMA = "blfix/1"

_SOLVER_NAMES = {"g": "plain_g", "gmu": "regularized", "gtilde": "normalized", "rgd": "rgd"}
_STATUS_EXIT = {CONVERGED: 0, MAX_ITER: 2, INFEASIBILITY_SUSPECTED: 3}
_IGNORED_FLAGS = {"g": ("--eps", "--mu"), "gtilde": ("--eps", "--mu"), "rgd": ("--x0", "--eps", "--mu")}


def _print_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, allow_nan=True) + "\n")


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _given(**flags) -> dict:
    return {k: v for k, v in flags.items() if v is not None}


def _run_solver(datum: BLDatum, name: str, args, level: str) -> tuple[SolveResult, IterTrace, dict, float]:
    """Run one solver by CLI name at the given trace level, passing its config
    only the flags the user set; returns (result, trace, echo of the config
    the run used, wall seconds from building the config to the result)."""
    t0 = time.perf_counter()
    if name == "rgd":
        cfg = RgdConfig(trace=level, **_given(tol_grad=args.tol, max_iter=args.max_iter))
        result, trace = solve_rgd(datum, cfg)
        echo = {"solver": "rgd", "tol_grad": cfg.tol_grad, "max_iter": cfg.max_iter}
        return result, trace, echo, time.perf_counter() - t0
    x0 = getattr(args, "x0", "identity")
    cfg = SolveConfig(solver=_SOLVER_NAMES[name], trace=level,
                      x0=None if x0 == "identity" else load_matrix(x0),
                      **_given(tol=args.tol, max_iter=args.max_iter, epsilon=args.eps, mu_override=args.mu))
    result, trace = solve_fixed_point(datum, cfg)
    echo = {"solver": name, "tol": cfg.tol, "max_iter": cfg.max_iter, "epsilon": cfg.epsilon,
            "mu": cfg.mu_override, "x0": x0}
    return result, trace, echo, time.perf_counter() - t0


def _check_trace_path(path: str) -> None:
    """Raise now the io error that writing the trace to path would raise after the solve."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        ancestor = directory  # the nearest one that exists decides: not a directory, or missing below it
        while not os.path.exists(ancestor):
            ancestor = os.path.dirname(ancestor)
        code = errno.ENOENT if os.path.isdir(ancestor) else errno.ENOTDIR
    elif os.path.isdir(path):
        code = errno.EISDIR
    else:
        return
    raise OSError(code, os.strerror(code), path)


def cmd_solve(args) -> int:
    given = {"--x0": args.x0 != "identity", "--eps": args.eps is not None, "--mu": args.mu is not None}
    for flag in _IGNORED_FLAGS.get(args.solver, ()):
        if given[flag]:
            raise InvalidArgument(f"{flag} does not apply to --solver {args.solver}")
    datum = load_datum(args.datum)
    if args.trace:
        _check_trace_path(args.trace)
    result, trace, echo, wall = _run_solver(datum, args.solver, args, "full" if args.trace else "summary")
    if args.trace:
        trace.write_csv(args.trace)
    _print_json(
        {
            "schema": SCHEMA,
            "command": "solve",
            "argv": args.argv_echo,
            "datum": {"path": args.datum, "sha256": _sha256(args.datum)},
            "config": echo,
            "result": {
                "status": result.status,
                "converged": result.converged,
                "iterations": result.iterations,
                "bl_constant": result.bl_constant,
                "F_value": result.F_value,
                "residual": result.residual,
                "grad_norm": result.grad_norm,
            },
            "X_star": matrix_to_json_obj(result.X_star),
            "wall_time_s": wall,
        }
    )
    return _STATUS_EXIT[result.status]


def cmd_check(args) -> int:
    datum = load_datum(args.datum)
    report = validate(datum)
    ok = violations = None
    if report.accepted:
        witness = find_witness(datum)
        ok = witness is None
        violations = [] if ok else [{"dim": witness.basis.shape[1], "weighted_image_dims": witness.weighted_dims,
                                     "basis": witness.basis.T.tolist()}]
    try:
        c = critical_c(datum)
    except TooLarge:
        c = None
    _print_json(
        {
            "schema": SCHEMA,
            "command": "check",
            "datum": {"path": args.datum, "sha256": _sha256(args.datum)},
            "report": {**asdict(report), "subspace_heuristic_ok": ok, "sampled_violations": violations,
                       "accepted": report.accepted},
            "critical_c": c,
        }
    )
    return 0 if report.accepted else 1


def cmd_gen(args) -> int:
    if args.kind == "holder":
        datum = gen_holder(args.d, args.m)
    elif args.kind == "young":
        datum = gen_young()
    else:
        datum = gen_random(args.d, args.dprime, args.m, args.seed)
    if args.out:
        save_datum(datum, args.out)
    else:
        _print_json(datum_to_json_obj(datum))
    return 0


def cmd_metric(args) -> int:
    x = load_matrix(args.x)
    y = load_matrix(args.y)
    value = thompson(x, y) if args.which == "thompson" else hilbert(x, y)
    sys.stdout.write(repr(value) + "\n")
    return 0


def cmd_bench(args) -> int:
    if args.datum:
        datum = load_datum(args.datum)
        datum_echo = {"path": args.datum, "sha256": _sha256(args.datum)}
    else:
        if args.d is None or args.dprime is None or args.m is None:
            raise BlfixError("bench needs either --datum or all of --d/--dprime/--m")
        datum = gen_random(args.d, args.dprime, args.m, args.seed)
        datum_echo = {"generated": {"d": args.d, "dprime": args.dprime, "m": args.m, "seed": args.seed}}
    names = [s.strip() for s in args.solvers.split(",") if s.strip()]
    if not names:
        raise BlfixError(f"--solvers names no solver; choose from {','.join(_SOLVER_NAMES)}")
    for i, name in enumerate(names):
        if name not in _SOLVER_NAMES:
            raise BlfixError(f"unknown solver {name!r}; choose from {sorted(_SOLVER_NAMES)}")
        if name in names[:i]:
            raise BlfixError(f"solver {name!r} is named twice in --solvers")
    if args.mu is not None and all("--mu" in _IGNORED_FLAGS.get(name, ()) for name in names):
        raise InvalidArgument(f"--mu does not apply to --solvers {','.join(names)}")

    os.makedirs(args.out_dir, exist_ok=True)  # before the solvers: a bad --out-dir fails at once
    runs = [(name, *_run_solver(datum, name, args, "full")) for name in names]
    solvers_obj = {}
    lines = [f"{'solver':<8} {'iters':>7} {'to_tol':>7} {'status':<22} {'F_final':>24} {'bl_constant':>24}"]
    worst = 0
    for name, result, trace, _, wall in runs:
        trace.write_csv(os.path.join(args.out_dir, f"{name}.csv"))
        to_tol = result.iterations if result.residual <= args.tol else None
        solvers_obj[name] = {
            "iterations": result.iterations,
            "iterations_to_tol": to_tol,
            "status": result.status,
            "F_value": result.F_value,
            "bl_constant": result.bl_constant,
            "wall_time_s": wall,
        }
        lines.append(
            f"{name:<8} {result.iterations:>7} {str(to_tol):>7} {result.status:<22} "
            f"{result.F_value!r:>24} {result.bl_constant!r:>24}"
        )
        worst = max(worst, _STATUS_EXIT[result.status])
    atomic_write_text(os.path.join(args.out_dir, "summary.txt"), "\n".join(lines) + "\n")
    _print_json(
        {
            "schema": SCHEMA,
            "command": "bench",
            "argv": args.argv_echo,
            "datum": datum_echo,
            "tol": args.tol,
            "solvers": solvers_obj,
        }
    )
    return worst


@functools.cache  # built once per process; parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="blfix", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run one solver on a datum file")
    ps.add_argument("datum")
    ps.add_argument("--solver", choices=sorted(_SOLVER_NAMES), default="gmu")
    ps.add_argument("--tol", type=float, default=None,
                    help="stopping threshold (Thompson step; gradient norm for rgd)")
    ps.add_argument("--max-iter", type=int, default=None)
    ps.add_argument("--eps", type=float, default=None, help="target accuracy for gmu")
    ps.add_argument("--mu", type=float, default=None, help="fixed regularization override")
    ps.add_argument("--x0", default="identity", help="'identity' or a matrix JSON file")
    ps.add_argument("--trace", default=None, help="write the iteration trace CSV here")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("check", help="print the validation report for a datum file")
    pc.add_argument("datum")
    pc.set_defaults(func=cmd_check)

    pg = sub.add_parser("gen", help="generate a datum file")
    pg.add_argument("kind", choices=("holder", "young", "random"))
    pg.add_argument("--d", type=int, default=2)
    pg.add_argument("--dprime", type=int, default=1)
    pg.add_argument("--m", type=int, default=3)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--out", default=None, help="output path (stdout when omitted)")
    pg.set_defaults(func=cmd_gen)

    pm = sub.add_parser("metric", help="distance between two matrix JSON files")
    pm.add_argument("which", choices=("thompson", "hilbert"))
    pm.add_argument("x")
    pm.add_argument("y")
    pm.set_defaults(func=cmd_metric)

    pb = sub.add_parser("bench", help="run several solvers on one datum, write traces")
    pb.add_argument("--datum", default=None)
    pb.add_argument("--d", type=int, default=None)
    pb.add_argument("--dprime", type=int, default=None)
    pb.add_argument("--m", type=int, default=None)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--solvers", default="gmu,rgd", help=f"comma list from {','.join(_SOLVER_NAMES)}")
    pb.add_argument("--tol", type=float, default=1e-8,
                    help="iterations-to-tol threshold and stopping tolerance (default 1e-8)")
    pb.add_argument("--max-iter", type=int, default=20000)
    pb.add_argument("--eps", type=float, default=1e-9)
    pb.add_argument("--mu", type=float, default=None)
    pb.add_argument("--out-dir", default="bench-traces")
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    raw = list(argv) if argv is not None else sys.argv[1:]
    try:
        args = parser.parse_args(raw)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    args.argv_echo = raw
    try:
        return args.func(args)
    except ValidationFailed as exc:
        sys.stderr.write(f"blfix: validation failed: {exc}\n")
        return 1
    except BlfixError as exc:
        sys.stderr.write(f"blfix: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"blfix: io error: {exc}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
