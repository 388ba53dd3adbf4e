"""The bits gate: one canonical JSON digest of everything a blfix tree computes
on a fixed battery, so that two trees can be compared with `diff`.

    python3 tools/bits_gate.py SRC [--threads N] > digest.json

SRC is the `src` directory of the tree to digest (the library is imported from
there). --threads sets the BLAS thread count (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS, MKL_NUM_THREADS) before numpy loads. The gate for a change
that keeps the bits is an empty diff against its parent, at 1 and at 2
threads, with the parent unpacked by `git archive`:

    git archive PARENT | tar -x -C /tmp/parent
    for n in 1 2; do
        python3 tools/bits_gate.py /tmp/parent/src --threads $n > parent-$n.json
        python3 tools/bits_gate.py src --threads $n > change-$n.json
        diff parent-$n.json change-$n.json
    done

The battery, from the identity start:
- all four solvers at trace levels "summary" and "full" on perfbench's
  fp-small, fp-large and rgd data at seeds 1 and 2, on the 14 small shapes
  gen_random(*shape, seed=i), on Young scaled by 1e-3 and 1e3, on the
  crafted infeasible datum, and on the common-kernel datum (three copies of
  the map [1, 0], each of weight 2/3), where the step's factor fails, so the
  error type and the iteration it names are digested, on gen_holder(2, 1),
  one identity map, whose gradient is exactly zero, so a signed zero in
  grad_norm or the residual shows in the digest, and on Young's maps at
  weights (0.99, 0.505, 0.505), near the edge of the Brascamp-Lieb polytope,
  in random coordinates (U_j L_j A, drawn with seed 0), where the solvers
  take about 900 iterations;
- the CLI on Young and gen_random(10, 5, 8, seed=0): `solve` with each solver,
  without and with `--trace`, `bench` with all four solvers at the default
  `--max-iter` and at `--max-iter 3` (every run ends MaxIter, exit 2), `check`,
  and `metric thompson` and `metric hilbert` on two random 8x8 matrices;
- `check` on five infeasible data, so the witnesses it prints are digested:
  the crafted datum, plain and turned by 0.3 rad (L_j R), and the block data
  block_datum(6, 3, 4, seed=0), plain and in random coordinates (U_j L_j A,
  drawn with seed 0), and block_datum(17, 2, 9, seed=0), whose maps see only
  the first half of the coordinates. The turned and the random coordinates
  let the digest see whether the screen depends on the coordinates;
- `check` on a feasible datum with a near-dependent column pair
  (near_dependent_datum: column 1 of map 0 within 1e-12 of column 0).

A solver run is digested as every SolveResult field, the sha256 of the X_star
bytes (matrix and Cholesky factor), the row count and the sha256 of every trace
column but time_ns, and the mu events; a run that raises, as its error type and
message. A CLI run is digested as its exit code, its stdout and stderr with the
values of "wall_time_s" blanked, and the sha256 of every file it writes, the
time_ns column cut from the trace CSVs. The data come from perfbench/, which
this script only reads.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEEDS = (1, 2)
LEVELS = ("summary", "full")
CLI_SOLVERS = ("g", "gmu", "gtilde", "rgd")
CRAFTED = ([[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]], [0.9, 0.9, 0.2])  # maps x, x, y: infeasible
COMMON_KERNEL = ([[[1.0, 0.0]]] * 3, [2.0 / 3.0] * 3)  # every map kills e_2: S is singular
YOUNG_EDGE_WEIGHTS = (0.99, 0.505, 0.505)
WALL_TIME = re.compile(r'("wall_time_s": )[^,\n}]+')


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def battery() -> dict:
    """Name -> datum, in a fixed order."""
    import numpy as np

    import blfix
    import workloads

    data = {}
    for name in ("fp-small", "fp-large", "rgd"):
        for seed in SEEDS:
            for op in workloads.build(name, seed).ops:
                data.setdefault(f"{name}#{seed}:{op.case.name}", op.case.datum)
    for i, shape in enumerate(workloads.SMALL_SHAPES):
        data[f"shape{shape}#{i}"] = blfix.gen_random(*shape, seed=i)
    young = blfix.gen_young()
    for c in (1e-3, 1e3):
        data[f"young*{c:g}"] = blfix.BLDatum.from_maps([c * np.asarray(L) for L in young.maps], young.weights)
    data["crafted"] = blfix.BLDatum.from_maps(*CRAFTED)
    data["common-kernel"] = blfix.BLDatum.from_maps(*COMMON_KERNEL)
    data["holder(2, 1)"] = blfix.gen_holder(2, 1)
    edge = blfix.BLDatum.from_maps(young.maps, YOUNG_EDGE_WEIGHTS)
    data[f"young{YOUNG_EDGE_WEIGHTS}"] = workloads.rotate(edge, np.random.default_rng(0))
    return data


def block_datum(d: int, dprime: int, m: int, seed: int):
    """Uniform-weight maps [B_j | 0] with standard normal B_j on the first
    d // 2 coordinates, so every coordinate subspace weighted toward the second
    half violates. tests/test_datum.py uses the same data."""
    import numpy as np

    import blfix

    rng = np.random.default_rng(seed)
    half = d // 2
    maps = [np.hstack([rng.standard_normal((dprime, half)), np.zeros((dprime, d - half))])
            for _ in range(m)]
    return blfix.BLDatum.from_maps(maps, np.full(m, d / (m * dprime)))


def near_dependent_datum():
    """gen_random(8, 4, 6, seed=3) with column 1 of map 0 replaced by
    column 0 + 1e-12 * column 2: still feasible."""
    import blfix

    datum = blfix.gen_random(8, 4, 6, seed=3)
    L = datum.maps[0].copy()
    L[:, 1] = L[:, 0] + 1e-12 * L[:, 2]
    return blfix.BLDatum.from_maps([L, *datum.maps[1:]], datum.weights)


def solver_digest(datum, solver: str, level: str) -> dict:
    import numpy as np

    import blfix

    try:
        if solver == "rgd":
            result, trace = blfix.solve_rgd(datum, blfix.RgdConfig(trace=level))
        else:
            result, trace = blfix.solve_fixed_point(datum, blfix.SolveConfig(solver=solver, trace=level))
    except Exception as exc:  # the error is part of what the gate compares
        return {"error": f"{type(exc).__name__}: {exc}"}
    out = {name: value for name, value in vars(result).items() if name != "X_star"}
    out["X_star"] = _sha256(result.X_star.a.tobytes() + result.X_star.chol.tobytes())
    out["rows"] = len(trace.rows)
    out["columns"] = {name: _sha256(np.array(trace.column(name), dtype=float).tobytes())
                      for name in trace.HEADER if name != "time_ns"}
    out["mu_events"] = trace.mu_events
    return out


def _cut_time_ns(text: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def cli_digest(argv: list) -> dict:
    """Run one command in the battery's directory, where every path is relative
    and every file written goes under out/, so the output does not depend on
    where the battery runs."""
    from blfix.cli import main

    os.makedirs("out")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {}
    for root, _dirs, names in os.walk("out"):
        for name in names:
            path = os.path.join(root, name)
            with open(path) as fh:
                text = fh.read()
            files[path] = _sha256((_cut_time_ns(text) if path.endswith(".csv") else text).encode())
    shutil.rmtree("out")
    return {"exit": code, "stdout": WALL_TIME.sub(r"\1null", stdout.getvalue()),
            "stderr": WALL_TIME.sub(r"\1null", stderr.getvalue()), "files": files}


def cli_battery() -> dict:
    import math

    import numpy as np

    import blfix
    import workloads

    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        cwd = os.getcwd()
        os.chdir(workdir)
        try:
            blfix.save_datum(blfix.gen_young(), "young.json")
            blfix.save_datum(blfix.gen_random(10, 5, 8, seed=0), "random.json")
            rng = np.random.default_rng(0)
            for name in ("x.json", "y.json"):
                g = rng.standard_normal((8, 8))
                blfix.save_matrix(blfix.SpdMatrix(g @ g.T / 8 + 0.1 * np.eye(8)), name)
            commands = [["metric", which, "x.json", "y.json"] for which in ("thompson", "hilbert")]
            for datum in ("young.json", "random.json"):
                commands.append(["check", datum])
                for solver in CLI_SOLVERS:
                    commands.append(["solve", datum, "--solver", solver])
                    commands.append(["solve", datum, "--solver", solver, "--trace", "out/trace.csv"])
                for limit in ([], ["--max-iter", "3"]):
                    commands.append(["bench", "--datum", datum, "--solvers", ",".join(CLI_SOLVERS),
                                     *limit, "--out-dir", "out/bench"])
            crafted = blfix.BLDatum.from_maps(*CRAFTED)
            c, s = math.cos(0.3), math.sin(0.3)
            checked = {"crafted.json": crafted,
                       "crafted-0.3rad.json": blfix.BLDatum.from_maps(
                           [L @ np.array([[c, -s], [s, c]]) for L in crafted.maps], crafted.weights),
                       "block6.json": block_datum(6, 3, 4, seed=0),
                       "block6-rotated.json": workloads.rotate(block_datum(6, 3, 4, seed=0),
                                                               np.random.default_rng(0)),
                       "block17.json": block_datum(17, 2, 9, seed=0),
                       "near-dependent.json": near_dependent_datum()}
            for name, datum in checked.items():
                blfix.save_datum(datum, name)
                commands.append(["check", name])
            for argv in commands:
                out[" ".join(argv)] = cli_digest(argv)
        finally:
            os.chdir(cwd)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("src", help="the src directory of the blfix tree to digest")
    p.add_argument("--threads", type=int, default=None, help="BLAS threads (default: leave the environment)")
    args = p.parse_args(argv)
    if args.threads is not None:
        for var in BLAS_ENV:
            os.environ[var] = str(args.threads)
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "blfix", "__init__.py")):
        sys.stderr.write(f"bits_gate: no blfix package under {src}\n")
        return 2
    sys.path[:0] = [src, PERFBENCH]
    runs = {}
    for name, datum in battery().items():
        for solver in ("plain_g", "regularized", "normalized", "rgd"):
            for level in LEVELS:
                runs[f"{name} {solver} {level}"] = solver_digest(datum, solver, level)
    digest = {"solvers": runs, "cli": cli_battery()}
    json.dump(digest, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
