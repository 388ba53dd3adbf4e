"""The blfix benchmark: closed-loop solve workloads, end-to-end and per-layer metrics.

Run from the root of a blfix checkout; the library is imported from ./src:

    python3 perfbench/run.py --workload fp-small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One caller in one process runs a workload's ops back to back, each after the
previous one returned (workloads.py lists them). The run measures whole passes
over the op list until --seconds have passed, checks every result, and prints
as its last line one JSON object: `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones; with --trace 1
each op runs once untraced and once traced, the metrics are the per-layer ones
(tracer.py) and `trace.overhead` compares the two. The line before it holds
the machine record, the failures and the sample counts.

`correct` is false when an op fails in a way that is not a known defect
(workloads.known_defect); known defects still count in `failed`.

--smoke runs every workload briefly, in both modes, and checks that each
metric named in BENCHMARK.json is printed with its unit.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# One BLAS thread: within nproc, and at desk scale threads only add noise.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s is the median over SETUP_REPS fresh processes, each scaled by probes
# run in that process around its set-up.
SETUP_REPS = 5
CHILD_TIMEOUT_S = 120

END_TO_END = (
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("us_per_iter", "us"),
    ("iterations", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("fp-small", "fp-large", "rgd", "cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a short run on a few ops; without --workload, every workload, checked")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "blfix", "__init__.py")):
        sys.stderr.write(f"perfbench: no blfix package under {SRC}; run from a blfix checkout\n")
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.workload is None:
        if args.smoke:
            return smoke()
        sys.stderr.write("perfbench: --workload is required\n")
        return 2

    if args.setup_only:
        return setup_only(args)
    import workloads

    return run(workloads, args)


# --- one run ---------------------------------------------------------------------


def prepare(workloads, name, seed, smoke, tracer=None):
    """Generate the data and run one warm-up op per solver or command."""
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        wl = workloads.build(name, seed, smoke)
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.end_op("setup", 0, time.perf_counter() - t0, measured=False)
    for op in wl.warmups:
        workloads.run_op(op)
    return wl


def setup_only(args) -> int:
    """Time one set-up in this fresh process and print it with its speed factor.

    The clock starts after numpy and scipy.linalg, the dependencies blfix
    declares, are imported, and covers importing blfix, generating the data and
    the warm-up ops. Probes before and after it give the scale factor.
    """
    from speed import PROBES_AROUND_SETUP, Speed

    speed = Speed()
    speed.warm_up()
    for _ in range(PROBES_AROUND_SETUP):
        speed.probe()
    t0 = time.perf_counter()
    import workloads

    wl = prepare(workloads, args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - t0
    wl.close()
    for _ in range(PROBES_AROUND_SETUP):
        speed.probe()
    print(json.dumps({"setup_s": setup_s, "factor": speed.overall()}))
    return 0


def _setup_child(args) -> tuple[float, float]:
    """Set up in a fresh process: (seconds, seconds scaled by that process's probe)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["setup_s"] * out["factor"]


def measure(workloads, wl, seconds, order_rng, tracer=None, speed=None) -> dict:
    """Run whole passes until `seconds` have passed; gate every result.

    `attempted` counts the distinct ops of the workload and `failed` the ops
    whose result failed the gate in any pass. Ops are deterministic, so both
    depend only on the seed, not on how many passes fit into `seconds`; the
    counts over every timed op are `samples` and `failed_samples`.

    With a tracer, each op runs untraced and then traced; the traced run is the
    one recorded and checked. With a speed probe, op times are also scaled to
    the probe's nominal machine speed (speed.py).
    """
    ops = wl.ops
    raw, times, failures = [], [], {}
    passes = failed_runs = total_iters = 0
    pass_iters = None
    loop_s = untraced_s = 0.0
    while passes == 0 or loop_s < seconds:
        order = list(range(len(ops)))
        order_rng.shuffle(order)
        outcomes, spans = [None] * len(ops), [None] * len(ops)
        t_pass = time.perf_counter()
        if speed is not None:
            speed.gap(0.0)
        for i in order:
            if tracer is not None:
                t0 = time.perf_counter()
                workloads.run_op(ops[i])
                untraced_s += time.perf_counter() - t0
                tracer.install()
            if speed is not None:
                speed.start_op()
            t0 = time.perf_counter()
            outcomes[i] = workloads.run_op(ops[i])
            t1 = time.perf_counter()
            probed = speed.end_op(t0, t1) if speed is not None else 0.0
            spans[i] = (t0, t1, t1 - t0 - probed)
            if tracer is not None:
                tracer.uninstall()
                tracer.end_op(ops[i].label, outcomes[i].iterations, t1 - t0)
            if speed is not None:
                speed.gap(t1 - t0)
        loop_s += time.perf_counter() - t_pass
        passes += 1
        raw.append([op_s for _, _, op_s in spans])
        if speed is not None:
            times.append([op_s * speed.factor(t0, t1) for t0, t1, op_s in spans])
        iters = sum(out.iterations for out in outcomes)
        total_iters += iters
        pass_iters = iters if pass_iters is None else pass_iters

        consensus = workloads.consensus_of(ops, outcomes)
        for op, out in zip(ops, outcomes):
            reason = op.check(op, out, consensus)
            if reason is not None:
                failed_runs += 1
                entry = failures.setdefault(op.label, {
                    "reason": reason, "known_defect": workloads.known_defect(op, out), "count": 0,
                })
                entry["count"] += 1
    return {
        "passes": passes, "raw": raw, "times": times if speed is not None else raw,
        "untraced_s": untraced_s, "pass_iterations": pass_iters, "total_iterations": total_iters,
        "attempted": len(ops), "failed": len(failures), "failed_frac": len(failures) / len(ops),
        "samples": passes * len(ops), "failed_samples": failed_runs,
        "failures": failures, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def harrell_davis(values: list, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile.

    A Beta-weighted mean of all order statistics: with few samples per op it
    varies much less from run to run than the one or two order statistics the
    sample quantile uses.
    """
    from scipy.special import betainc

    n = len(values)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = betainc(a, b, [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], sorted(values))))


def end_to_end(times: list, m: dict, setup_samples: list) -> dict:
    """The end-to-end metrics from per-pass op times and set-up times.

    The percentiles are taken over the ops of a pass, each op timed by its
    median over the passes, so that one slow moment moves one sample, not a
    percentile of few samples.
    """
    per_op = [statistics.median(samples) for samples in zip(*times)]
    total = sum(map(sum, times))
    values = {
        "op_ms.p50": 1e3 * harrell_davis(per_op, 0.5),
        "op_ms.p90": 1e3 * harrell_davis(per_op, 0.9),
        "ops_per_s": m["samples"] / total,
        "us_per_iter": 1e6 * total / m["total_iterations"],
        "iterations": m["pass_iterations"],
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": m["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run(workloads, args) -> int:
    tracer = speed = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    else:
        from speed import Speed

        speed = Speed()
    wl = prepare(workloads, args.workload, args.seed, args.smoke, tracer)
    try:
        # set-ups before and after the measurement, so that they span the run
        before = 0 if args.trace else SETUP_REPS - SETUP_REPS // 2
        setup = [_setup_child(args) for _ in range(before)]
        workloads.attach_references(wl)
        m = measure(workloads, wl, args.seconds, random.Random(args.seed), tracer, speed)
        if not args.trace:
            setup += [_setup_child(args) for _ in range(SETUP_REPS // 2)]
    finally:
        wl.close()

    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": m["passes"], "samples": m["samples"], "ops_per_pass": len(wl.ops),
        "failed_frac": m["failed_frac"], "failed_samples": m["failed_samples"], "failures": m["failures"],
        "machine": machine_record(args.seed),
    }
    if tracer is None:
        metrics = end_to_end(m["times"], m, [scaled for _, scaled in setup])
        raw = end_to_end(m["raw"], m, [r for r, _ in setup])
        detail["unscaled"] = {name: raw[name]["value"] for name in ("op_ms.p50", "op_ms.p90", "ops_per_s", "us_per_iter", "setup_s")}
        per_op = [statistics.median(samples) for samples in zip(*m["times"])]
        detail["sample_quantiles_ms"] = [1e3 * statistics.median(per_op), 1e3 * statistics.quantiles(per_op, n=10, method="inclusive")[-1]]
        detail["setup_samples_s"] = setup
    else:
        overhead = 100.0 * (sum(map(sum, m["times"])) / m["untraced_s"] - 1.0)
        metrics = tracer.per_layer(overhead)
        os.makedirs(OUT_DIR, exist_ok=True)
        detail["spans_file"] = os.path.join(OUT_DIR, f"spans-{args.workload}.tsv")
        tracer.write_spans(detail["spans_file"])
    print(json.dumps({"detail": detail}))
    correct = all(f["known_defect"] for f in m["failures"].values())
    print(json.dumps({"correct": correct, "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}))
    return 0


# --- machine record --------------------------------------------------------------


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _blas(module) -> str:
    try:
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{dep.get('name')} {dep.get('version')}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# --- smoke -----------------------------------------------------------------------


def smoke() -> int:
    """Run every workload briefly in both modes; check names, units and the gate."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                result = {"metrics": {}}
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if result["correct"] is not True or result["attempted"] < 1:
                    problems.append(f"correct={result['correct']} attempted={result['attempted']}")
            printed = result["metrics"]
            for metric in spec[key]:
                got = printed.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{metric['name']} [{metric['unit']}] printed as {got}")
            extra = set(printed) - {metric["name"] for metric in spec[key]}
            if extra:
                problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
            ok = ok and not problems
            print(f"{workload:9s} trace={trace} {'ok' if not problems else 'FAIL: ' + '; '.join(problems)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
