"""Spans and counts recorded from outside the blfix package, and the per-layer
metrics computed from them.

The tracer wraps public functions where callers hold them: for each target it
replaces every attribute of a loaded `blfix` module that refers to the target
object, because modules import each other's functions by name (the fixed-point
step calls `blfix.solve.pre_inversion_sum`, `eval_F` calls
`blfix.objective.pre_inversion_sum`). Class attributes are patched on the class.
A target that does not exist is skipped, and the metrics that need it are left
out of the result.

A span records name, start, end, parent span and op id. Spans stay in memory
and are written out when the run ends. A span's self time is its duration
minus the durations of its child spans; calls run on one thread, so children
never overlap.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# (module, attribute path, span name); several targets may share one span name.
SPAN_TARGETS = (
    ("blfix.objective", "pre_inversion_sum", "objective.pre_inversion_sum"),
    ("blfix.objective", "eval_F", "objective.eval_F"),
    ("blfix.cone", "thompson", "cone.thompson"),
    ("blfix.solve", "step_G", "solve.step"),
    ("blfix.solve", "step_G_mu", "solve.step"),
    ("blfix.solve", "step_G_tilde", "solve.step"),
    ("blfix.solve", "solve_fixed_point", "solve.solve_fixed_point"),
    ("blfix.solve", "IterTrace.write_csv", "solve.IterTrace.write_csv"),
    ("blfix.baseline", "solve_rgd", "baseline.solve_rgd"),
    ("blfix.baseline", "riem_grad_norm", "baseline.riem_grad_norm"),
    ("blfix.datum", "validate", "datum.validate"),
    ("blfix.datum", "critical_c", "datum.critical_c"),
    ("blfix.datum", "load_datum", "datum.load_datum"),
    ("blfix.datum", "save_datum", "datum.save_datum"),
    ("blfix.datum", "gen_random", "datum.gen_random"),
    ("blfix.matcore", "load_matrix", "matcore.load_matrix"),
    ("blfix.cli", "main", "cli.main"),
)
# (module, attribute path, counter name, only the reference held by that module).
# SpdMatrix builds are counted, not spanned: there are a dozen per iteration.
# The baseline module's own reference to pushforwards is used only by the line
# search, once per trial step.
COUNT_TARGETS = (
    ("blfix.matcore", "SpdMatrix.__init__", "matcore.SpdMatrix", False),
    ("blfix.baseline", "pushforwards", "baseline.trial", True),
)

# (metric, unit, better, span or counter name, statistic)
PER_LAYER = (
    ("matcore.SpdMatrix.per_iter", "1/iter", "lower", "matcore.SpdMatrix", "per_iter"),
    ("objective.pre_inversion_sum.per_iter", "1/iter", "lower", "objective.pre_inversion_sum", "per_iter"),
    ("objective.pre_inversion_sum.us_per_call", "us", "lower", "objective.pre_inversion_sum", "us_per_call"),
    ("objective.pre_inversion_sum.share", "fraction", "lower", "objective.pre_inversion_sum", "share"),
    ("objective.eval_F.per_iter", "1/iter", "lower", "objective.eval_F", "per_iter"),
    ("objective.eval_F.us_per_call", "us", "lower", "objective.eval_F", "us_per_call"),
    ("objective.eval_F.share", "fraction", "lower", "objective.eval_F", "share"),
    ("cone.thompson.per_iter", "1/iter", "lower", "cone.thompson", "per_iter"),
    ("cone.thompson.us_per_call", "us", "lower", "cone.thompson", "us_per_call"),
    ("cone.thompson.share", "fraction", "lower", "cone.thompson", "share"),
    ("solve.step.us_per_call", "us", "lower", "solve.step", "us_per_call"),
    ("solve.solve_fixed_point.share", "fraction", "lower", "solve.solve_fixed_point", "share"),
    ("baseline.solve_rgd.share", "fraction", "lower", "baseline.solve_rgd", "share"),
    ("baseline.trials_per_iter", "1/iter", "lower", "baseline.trial", "per_step"),
    ("baseline.accept_ratio", "fraction", "higher", "baseline.trial", "accept_ratio"),
    ("baseline.riem_grad_norm.us_per_call", "us", "lower", "baseline.riem_grad_norm", "us_per_call"),
    ("datum.validate.ms_per_call", "ms", "lower", "datum.validate", "ms_per_call"),
    ("datum.validate.share", "fraction", "lower", "datum.validate", "share"),
    ("datum.critical_c.ms_per_call", "ms", "lower", "datum.critical_c", "ms_per_call"),
    ("datum.load_datum.ms_per_call", "ms", "lower", "datum.load_datum", "ms_per_call"),
    ("datum.save_datum.ms_per_call", "ms", "lower", "datum.save_datum", "ms_per_call"),
    ("matcore.load_matrix.ms_per_call", "ms", "lower", "matcore.load_matrix", "ms_per_call"),
    ("solve.IterTrace.write_csv.ms_per_call", "ms", "lower", "solve.IterTrace.write_csv", "ms_per_call"),
    ("cli.main.share", "fraction", "lower", "cli.main", "share"),
    ("datum.gen_random.ms_per_call", "ms", "lower", "datum.gen_random", "ms_per_call"),
)
OVERHEAD_METRIC = ("trace.overhead", "%", "lower")


def _resolve(module_name: str, path: str):
    """(owner, attribute, object) for a dotted attribute path, or None if absent."""
    owner = sys.modules.get(module_name)
    if owner is None:
        return None
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part, None)
    obj = getattr(owner, attr, None) if owner is not None else None
    return None if obj is None else (owner, attr, obj)


def _holders(obj) -> list:
    """Every (module, attribute) of the loaded blfix package referring to obj."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "blfix" or name.startswith("blfix.")):
            continue
        for attr, value in vars(module).items():
            if value is obj:
                found.append((module, attr))
    return found


class Tracer:
    """Records spans and counts while installed; holds them until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.span_op = array("l")
        self.span_parent = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.ops: list[tuple] = []  # (label, iterations, duration s, measured)
        self.op_counts: list[Counter] = []
        self._stack = [-1]
        self._counts = Counter()
        self._patches = []  # (owner, attribute, original, wrapper)
        self.present: set[str] = set()
        for module, path, name in SPAN_TARGETS:
            self._plan(module, path, name, only_here=False, span=True)
        for module, path, name, only_here in COUNT_TARGETS:
            self._plan(module, path, name, only_here=only_here, span=False)

    def _plan(self, module: str, path: str, name: str, only_here: bool, span: bool) -> None:
        found = _resolve(module, path)
        if found is None:
            return
        owner, attr, obj = found
        holders = [(owner, attr)] if only_here or "." in path else _holders(obj)
        wrapper = self._span_wrapper(obj, name) if span else self._count_wrapper(obj, name)
        self._patches += [(h, a, obj, wrapper) for h, a in holders]
        self.present.add(name)

    def _span_wrapper(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.span_start)
            tracer.span_op.append(len(tracer.ops))
            tracer.span_parent.append(tracer._stack[-1])
            tracer.span_name.append(name_id)
            tracer.span_end.append(0.0)
            tracer._stack.append(idx)
            tracer.span_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = perf_counter()
                tracer._stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def end_op(self, label: str, iterations: int, duration: float, measured: bool = True) -> None:
        """Close the current op; spans recorded since the last call belong to it.

        An op that is not measured (the data generation) adds to per-call times
        only, not to per-iteration counts or shares.
        """
        self.ops.append((label, iterations, duration, measured))
        self.op_counts.append(Counter(self._counts))
        self._counts.clear()

    # --- results -----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("op\tspan\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_op[i]}\t{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )

    def _span_stats(self):
        """Self time in all ops, self time in measured ops, and outermost calls
        per op, by span name."""
        n = len(self.span_start)
        covered = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                covered[p] += self.span_end[i] - self.span_start[i]
        self_time, measured_time = defaultdict(float), defaultdict(float)
        per_op = defaultdict(Counter)
        for i in range(n):
            name = self.names[self.span_name[i]]
            t = self.span_end[i] - self.span_start[i] - covered[i]
            self_time[name] += t
            if self.ops[self.span_op[i]][3]:
                measured_time[name] += t
            p = self.span_parent[i]
            if p < 0 or self.span_name[p] != self.span_name[i]:
                per_op[name][self.span_op[i]] += 1
        return self_time, measured_time, per_op

    def per_layer(self, overhead_pct: float) -> dict:
        """Per-layer metrics over the ops recorded; absent targets give no metric.

        `per_iter` is the least-squares slope of an op's call count against its
        iteration count, in exact arithmetic: the calls each further iteration
        makes, apart from a fixed number per solve.
        """
        self_time, measured_time, per_op = self._span_stats()
        for op_id, counts in enumerate(self.op_counts):
            for name, c in counts.items():
                per_op[name][op_id] += c
        measured = [i for i, op in enumerate(self.ops) if op[3]]
        iters = [self.ops[i][1] for i in measured]
        # accepted steps: the iterations of measured ops that ran solve_rgd
        rgd_steps = sum(self.ops[i][1] for i in measured if per_op["baseline.solve_rgd"][i])
        total_time = sum(self.ops[i][2] for i in measured)

        def slope(name):
            ys = [per_op[name][i] for i in measured]
            n = len(iters)
            sx, sy = sum(iters), sum(ys)
            sxx = sum(x * x for x in iters)
            sxy = sum(x * y for x, y in zip(iters, ys))
            den = n * sxx - sx * sx
            if den == 0:
                return float(Fraction(sy, sx)) if sx else 0.0
            return float(Fraction(n * sxy - sx * sy, den))

        def calls(name):
            return sum(per_op[name].values())

        def measured_calls(name):
            return sum(per_op[name][i] for i in measured)

        stats = {
            "per_iter": slope,
            "us_per_call": lambda name: 1e6 * self_time[name] / calls(name) if calls(name) else 0.0,
            "ms_per_call": lambda name: 1e3 * self_time[name] / calls(name) if calls(name) else 0.0,
            "share": lambda name: measured_time[name] / total_time if total_time else 0.0,
            "per_step": lambda name: measured_calls(name) / rgd_steps if rgd_steps else 0.0,
            "accept_ratio": lambda name: (
                rgd_steps / measured_calls(name) if measured_calls(name) else 0.0
            ),
        }
        metrics = {}
        for metric, unit, _, name, stat in PER_LAYER:
            if name in self.present:
                metrics[metric] = {"value": stats[stat](name), "unit": unit}
        metrics[OVERHEAD_METRIC[0]] = {"value": overhead_pct, "unit": OVERHEAD_METRIC[1]}
        return metrics
