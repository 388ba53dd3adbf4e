"""Picard iterations for the fixed-point maps, and the one solver loop.

Three maps share one driver:

    plain_g      X <- (sum_j w_j L_j^T (L_j X L_j^T)^{-1} L_j)^{-1}
    regularized  X <- (mu*I + sum_j w_j L_j^T (L_j X L_j^T)^{-1} L_j)^{-1}
    normalized   the plain step followed by division by the trace

Iteration stops when the Thompson length of the step drops below `tol`, the
metric in which the maps are non-expansive (and, with mu > 0, contractive).
The gradient norm is reported but never used for stopping. The RGD baseline
runs in the same loop with its own step and check.

A practical note on the regularized map: for feasible data the objective is
scale invariant, so the trace term has no interior stationary point and the
regularized iterates track the optimal ray while drifting toward the origin by
a factor of roughly (1 - mu*lambda) per step. The Thompson step length
therefore plateaus near mu * lambda_max(X) instead of reaching 0. Choose
`tol` above that plateau (tol of the order of `epsilon` works; the constant
exp(-F/2) is scale invariant and already accurate there), or accept a MaxIter
status whose bl_constant is still correct.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._util import atomic_write_text
from .cone import thompson
from .datum import BLDatum, validate
from .errors import CholeskyFailure, DimensionMismatch, InvalidArgument, ValidationFailed
from .matcore import SpdMatrix, spd_solve, sym_op_norm
from .objective import bl_constant_from_F, eval_F, pre_inversion_sum

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
INFEASIBILITY_SUSPECTED = "InfeasibilitySuspected"

SOLVERS = ("plain_g", "regularized", "normalized")

BLOWUP_COND = 1e12  # an iterate conditioned worse than this suggests infeasibility


def _check_positive(name: str, value: float) -> None:
    """Raise InvalidArgument unless value is a finite positive number."""
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidArgument(f"{name} must be finite and positive")


def _check_budget(tol_name: str, tol: float, max_iter: int) -> None:
    """The stopping rule every solver config shares: a finite positive tolerance
    and at least one iteration."""
    _check_positive(tol_name, tol)
    if max_iter < 1:
        raise InvalidArgument("max_iter must be at least 1")


@dataclass
class SolveConfig:
    solver: str = "plain_g"
    tol: float = 1e-10
    max_iter: int = 10000
    epsilon: float = 1e-6
    mu_override: float | None = None
    x0: SpdMatrix | None = None  # None means the identity

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise InvalidArgument(f"unknown solver {self.solver!r}; choose from {SOLVERS}")
        _check_positive("epsilon", self.epsilon)  # first: the CLI derives gmu's tol from it
        if self.mu_override is not None:
            _check_positive("mu_override", self.mu_override)
        _check_budget("tol", self.tol, self.max_iter)


@dataclass
class SolveResult:
    X_star: SpdMatrix
    bl_constant: float  # inf when exp(-F/2) overflows a double
    F_value: float
    iterations: int
    converged: bool
    residual: float
    grad_norm: float  # operator norm of the unregularized gradient at X_star
    status: str


@dataclass
class TraceRow:
    iter: int
    F: float
    F_mu: float
    grad_norm: float
    thompson_step: float
    min_eig: float
    max_eig: float
    time_ns: int


class IterTrace:
    """Per-iteration log; row 0 is the start point (its thompson_step is nan).

    `grad_norm` is the operator norm of the gradient of the objective actually
    iterated (regularized when mu > 0). `mu_events` records (iteration, mu)
    whenever the regularization parameter is set or re-derived.
    """

    HEADER = ("iter", "F", "F_mu", "grad_norm", "thompson_step", "min_eig", "max_eig", "time_ns")

    def __init__(self):
        self.rows: list[TraceRow] = []
        self.mu_events: list[tuple[int, float]] = []

    def record(self, k: int, f: float, f_mu: float, grad_norm: float, step_len: float,
               eigs: np.ndarray, t0: int) -> None:
        """Append the row of iterate k, whose ascending eigenvalues are eigs."""
        self.rows.append(
            TraceRow(k, f, f_mu, grad_norm, step_len, float(eigs[0]), float(eigs[-1]),
                     time.perf_counter_ns() - t0)
        )

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]

    def write_csv(self, path: str) -> None:
        lines = [",".join(self.HEADER)]
        for r in self.rows:
            lines.append(
                f"{r.iter},{r.F!r},{r.F_mu!r},{r.grad_norm!r},{r.thompson_step!r},"
                f"{r.min_eig!r},{r.max_eig!r},{r.time_ns}"
            )
        atomic_write_text(path, "\n".join(lines) + "\n")


def _apply_map(s: np.ndarray, solver: str, mu: float = 0.0) -> SpdMatrix:
    """The solver's map (G, G_mu or G~) of an iterate, given its pre-inversion sum s."""
    eye = np.eye(s.shape[0])
    if solver == "regularized":
        s = s + mu * eye
    g = SpdMatrix(spd_solve(SpdMatrix(s), eye))
    return SpdMatrix(g.a / g.trace()) if solver == "normalized" else g


def step_G(datum: BLDatum, x: SpdMatrix) -> SpdMatrix:
    """One plain fixed-point step: invert the weighted pullback sum."""
    return _apply_map(pre_inversion_sum(datum, x), "plain_g")


def step_G_mu(datum: BLDatum, x: SpdMatrix, mu: float) -> SpdMatrix:
    """One regularized step; eigenvalues of the result lie strictly below 1/mu."""
    if mu <= 0.0:
        raise InvalidArgument("mu must be positive")
    return _apply_map(pre_inversion_sum(datum, x), "regularized", mu)


def step_G_tilde(datum: BLDatum, x: SpdMatrix) -> SpdMatrix:
    """One normalized step: the plain step scaled to unit trace.

    The map is homogeneous, so normalizing picks the unit-trace representative
    of the same ray; any other norm would serve, the trace is linear and exact.
    """
    return _apply_map(pre_inversion_sum(datum, x), "normalized")


def choose_mu(epsilon: float, r_est: float, d: int) -> float:
    """Regularization weight for a target accuracy: (eps/2) / (2 r (d - eps/4)).

    `r_est` bounds the operator norms seen along the run; larger bounds force a
    smaller mu so the trace term cannot perturb the value by more than the
    accuracy target.
    """
    if epsilon <= 0.0:
        raise InvalidArgument("epsilon must be positive")
    if r_est <= 0.0:
        raise InvalidArgument("r_est must be positive")
    if d < 1:
        raise InvalidArgument("d must be a positive integer")
    if d <= epsilon / 4.0:
        raise InvalidArgument("d must exceed epsilon/4")
    return (epsilon / 2.0) / (2.0 * r_est * (d - epsilon / 4.0))


def contraction_diagnostic(
    datum: BLDatum, x: SpdMatrix, y: SpdMatrix, mu: float
) -> tuple[float, float]:
    """Observed step distance versus the contraction bound gamma/(gamma+mu) * d(x,y).

    gamma is the larger operator norm of the two pre-inversion sums. Returns
    (lhs, bound); non-expansivity corresponds to mu = 0 where the bound is
    d(x, y) itself.
    """
    if mu < 0.0:
        raise InvalidArgument("mu must be nonnegative")
    sx = pre_inversion_sum(datum, x)
    sy = pre_inversion_sum(datum, y)
    gamma = max(sym_op_norm(sx), sym_op_norm(sy))
    lhs = thompson(_apply_map(sx, "regularized", mu), _apply_map(sy, "regularized", mu))
    bound = gamma / (gamma + mu) * thompson(x, y)
    return lhs, bound


def _steps_growing(steps: list) -> bool:
    tail = [s for s in steps[-11:] if not math.isnan(s)]
    return len(tail) >= 2 and tail[-1] > tail[0]


def _drive(datum: BLDatum, x: SpdMatrix, trace: IterTrace, step, check, max_iter: int,
           residual: str) -> tuple[SolveResult, IterTrace]:
    """The solver loop: evaluate each iterate once, check it, record it, step.

    `check(k, x, ev, step_len, eigs)` returns the trace row's F_mu and
    grad_norm plus a stop status, or None as status to go on. `step(k, x, ev)`
    returns the next iterate with its evaluation (None to have it evaluated
    here), or None when it cannot move, which ends the run as MaxIter. The one
    evaluation of an iterate feeds its check, its row, the step from it and,
    for the last iterate, the result; `residual` names the row column that the
    result reports as its residual.
    """
    t0 = time.perf_counter_ns()
    k, step_len, ev, status = 0, math.nan, None, None
    while True:
        try:
            if k:
                moved = step(k, x, ev)
                if moved is None:
                    break
                x_next, ev = moved
                step_len = thompson(x_next, x)
                x = x_next
            if ev is None:
                ev = eval_F(datum, x)
            eigs = x.eigenvalues()
            f_mu, grad_norm, status = check(k, x, ev, step_len, eigs)
        except CholeskyFailure as exc:
            raise CholeskyFailure(f"iteration {k}: {exc}") from exc
        trace.record(k, ev.value, f_mu, grad_norm, step_len, eigs, t0)
        if status is not None or k >= max_iter:
            break
        k += 1
    status = status or MAX_ITER
    result = SolveResult(
        X_star=x,
        bl_constant=bl_constant_from_F(ev.value),
        F_value=ev.value,
        iterations=len(trace.rows) - 1,
        converged=status == CONVERGED,
        residual=getattr(trace.rows[-1], residual),
        grad_norm=sym_op_norm(ev.gradient),
        status=status,
    )
    return result, trace


def solve_fixed_point(datum: BLDatum, config: SolveConfig) -> tuple[SolveResult, IterTrace]:
    """Iterate the selected map from x0 until the Thompson step is below tol.

    Raises ValidationFailed unless the datum passes the hard checks (ranks,
    weight range, scaling). Flags InfeasibilitySuspected when the iterate's
    condition number exceeds BLOWUP_COND, or on MaxIter with growing steps;
    infeasible data have no finite fixed point, so blowup is the expected
    signature. Numeric failures carry the iteration index.
    """
    report = validate(datum, subspace_checks=False)
    if not report.accepted:
        raise ValidationFailed(
            "datum rejected: "
            f"rank_ok={report.rank_ok}, scaling_ok={report.scaling_ok} "
            f"(residual {report.scaling_residual:g}), weight_range_ok={report.weight_range_ok}"
        )
    x = config.x0 if config.x0 is not None else SpdMatrix.identity(datum.d)
    if x.n != datum.d:
        raise DimensionMismatch(f"x0 is {x.n}x{x.n}, datum has d={datum.d}")

    trace = IterTrace()
    mu = 0.0
    r_seen = r_base = 0.0
    if config.solver == "regularized":
        r_seen = r_base = max(1.0, float(x.eigenvalues()[-1]))
        mu = config.mu_override if config.mu_override is not None else choose_mu(
            config.epsilon, r_base, datum.d
        )
        trace.mu_events.append((0, mu))
    adaptive = config.solver == "regularized" and config.mu_override is None

    def check(k, x, ev, step_len, eigs):
        nonlocal mu, r_seen, r_base
        f_mu = ev.value + mu * x.trace()
        grad_norm = sym_op_norm(ev.gradient if mu == 0.0 else ev.gradient + mu * np.eye(x.n))
        lo, hi = float(eigs[0]), float(eigs[-1])
        if adaptive:
            r_seen = max(r_seen, hi)
            if r_seen > 2.0 * r_base:  # restart the contraction budget
                r_base = r_seen
                mu = choose_mu(config.epsilon, r_base, datum.d)
                trace.mu_events.append((k, mu))
        if k and (lo <= 0.0 or hi / lo > BLOWUP_COND):  # x0 itself is never flagged
            return f_mu, grad_norm, INFEASIBILITY_SUSPECTED
        return f_mu, grad_norm, CONVERGED if step_len <= config.tol else None

    def step(k, x, ev):
        return _apply_map(ev.pre_sum, config.solver, mu), None

    result, trace = _drive(datum, x, trace, step, check, config.max_iter, "thompson_step")
    if result.status == MAX_ITER and _steps_growing(trace.column("thompson_step")):
        result.status = INFEASIBILITY_SUSPECTED
    return result, trace
