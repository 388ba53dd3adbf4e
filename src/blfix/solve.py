"""Picard iterations for the fixed-point maps, the one solver loop, and the
search for a witness of infeasibility that `blfix check` runs (find_witness).

Three maps share one driver:

    plain_g      X <- (sum_j w_j L_j^T (L_j X L_j^T)^{-1} L_j)^{-1}
    regularized  X <- (mu*I + sum_j w_j L_j^T (L_j X L_j^T)^{-1} L_j)^{-1}
    normalized   the plain step followed by division by the trace

Iteration stops when the Thompson length of the step drops below `tol`, the
metric in which the maps are non-expansive (and, with mu > 0, contractive).
The gradient norm is reported but never used for stopping. The RGD baseline
runs in the same loop, on the same iterates, with its own step and check.

The regularized map stops at tol = epsilon by default. On feasible data its
iterates track the optimal ray while drifting toward the origin by a factor of
about (1 - mu*lambda) per step, so the Thompson step plateaus near
mu * lambda_max(X) instead of reaching 0. Adaptive mu keeps lambda_max below
2 r_base, so the plateau is at most about epsilon / (2d), and exp(-F/2), being
scale invariant, is accurate there. A large `mu_override` can lift the plateau
above epsilon: pass a larger `tol` then, or accept a MaxIter run, whose
bl_constant is still correct.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

from .cone import thompson
from .datum import RANK_RTOL, BLDatum, _prescaled, validate
from .errors import (CholeskyFailure, ConvergenceFailure, DimensionMismatch, InvalidArgument, StepFailure,
                     ValidationFailed, atomic_write_text, check_nonnegative, check_positive)
from .matcore import SpdMatrix, _end_norm, cholesky, log_det, sym_eig, sym_op_norm
from .objective import bl_constant_from_F, pre_inversion_sum

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
INFEASIBILITY_SUSPECTED = "InfeasibilitySuspected"

SOLVERS = ("plain_g", "regularized", "normalized")

BLOWUP_COND = 1e12  # an iterate conditioned worse than this suggests infeasibility
LOG_HALF_BLOWUP = math.log(0.5 * BLOWUP_COND)  # the fixed-point check's cap on log(hi/lo)
SPECTRUM_PAD = 1e-9  # log-space roundoff allowance per step on an iterate's eigenvalue bounds
TRACE_LEVELS = ("summary", "full")
PER_MAP_SOLVE_DPRIME = 10  # from this block size d' on, evaluate solves each map's system on its own (BENCH_19 sweep)
WITNESS_STEPS = 16  # normalized steps from the identity that find_witness runs
WITNESS_SLACK = 1e-9  # a witness's dim H exceeds its weighted image dims by more than this


def _check_settings(tol_name: str, tol: float, max_iter: int, trace: str) -> None:
    """What every solver config shares: a finite positive tolerance, at least
    one iteration and a trace level."""
    check_positive(tol_name, tol)
    if max_iter < 1:
        raise InvalidArgument("max_iter must be at least 1")
    if trace not in TRACE_LEVELS:
        raise InvalidArgument(f"trace must be one of {TRACE_LEVELS}, got {trace!r}")


@dataclass
class SolveConfig:
    """One run's settings. tol None means epsilon for regularized, else 1e-10.
    `trace` is the IterTrace level, "summary" or "full"."""

    solver: str = "plain_g"
    tol: float | None = None
    max_iter: int = 10000
    epsilon: float = 1e-6
    mu_override: float | None = None
    x0: SpdMatrix | None = None  # None means the identity
    trace: str = "summary"

    def __post_init__(self):
        if self.solver not in SOLVERS:
            raise InvalidArgument(f"unknown solver {self.solver!r}; choose from {SOLVERS}")
        check_positive("epsilon", self.epsilon)  # first: regularized's default tol is epsilon
        if self.mu_override is not None:
            check_positive("mu_override", self.mu_override)
        if self.tol is None:
            self.tol = self.epsilon if self.solver == "regularized" else 1e-10
        _check_settings("tol", self.tol, self.max_iter, self.trace)


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


class TraceRow(NamedTuple):
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
    whenever the regularization parameter is set or re-derived. `residual`
    names the column the solver stops on, which its result reports as the
    residual: "thompson_step" for the fixed-point maps, "grad_norm" for RGD.

    The config's `trace` level: "full" fills every cell. "summary" leaves nan
    in min_eig and max_eig except on the rows whose spectrum the run computed
    (row 0, and where a stop or mu decision needed it), and in the fixed-point
    maps' grad_norm. The checks never see it, so both levels end alike.
    """

    HEADER = TraceRow._fields  # the CSV columns

    def __init__(self, residual: str = "thompson_step"):
        self.rows: list[TraceRow] = []
        self.mu_events: list[tuple[int, float]] = []
        self.residual = residual

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.rows]

    def write_csv(self, path: str) -> None:
        lines = [",".join(self.HEADER)] + [",".join(map(repr, r)) for r in self.rows]
        atomic_write_text(path, "\n".join(lines) + "\n")


class _Whitened:
    """A run's one iterate X = T T^T, which each step moves in place, and the
    datum in the coordinates where X is the identity: there the maps are
    M_j = L_j T, and `evaluate` makes one batched call per stage for all m maps
    (bar the per-map triangular solves),

        M_j M_j^T = C_j C_j^T,   W_j = C_j^{-1} M_j,   S = sum_j w_j W_j^T W_j,
        F = sum_j w_j 2 sum log diag C_j - 2 log|det T|,

    where S = T^T P T for the pre-inversion sum P at X and each W_j has
    orthonormal rows. The README's "Whitened coordinates" gives the two
    triangular-solve routes, split at PER_MAP_SOLVE_DPRIME, and the exact
    prescaling of the maps, whose shift of F is `offset`. `step_len` is the
    Thompson length of the step that reached the iterate.
    """

    def __init__(self, datum: BLDatum, x: SpdMatrix):
        if x.n != datum.d:
            raise DimensionMismatch(f"start point is {x.n}x{x.n}, datum has d={datum.d}")
        maps, exps = _prescaled(datum)
        self.maps = maps.reshape(-1, datum.d)
        self.shape = (datum.m, datum.dprime, datum.d)
        self.row_w = np.repeat(datum.weights, datum.dprime)
        self.sqrt_w = np.repeat(np.sqrt(self.row_w)[:, None], datum.d, 1)  # full shape: no broadcast
        self.offset = 2.0 * math.log(2.0) * datum.dprime * float(np.dot(datum.weights, exps))
        self.blocks = None  # the per-map route
        if datum.dprime < PER_MAP_SOLVE_DPRIME:
            self.blocks = np.zeros((len(self.maps),) * 2, order="F")  # diag_blocks[j]: the j-th d'-by-d' block
            self.diag_blocks = np.einsum("aibi->iab", self.blocks.reshape(self.shape[1::-1] * 2, order="F"))
        self.eye = np.eye(x.n)  # the run's one identity: S - I, and mu I in a full trace's grad_norm
        self.t, self.t_inv = x.chol, dtrsm(1.0, x.chol, self.eye, lower=1)
        self.log_det_t, self.step_len = 0.5 * log_det(x), math.nan

    def evaluate(self) -> "_Whitened":
        """Set value (F) and s (S)."""
        m = np.dot(self.maps, self.t)  # np.dot: one BLAS call without matmul's gufunc overhead
        stacked = m.reshape(self.shape)
        c = cholesky(stacked @ stacked.transpose(0, 2, 1))
        if self.blocks is None:  # W_j^T C_j^T = M_j^T, in place: each M_j^T is an F-ordered view into m
            for cj, mj in zip(c, stacked):
                dtrsm(1.0, cj.T, mj.T, side=1, lower=0, overwrite_b=1)
            diag = c.diagonal(0, 1, 2).ravel()
        else:
            self.diag_blocks[...] = c
            m, diag = dtrsm(1.0, self.blocks, m, lower=1), self.blocks.diagonal()
        w = self.sqrt_w * m
        self.s = np.dot(w.T, w)
        log_det_pf = 2.0 * float(np.dot(self.row_w, np.log(diag)))
        self.value = log_det_pf - 2.0 * self.log_det_t + self.offset
        return self

    @property
    def gradient(self) -> np.ndarray:
        """T^{-T} (S - I) T^{-1}, the gradient of F, computed on each access."""
        g = self.t_inv.T @ (self.s - self.eye) @ self.t_inv  # @, so an overflow reads "in matmul"
        return 0.5 * (g + g.T)

    def spectrum(self) -> tuple[float, float]:
        """X's extreme eigenvalues (lo, hi). Where T T^T overflows, hi reads inf and lo
        is 1 / max eig(T^-T T^-1): 0.0 where that overflows, inf where it underflows."""
        try:
            eigs = sym_eig(np.dot(self.t, self.t.T), vectors=False)
            lo, hi = float(eigs[0]), float(eigs[-1])
        except FloatingPointError:
            try:
                top = float(sym_eig(self.t_inv.T @ self.t_inv, vectors=False)[-1])
                lo, hi = 1.0 / top if top else math.inf, math.inf
            except FloatingPointError:
                lo, hi = 0.0, math.inf
        return lo, hi

    def advance(self, solver: str, mu: float = 0.0) -> "_Whitened":
        """Move this evaluated iterate, in place, to its image under the solver's map.

        Here G(X) = S^{-1} and G_mu(X) = (S + mu T^T T)^{-1}; with that matrix
        factored as R R^T by LAPACK's dpotrf, the next T is T R^{-T}. The
        Thompson metric is congruence invariant, so the step's length is
        max |log eig| of the matrix, shifted by the log of the trace that G~
        divides by.
        """
        s = self.s + mu * (self.t.T @ self.t) if solver == "regularized" else self.s
        r, info = dpotrf(s, lower=1)
        if info:
            raise CholeskyFailure("matrix is not positive definite")
        lam = sym_eig(s, vectors=False)
        self.t, self.t_inv = dtrsm(1.0, r, self.t.T, lower=1).T, np.dot(r.T, self.t_inv)
        self.log_det_t, shift = self.log_det_t - float(np.add.reduce(np.log(r.diagonal()))), 0.0
        if solver == "normalized":
            shift = math.log(np.vdot(self.t, self.t))  # the log of the trace of T T^T
            if shift == math.inf:  # that trace overflowed (BLAS raises no flag): scale T by its largest |entry|
                top = float(np.abs(self.t).max())
                shift = math.log(np.vdot(self.t / top, self.t / top)) + 2.0 * math.log(top)
            self.t, self.t_inv = self.t * math.exp(-0.5 * shift), self.t_inv * math.exp(0.5 * shift)
            self.log_det_t -= 0.5 * len(s) * shift
        self.step_len = max(math.log(lam[-1]) + shift, -math.log(lam[0]) - shift) if lam[0] > 0 else math.inf
        return self

    def descend(self, eta: float, g: np.ndarray) -> "_Whitened":
        """Move this evaluated iterate, in place, by RGD's step Exp_X(-eta xi):
        with T^{-1} xi T^{-T} = S - I = V Lam V^T, T <- T V exp(-eta Lam / 2), a
        step of Thompson length eta max |Lam|, at an end of the ascending Lam.
        The caller passes g = S - I, which RGD's check has already formed."""
        lam, vecs = sym_eig(g)
        half = np.exp(-0.5 * eta * lam)
        self.t, self.t_inv = np.dot(self.t, vecs) * half, np.dot((vecs / half).T, self.t_inv)
        self.log_det_t -= 0.5 * eta * float(np.add.reduce(lam))
        self.step_len = eta * _end_norm(lam)
        return self


def _map_step(datum: BLDatum, x: SpdMatrix, solver: str, mu: float = 0.0) -> SpdMatrix:
    """The solver's map of x, by one kernel step."""
    return SpdMatrix._from_factor(_Whitened(datum, x).evaluate().advance(solver, mu).t)


def step_G(datum: BLDatum, x: SpdMatrix) -> SpdMatrix:
    """One plain fixed-point step: invert the weighted pullback sum."""
    return _map_step(datum, x, "plain_g")


def step_G_mu(datum: BLDatum, x: SpdMatrix, mu: float) -> SpdMatrix:
    """One regularized step; eigenvalues of the result lie strictly below 1/mu."""
    check_positive("mu", mu)
    return _map_step(datum, x, "regularized", mu)


def step_G_tilde(datum: BLDatum, x: SpdMatrix) -> SpdMatrix:
    """One normalized step: the plain step scaled to unit trace.

    The map is homogeneous, so normalizing picks the unit-trace representative
    of the same ray; any other norm would serve, the trace is linear and exact.
    """
    return _map_step(datum, x, "normalized")


def choose_mu(epsilon: float, r_est: float, d: int) -> float:
    """Regularization weight for a target accuracy: (eps/2) / (2 r (d - eps/4)).

    `r_est` bounds the operator norms seen along the run; larger bounds force a
    smaller mu so the trace term cannot perturb the value by more than the
    accuracy target.
    """
    check_positive("epsilon", epsilon)
    check_positive("r_est", r_est)
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
    check_nonnegative("mu", mu)
    gamma = max(sym_op_norm(pre_inversion_sum(datum, p)) for p in (x, y))
    lhs = thompson(_map_step(datum, x, "regularized", mu), _map_step(datum, y, "regularized", mu))
    bound = gamma / (gamma + mu) * thompson(x, y)
    return lhs, bound


class Witness(NamedTuple):
    """A subspace H with dim H > sum_j w_j rank(L_j H) + WITNESS_SLACK, which
    proves the datum infeasible (Bennett, Carbery, Christ and Tao, GAFA 2008).
    Each rank counts the singular values of L_j H above RANK_RTOL * |L_j|_2."""

    basis: np.ndarray  # d x dim H, orthonormal columns
    weighted_dims: float  # sum_j w_j rank(L_j H)


def _widest_violation(unit: np.ndarray, weights: np.ndarray, basis: np.ndarray) -> Witness | None:
    """The span H_r of basis[:, :r], r = 1..d, whose dimension exceeds its weighted
    image dims by the most, if by more than WITNESS_SLACK. `unit` holds the maps
    over their operator norms; one stacked matrix_rank ranks all m d images L_j H_r."""
    d = len(basis)
    images = np.dot(unit, basis)[:, None] * np.tri(d, dtype=bool)[:, None]  # [j, r - 1] is L_j H_r, zero-padded
    ranks = np.linalg.matrix_rank(images, tol=RANK_RTOL)
    weighted = weights @ ranks
    r = int(np.argmax(np.arange(1, d + 1) - weighted)) + 1
    return Witness(basis[:, :r], float(weighted[r - 1])) if r - weighted[r - 1] > WITNESS_SLACK else None


def find_witness(datum: BLDatum) -> Witness | None:
    """Search a datum that passes the hard checks for a Witness; None proves nothing.

    On infeasible data the iterates of G blow up along a witness. So this runs
    the kernel's normalized map from the identity for WITNESS_STEPS steps and
    then tests the nested top-r eigenspaces of X once; where a Gram factor
    fails first, it stops there and tests X as it stands. Where S's factor
    fails, it tests the null space of S instead, carried back by T: the
    nested spans of T times S's eigenvectors, from the smallest eigenvalue up.
    It ranks the _prescaled maps, as validate does, so no norm can overflow.
    """
    unit = (maps := _prescaled(datum)[0]) / np.linalg.svd(maps, compute_uv=False)[:, :1, None]  # each L_j / |L_j|_2
    x = _Whitened(datum, SpdMatrix.identity(datum.d))
    with np.errstate(over="ignore", invalid="ignore"):  # only T^-1, which no candidate reads, can overflow
        for _ in range(WITNESS_STEPS):
            try:
                x.evaluate()
            except CholeskyFailure:  # some L_j X L_j^T is singular to working precision
                break
            try:
                x.advance("normalized")
            except CholeskyFailure:
                return _widest_violation(unit, datum.weights, np.linalg.qr(x.t @ sym_eig(x.s)[1])[0])
        return _widest_violation(unit, datum.weights, sym_eig(x.t @ x.t.T)[1][:, ::-1])


def _drive(datum: BLDatum, x0: SpdMatrix, trace: IterTrace, step, check,
           max_iter: int, level: str) -> tuple[SolveResult, IterTrace]:
    """The solver loop: gate the datum, then evaluate each iterate from x0
    once, check it, record it, step.

    The gate raises ValidationFailed, naming every hard check, unless the datum
    passes them all. `step(x)` moves x to the next iterate, not yet evaluated,
    which carries the length of the step that reached it. `check(k, x)` decides
    on the evaluated iterate k, blind to the trace `level`, and returns the
    row's mu, its own grad_norm and X's (lo, hi), None where not computed, and
    a stop status, or None to go on; after max_iter steps the run ends as
    MaxIter. The loop fills X's spectrum on row 0 and every "full" row, a
    "full" row's grad_norm (plus mu I; inf past the doubles) and each F_mu.
    The one evaluation of an iterate feeds its check, its row, the step from it
    and, for the last iterate, the result, whose residual is the row's
    `trace.residual` column. After the gate numpy raises on overflow and on
    invalid operations. A failed Cholesky or eigensolve ends the run as a
    CholeskyFailure or ConvergenceFailure and an overflow as a StepFailure,
    with the iteration index, in the loop or in building the result.
    """
    report = validate(datum)
    if not report.accepted:
        raise ValidationFailed(
            "datum rejected: "
            f"rank_ok={report.rank_ok}, scaling_ok={report.scaling_ok} "
            f"(residual {report.scaling_residual:g}), weight_range_ok={report.weight_range_ok}"
        )
    with np.errstate(over="raise", invalid="raise"):
        x, full = _Whitened(datum, x0), level == "full"
        append, clock = trace.rows.append, time.perf_counter_ns
        t0 = clock()
        try:
            for k in range(max_iter + 1):
                if k:
                    x = step(x)
                x.evaluate()
                mu, norm, spectrum, status = check(k, x)
                lo, hi = spectrum or (x.spectrum() if full or not k else (math.nan, math.nan))
                if norm is None and full:
                    try:  # past the doubles it reads inf: only the result's gradient ends a run
                        norm = _end_norm(sym_eig(x.gradient + mu * x.eye if mu else x.gradient, vectors=False))
                    except FloatingPointError:
                        norm = math.inf
                f_mu = x.value + mu * float(np.vdot(x.t, x.t)) if mu else x.value  # trace(X) = |t|_F^2
                append(TraceRow(k, x.value, f_mu, math.nan if norm is None else norm, x.step_len, lo, hi,
                                clock() - t0))
                if status is not None:
                    break
            status = status or MAX_ITER
            result = SolveResult(
                X_star=SpdMatrix._from_factor(x.t),
                bl_constant=bl_constant_from_F(x.value),
                F_value=x.value,
                iterations=len(trace.rows) - 1,
                converged=status == CONVERGED,
                residual=getattr(trace.rows[-1], trace.residual),
                grad_norm=_end_norm(sym_eig(x.gradient, vectors=False)),
                status=status,
            )
        except (CholeskyFailure, ConvergenceFailure) as exc:
            raise type(exc)(f"iteration {k}: {exc}") from exc
        except FloatingPointError as exc:
            raise StepFailure(f"iteration {k}: {exc}") from exc
        return result, trace


def solve_fixed_point(datum: BLDatum, config: SolveConfig) -> tuple[SolveResult, IterTrace]:
    """Iterate the selected map from x0 until the Thompson step is at most
    config.tol, which for `regularized` defaults to epsilon (SolveConfig).

    Raises ValidationFailed unless the datum passes the hard checks (ranks,
    weight range, scaling). Flags InfeasibilitySuspected when the iterate's
    condition number exceeds BLOWUP_COND; infeasible data have no finite fixed
    point, so blowup is the expected signature. A run that reaches max_iter
    ends as MaxIter, whatever its step lengths did. Numeric failures carry the
    iteration index.

    The check carries bounds on log eig(X): a step of exact Thompson length D
    moves each log eig by at most D, so each iterate widens them by step_len +
    SPECTRUM_PAD. At both trace levels it computes the spectrum on iterate 0
    and where they cannot prove hi <= 2 r_base (adaptive mu) and hi/lo <=
    BLOWUP_COND / 2 (a computed lo's roundoff grows with hi/lo), rebases them
    on it, and only there decides on mu and blowup; the loop fills the rest.
    """
    x0 = config.x0 if config.x0 is not None else SpdMatrix.identity(datum.d)
    trace = IterTrace()
    mu = r_base = log_lo = log_hi = 0.0  # iterate 0's spectrum sets the bounds
    adaptive = config.solver == "regularized" and config.mu_override is None

    def check(k, x):
        nonlocal mu, r_base, log_lo, log_hi
        pad = x.step_len + SPECTRUM_PAD  # nan at iterate 0, whose spectrum sets the bounds
        log_lo, log_hi, row = log_lo - pad, log_hi + pad, (mu, None, None)
        if not k or log_hi > math.log(2.0 * r_base if adaptive else math.inf) or log_hi - log_lo > LOG_HALF_BLOWUP:
            lo, hi = x.spectrum()
            log_lo, log_hi = (math.log(lo), math.log(hi)) if lo > 0.0 else (-math.inf, math.inf)
            if k == 0 and config.solver == "regularized":  # mu from x0, once the datum passed the gate
                r_base = max(1.0, hi)
                mu = choose_mu(config.epsilon, r_base, datum.d) if adaptive else config.mu_override
                trace.mu_events.append((0, mu))
            row = mu, None, (lo, hi)  # the row's F_mu and grad_norm read mu from before a restart
            if adaptive and hi > 2.0 * r_base:  # restart the contraction budget
                r_base = hi
                mu = choose_mu(config.epsilon, r_base, datum.d)
                trace.mu_events.append((k, mu))
            if k and (lo <= 0.0 or hi / lo > BLOWUP_COND):  # x0 itself is never flagged
                return *row, INFEASIBILITY_SUSPECTED
        return *row, CONVERGED if x.step_len <= config.tol else None

    def step(x):
        return x.advance(config.solver, mu)

    return _drive(datum, x0, trace, step, check, config.max_iter, config.trace)
