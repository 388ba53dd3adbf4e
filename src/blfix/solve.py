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
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf

from ._util import atomic_write_text, check_nonnegative, check_positive
from .cone import thompson
from .datum import RANK_RTOL, BLDatum, validate
from .errors import (CholeskyFailure, ConvergenceFailure, DimensionMismatch, InvalidArgument, StepFailure,
                     ValidationFailed)
from .matcore import SpdMatrix, cholesky, log_det, sym_eig, sym_op_norm
from .objective import bl_constant_from_F, pre_inversion_sum

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
INFEASIBILITY_SUSPECTED = "InfeasibilitySuspected"

SOLVERS = ("plain_g", "regularized", "normalized")

BLOWUP_COND = 1e12  # an iterate conditioned worse than this suggests infeasibility
LOG_HALF_BLOWUP = math.log(0.5 * BLOWUP_COND)  # extremes' cap on log(hi/lo)
SPECTRUM_PAD = 1e-9  # log-space roundoff allowance per step on an iterate's eigenvalue bounds
TRACE_LEVELS = ("summary", "full")
PER_MAP_SOLVE_DPRIME = 10  # from this block size d' on, evaluate solves each map's system on its own (BENCH_19 sweep)
WITNESS_STEPS = 16  # normalized steps from the identity that find_witness runs
WITNESS_TESTS = (4, 16)  # the steps after which it tests X's eigenspaces
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
    (row 0, and where a stop or mu decision needed it), and in the
    fixed-point maps' grad_norm; both levels run the same iterates.
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
    (bar the per-map triangular solves below),

        M_j M_j^T = C_j C_j^T,   W_j = C_j^{-1} M_j,   S = sum_j w_j W_j^T W_j,
        F = sum_j w_j 2 sum log diag C_j - 2 log|det T|,

    where S = T^T P T for the pre-inversion sum P at X and each W_j has
    orthonormal rows. The m triangular solves take one of two routes, chosen
    by the block size d'. Below PER_MAP_SOLVE_DPRIME they are one dtrsm
    against the md' x md' block diagonal of the C_j, (md')^2 d flops in one
    call; `diag_blocks`, a strided view of its m diagonal blocks, takes the
    C_j in one copy, and the zeros off them are never written. From it on
    they are m dtrsm calls of d'^2 d flops each, in place on the columns of
    M^T. Each L_j is first divided by 2^e_j, e_j the binary exponent of its
    largest entry. That is exact and leaves P and the W_j unchanged, so no
    pushforward can overflow or underflow; F moves by 2 ln2 d' sum_j w_j e_j,
    which is added back. `step_len` is the Thompson length of the step that
    reached the iterate. `log_lo` and `log_hi` bound the logs of X's extreme
    eigenvalues; `eig_range` holds them once computed, else nans.
    """

    def __init__(self, datum: BLDatum, x: SpdMatrix):
        if x.n != datum.d:
            raise DimensionMismatch(f"start point is {x.n}x{x.n}, datum has d={datum.d}")
        exps = np.frexp(np.abs(datum.maps).max(axis=(1, 2)))[1]
        self.maps = np.ldexp(datum.maps, -exps[:, None, None]).reshape(-1, datum.d)
        self.shape = (datum.m, datum.dprime, datum.d)
        self.row_w = np.repeat(datum.weights, datum.dprime)
        self.sqrt_w = np.repeat(np.sqrt(self.row_w)[:, None], datum.d, 1)  # full shape: no broadcast
        self.offset = 2.0 * math.log(2.0) * datum.dprime * float(np.dot(datum.weights, exps))
        self.blocks = None  # the per-map route
        if datum.dprime < PER_MAP_SOLVE_DPRIME:
            dp, self.blocks = datum.dprime, np.zeros((len(self.maps),) * 2, order="F")
            row, col = self.blocks.strides  # diag_blocks[j] is blocks[j*dp:(j+1)*dp, j*dp:(j+1)*dp]
            self.diag_blocks = as_strided(self.blocks, (datum.m, dp, dp), (dp * (row + col), row, col))
        self.eye = np.eye(x.n)  # the run's one identity: S - I, and mu I in a full trace's grad_norm
        self.t, self.t_inv = x.chol, dtrsm(1.0, x.chol, self.eye, lower=1)
        self.log_det_t, self.step_len = 0.5 * log_det(x), math.nan
        self.log_lo, self.log_hi, self.eig_range = -math.inf, math.inf, (math.nan, math.nan)

    def evaluate(self) -> "_Whitened":
        """Set value (F) and s (S)."""
        m = np.dot(self.maps, self.t)  # np.dot: one BLAS call without matmul's gufunc overhead
        stacked = m.reshape(self.shape)
        c = cholesky(stacked @ stacked.transpose(0, 2, 1))
        if self.blocks is None:  # W_j^T C_j^T = M_j^T, in place: each slab of m.T is an F-ordered view
            mt, dp = m.T, self.shape[1]
            for j, cj in enumerate(c):
                dtrsm(1.0, cj.T, mt[:, j * dp:(j + 1) * dp], side=1, lower=0, overwrite_b=1)
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

    def spectrum(self) -> None:
        """Compute `eig_range` and rebase the bounds on it. Where T T^T overflows, hi
        reads inf and lo is 1 / max eig(T^-T T^-1), or 0.0 where that overflows too."""
        try:
            eigs = sym_eig(self.t @ self.t.T, vectors=False)
            lo, hi = float(eigs[0]), float(eigs[-1])
        except FloatingPointError:
            try:
                lo, hi = 1.0 / float(sym_eig(self.t_inv.T @ self.t_inv, vectors=False)[-1]), math.inf
            except FloatingPointError:
                lo, hi = 0.0, math.inf
        self.eig_range = lo, hi
        self.log_lo, self.log_hi = (math.log(lo), math.log(hi)) if lo > 0.0 else (-math.inf, math.inf)

    def extremes(self, hi_cap: float) -> tuple[float, float]:
        """`eig_range`, computed unless the bounds prove hi <= hi_cap and
        hi/lo <= BLOWUP_COND / 2 (a computed lo's roundoff grows with hi/lo);
        else it may stay nan, which fails every comparison."""
        if math.isnan(self.eig_range[0]) and (self.log_hi > math.log(hi_cap)
                                              or self.log_hi - self.log_lo > LOG_HALF_BLOWUP):
            self.spectrum()
        return self.eig_range

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
        self.step_len = eta * float(max(abs(lam[0]), abs(lam[-1])))
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
    over their operator norms; one batched SVD ranks all m d images L_j H_r."""
    d = len(basis)
    images = np.dot(unit, basis)[:, None] * np.tri(d, dtype=bool)[:, None]  # [j, r - 1] is L_j H_r, zero-padded
    ranks = np.count_nonzero(np.linalg.svd(images, compute_uv=False) > RANK_RTOL, axis=-1)
    weighted = weights @ ranks
    r = int(np.argmax(np.arange(1, d + 1) - weighted)) + 1
    return Witness(basis[:, :r], float(weighted[r - 1])) if r - weighted[r - 1] > WITNESS_SLACK else None


def find_witness(datum: BLDatum) -> Witness | None:
    """Search a datum that passes the hard checks for a Witness; None proves nothing.

    On infeasible data the iterates of G blow up along a witness. So this runs
    the kernel's normalized map from the identity for WITNESS_STEPS steps and
    tests the nested top-r eigenspaces of X after the steps in WITNESS_TESTS,
    or where a Gram factor fails. Where S's factor fails, it tests the null
    space of S instead, carried back by T: the nested spans of T times S's
    eigenvectors, from the smallest eigenvalue up.
    """
    unit = datum.maps / np.linalg.svd(datum.maps, compute_uv=False)[:, :1, None]  # each L_j / |L_j|_2
    x = _Whitened(datum, SpdMatrix.identity(datum.d))
    with np.errstate(over="ignore", invalid="ignore"):  # only T^-1, which no candidate reads, can overflow
        for k in range(1, WITNESS_STEPS + 1):
            try:
                x.evaluate()
            except CholeskyFailure:  # some L_j X L_j^T is singular to working precision
                return _widest_violation(unit, datum.weights, sym_eig(x.t @ x.t.T)[1][:, ::-1])
            try:
                x.advance("normalized")
            except CholeskyFailure:
                return _widest_violation(unit, datum.weights, np.linalg.qr(x.t @ sym_eig(x.s)[1])[0])
            if k in WITNESS_TESTS and (found := _widest_violation(unit, datum.weights,
                                                                  sym_eig(x.t @ x.t.T)[1][:, ::-1])):
                return found
    return None


def _drive(datum: BLDatum, x0: SpdMatrix, trace: IterTrace, step, check,
           max_iter: int, full: bool) -> tuple[SolveResult, IterTrace]:
    """The solver loop: gate the datum, then evaluate each iterate from x0
    once, check it, record it, step.

    The gate raises ValidationFailed, naming every hard check, unless the
    datum passes them all. `step(x)` moves x to the next iterate, not yet
    evaluated, which carries the length of the step that reached it.
    `check(k, x)`, given the evaluated iterate k, returns the trace row's F_mu
    and grad_norm plus a stop status, or None to go on; after max_iter steps
    the run ends as MaxIter. The one evaluation of an iterate feeds its check,
    its row, the step from it and, for the last iterate, the result, whose
    residual is the row's `trace.residual` column and whose grad_norm is
    taken there. After the gate numpy raises on overflow and on invalid
    operations. For every solver a failed Cholesky or eigensolve ends the run as
    a CholeskyFailure or ConvergenceFailure and an overflow as a StepFailure, with
    the iteration index, in the loop or in building the result from the last one.

    Each step_len is an exact Thompson length, so if eig(X_r) lies in [lo, hi]
    and the steps since r sum to D, eig(X_k) lies in [lo e^-D, hi e^D]: each
    iterate widens its predecessor's bounds by step_len + SPECTRUM_PAD. The
    spectrum is computed at iterate 0, on every iterate when `full`, and where
    a check's `extremes` caps are not ruled out by the bounds. Checks decide
    on computed eigenvalues only, so both trace levels run the same iterates.
    """
    report = validate(datum)
    if not report.accepted:
        raise ValidationFailed(
            "datum rejected: "
            f"rank_ok={report.rank_ok}, scaling_ok={report.scaling_ok} "
            f"(residual {report.scaling_residual:g}), weight_range_ok={report.weight_range_ok}"
        )
    with np.errstate(over="raise", invalid="raise"):
        x = _Whitened(datum, x0)
        append, clock, unknown = trace.rows.append, time.perf_counter_ns, (math.nan, math.nan)
        t0 = clock()
        try:
            for k in range(max_iter + 1):
                if k:
                    x = step(x)
                    pad = x.step_len + SPECTRUM_PAD
                    x.log_lo, x.log_hi, x.eig_range = x.log_lo - pad, x.log_hi + pad, unknown
                x.evaluate()
                if full or not k:
                    x.spectrum()
                f_mu, grad_norm, status = check(k, x)
                append(TraceRow(k, x.value, f_mu, grad_norm, x.step_len, *x.eig_range, clock() - t0))
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
                grad_norm=sym_op_norm(x.gradient),
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
    """
    x0 = config.x0 if config.x0 is not None else SpdMatrix.identity(datum.d)
    trace, full = IterTrace(), config.trace == "full"
    mu = r_base = 0.0
    adaptive = config.solver == "regularized" and config.mu_override is None

    def check(k, x):
        nonlocal mu, r_base
        if k == 0 and config.solver == "regularized":  # mu from x0, once the datum passed the gate
            r_base = max(1.0, x.eig_range[1])
            mu = choose_mu(config.epsilon, r_base, datum.d) if adaptive else config.mu_override
            trace.mu_events.append((0, mu))
        f_mu = x.value + mu * float(np.vdot(x.t, x.t)) if mu else x.value  # trace(X) = |t|_F^2
        grad_norm = math.nan
        if full:
            grad_norm = sym_op_norm(x.gradient if mu == 0.0 else x.gradient + mu * x.eye)
        lo, hi = x.extremes(2.0 * r_base if adaptive else math.inf)
        if adaptive and hi > 2.0 * r_base:  # restart the contraction budget
            r_base = hi
            mu = choose_mu(config.epsilon, r_base, datum.d)
            trace.mu_events.append((k, mu))
        if k and (lo <= 0.0 or hi / lo > BLOWUP_COND):  # x0 itself is never flagged
            return f_mu, grad_norm, INFEASIBILITY_SUSPECTED
        return f_mu, grad_norm, CONVERGED if x.step_len <= config.tol else None

    def step(x):
        return x.advance(config.solver, mu)

    return _drive(datum, x0, trace, step, check, config.max_iter, full)
