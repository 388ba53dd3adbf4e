"""Riemannian gradient descent on the positive definite cone, for comparison.

Uses the affine-invariant metric <A, B>_X = trace(X^{-1} A X^{-1} B), under
which the Riemannian gradient is X * grad(X) * X and the exact exponential map
Exp_X(V) = X^{1/2} expm(X^{-1/2} V X^{-1/2}) X^{1/2} is affordable at desk
scale. Backtracking keeps the objective monotone, which makes the baseline a
reproducible competitor for the fixed-point solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .datum import BLDatum, validate
from .errors import StepFailure, ValidationFailed
from .matcore import SpdMatrix, SymMatrix, log_det
from .objective import eval_F, pushforwards
from .solve import CONVERGED, IterTrace, SolveResult, _drive


@dataclass
class RgdConfig:
    step_size: float = 0.1
    backtracking: bool = True
    backtrack_factor: float = 0.5
    sufficient_decrease: float = 1e-4
    tol_grad: float = 1e-8  # on the Riemannian gradient norm
    max_iter: int = 10000

    def __post_init__(self):
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")


def riem_grad(datum: BLDatum, x: SpdMatrix) -> SymMatrix:
    """Riemannian gradient sym(X * grad(X) * X) under the affine-invariant metric."""
    g = eval_F(datum, x).gradient.a
    return SymMatrix(x.a @ g @ x.a)


def riem_grad_norm(x: SpdMatrix, xi: SymMatrix) -> float:
    """sqrt(trace(X^{-1} xi X^{-1} xi)), the metric norm of a tangent vector."""
    w = scipy.linalg.solve_triangular(x.chol, xi.a, lower=True, check_finite=False)
    w = scipy.linalg.solve_triangular(x.chol, w.T, lower=True, check_finite=False)
    return float(np.linalg.norm(w))


def _sqrt_pair(x: SpdMatrix) -> tuple[np.ndarray, np.ndarray]:
    vals, vecs = np.linalg.eigh(x.a)
    rt = np.sqrt(vals)
    return (vecs * rt) @ vecs.T, (vecs / rt) @ vecs.T


def _exp_step(x_half: np.ndarray, x_inv_half: np.ndarray, xi: np.ndarray, eta: float) -> SpdMatrix:
    inner = x_inv_half @ (-eta * xi) @ x_inv_half
    vals, vecs = np.linalg.eigh(0.5 * (inner + inner.T))
    e = (vecs * np.exp(vals)) @ vecs.T
    return SpdMatrix(x_half @ e @ x_half)


def rgd_step(datum: BLDatum, x: SpdMatrix, eta: float) -> SpdMatrix:
    """Exponential-map update Exp_X(-eta * riem_grad(X)); stays on the cone."""
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    x_half, x_inv_half = _sqrt_pair(x)
    return _exp_step(x_half, x_inv_half, riem_grad(datum, x).a, eta)


def solve_rgd(datum: BLDatum, config: RgdConfig) -> tuple[SolveResult, IterTrace]:
    """Descend the objective from the identity; stop on the Riemannian gradient norm.

    With backtracking on, each accepted step satisfies an Armijo decrease; once
    the requested decrease falls below the double-precision noise of the value,
    steps are accepted on non-increase up to that noise (measured differences
    are pure roundoff there, while the gradient keeps contracting). If not even
    that succeeds the run stops as stalled rather than loop forever. In the
    SolveResult, residual is the final Riemannian gradient norm and grad_norm
    the Euclidean one.
    """
    report = validate(datum, subspace_checks=False)
    if not report.accepted:
        raise ValidationFailed("datum rejected by hard validation checks")
    xi = rnorm = None
    eta_prev = config.step_size

    def check(k, x, ev, step_len, eigs):
        nonlocal xi, rnorm
        xi = SymMatrix(x.a @ ev.gradient.a @ x.a)
        rnorm = riem_grad_norm(x, xi)
        return ev.value, rnorm, CONVERGED if rnorm <= config.tol_grad else None

    def step(k, x, ev):
        nonlocal eta_prev
        x_half, x_inv_half = _sqrt_pair(x)
        if not config.backtracking:
            return _exp_step(x_half, x_inv_half, xi.a, config.step_size), None
        eta = min(config.step_size, 2.0 * eta_prev)
        if k == 1:  # no accepted trial yet: the start value sets the scale
            f_scale = 1.0 + abs(ev.value)
        else:  # F sums log-determinants; its roundoff tracks their sizes, not F
            terms = sum(abs(w * log_det(t)) for w, t in zip(datum.weights, ev.pushforwards))
            f_scale = 1.0 + terms + abs(log_det(x))
        # below this, the Armijo decrease is invisible in double precision
        fp_floor = 1e-14 * f_scale
        at_noise_floor = config.sufficient_decrease * eta * rnorm * rnorm <= fp_floor
        while True:
            trial = _exp_step(x_half, x_inv_half, xi.a, eta)
            # one call of this module's pushforwards per trial, so profilers can count trials
            ev_trial = eval_F(datum, trial, pushforwards(datum, trial))
            f_trial, need = ev_trial.value, config.sufficient_decrease * eta * rnorm * rnorm
            if f_trial <= ev.value - need or (need <= fp_floor and f_trial <= ev.value + fp_floor):
                eta_prev = eta
                return trial, ev_trial
            eta *= config.backtrack_factor
            if eta < 1e-16:
                if at_noise_floor:  # value differences are all noise here
                    return None
                raise StepFailure(f"iteration {k}: backtracking underflow")

    return _drive(datum, SpdMatrix.identity(datum.d), IterTrace(), step, check,
                  config.max_iter, "grad_norm")
