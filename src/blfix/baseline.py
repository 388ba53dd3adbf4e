"""Riemannian gradient descent on the positive definite cone, for comparison.

Uses the affine-invariant metric <A, B>_X = trace(X^{-1} A X^{-1} B), under
which the Riemannian gradient is xi = X * grad(X) * X and, for any factor
X = T T^T, the exponential map is Exp_X(V) = T expm(T^{-1} V T^{-T}) T^T. So RGD
steps the whitened iterates of the fixed-point solvers (`blfix.solve`), where
T^{-1} xi T^{-T} = S - I and the metric norm of xi is |S - I|_F. Backtracking
keeps the objective monotone, which makes the baseline a reproducible
competitor for the fixed-point solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .datum import BLDatum
from .errors import InvalidArgument, StepFailure
from .matcore import SpdMatrix, sym_eig
from .objective import eval_F, pushforwards  # noqa: F401 (perfbench's tracer resolves this name)
from .solve import CONVERGED, IterTrace, SolveResult, _check_budget, _drive, _Whitened

STEP_SIZE = 0.1  # first trial step, and the cap on every later one
BACKTRACK_FACTOR = 0.5  # trial step shrink on a failed Armijo test
SUFFICIENT_DECREASE = 1e-4  # Armijo constant


@dataclass
class RgdConfig:
    tol_grad: float = 1e-8  # on the Riemannian gradient norm
    max_iter: int = 10000

    def __post_init__(self):
        _check_budget("tol_grad", self.tol_grad, self.max_iter)


def riem_grad(datum: BLDatum, x: SpdMatrix) -> np.ndarray:
    """Riemannian gradient sym(X * grad(X) * X) under the affine-invariant metric."""
    p = x.a @ eval_F(datum, x).gradient @ x.a
    return 0.5 * (p + p.T)  # X g X is symmetric only up to roundoff


def riem_grad_norm(x: SpdMatrix, xi: np.ndarray) -> float:
    """sqrt(trace(X^{-1} xi X^{-1} xi)), the metric norm of a tangent vector."""
    w = scipy.linalg.solve_triangular(x.chol, xi, lower=True, check_finite=False)
    w = scipy.linalg.solve_triangular(x.chol, w.T, lower=True, check_finite=False)
    return float(np.linalg.norm(w))


def rgd_step(datum: BLDatum, x: SpdMatrix, eta: float) -> SpdMatrix:
    """Exponential-map update Exp_X(-eta * riem_grad(X)) by one kernel step; stays on the cone."""
    if eta < 0.0:
        raise InvalidArgument("eta must be nonnegative")
    frame = _Whitened(datum, x).evaluate()
    t = frame.descend(*sym_eig(frame.s - np.eye(datum.d)), eta).t
    return SpdMatrix(t @ t.T)


def solve_rgd(datum: BLDatum, config: RgdConfig) -> tuple[SolveResult, IterTrace]:
    """Descend the objective from the identity; stop on the Riemannian gradient norm.

    The Armijo test of each step uses the kernel's exact decrease, so it stays
    meaningful down to the stopping tolerance and no rejected trial is evaluated.
    Raises ValidationFailed unless the datum passes the hard checks, with the
    fixed-point solvers' message. A line search whose step underflows raises
    StepFailure, as does an iterate that overflows (F is unbounded below on
    infeasible data); both carry the iteration index. In the SolveResult,
    residual is the final Riemannian gradient norm and grad_norm the Euclidean
    one.
    """
    eta_prev = STEP_SIZE

    def check(k, x, eigs):
        rnorm = float(np.linalg.norm(x.s - np.eye(datum.d)))
        return x.value, rnorm, CONVERGED if rnorm <= config.tol_grad else None

    def step(k, x):
        nonlocal eta_prev
        lam, vecs = sym_eig(x.s - np.eye(datum.d))
        need = SUFFICIENT_DECREASE * float(lam @ lam)  # per unit of eta
        eta = min(STEP_SIZE, 2.0 * eta_prev)
        while x.decrease(lam, vecs, eta) > -need * eta:
            eta *= BACKTRACK_FACTOR
            if eta < 1e-16:
                raise StepFailure(f"iteration {k}: backtracking underflow")
        eta_prev = eta
        return x.descend(lam, vecs, eta)

    # an overflowing iterate ends the run
    return _drive(datum, SpdMatrix.identity(datum.d), IterTrace("grad_norm"), step, check,
                  config.max_iter, over="raise", invalid="raise")
