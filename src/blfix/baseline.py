"""Riemannian gradient descent on the positive definite cone, for comparison.

Uses the affine-invariant metric <A, B>_X = trace(X^{-1} A X^{-1} B), under
which the Riemannian gradient is xi = X * grad(X) * X and, for any factor
X = T T^T, the exponential map is Exp_X(V) = T expm(T^{-1} V T^{-T}) T^T. So RGD
steps the whitened iterates of the fixed-point solvers (`blfix.solve`), where
T^{-1} xi T^{-T} = S - I and the metric norm of xi is |S - I|_F. A fixed step
provably decreases the objective (solve_rgd), so the baseline is a monotone,
reproducible competitor for the fixed-point solvers without a line search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import check_nonnegative
from .datum import BLDatum
from .matcore import SpdMatrix, _congruence, sym_eig
from .objective import eval_F, pushforwards  # noqa: F401 (perfbench's tracer resolves this name)
from .solve import CONVERGED, IterTrace, SolveResult, _check_settings, _drive, _Whitened

STEP_SIZE = 0.8  # every step's eta; solve_rgd's certificate holds for eta e^eta < 2, eta < 0.8526


@dataclass
class RgdConfig:
    """`trace` is the IterTrace level, "summary" or "full"."""

    tol_grad: float = 1e-8  # on the Riemannian gradient norm
    max_iter: int = 10000
    trace: str = "summary"

    def __post_init__(self):
        _check_settings("tol_grad", self.tol_grad, self.max_iter, self.trace)


def riem_grad(datum: BLDatum, x: SpdMatrix) -> np.ndarray:
    """Riemannian gradient sym(X * grad(X) * X) under the affine-invariant metric."""
    p = x.a @ eval_F(datum, x).gradient @ x.a
    return 0.5 * (p + p.T)  # X g X is symmetric only up to roundoff


def riem_grad_norm(x: SpdMatrix, xi: np.ndarray) -> float:
    """sqrt(trace(X^{-1} xi X^{-1} xi)), the metric norm of a tangent vector."""
    return float(np.linalg.norm(_congruence(x.chol, xi)))


def rgd_step(datum: BLDatum, x: SpdMatrix, eta: float) -> SpdMatrix:
    """Exponential-map update Exp_X(-eta * riem_grad(X)) by one kernel step; stays on the cone."""
    check_nonnegative("eta", eta)
    frame = _Whitened(datum, x).evaluate()
    return SpdMatrix._from_factor(frame.descend(*sym_eig(frame.s - np.eye(datum.d)), eta).t)


def solve_rgd(datum: BLDatum, config: RgdConfig) -> tuple[SolveResult, IterTrace]:
    """Descend the objective from the identity by steps of STEP_SIZE; stop on
    the Riemannian gradient norm.

    No line search is needed. With S - I = V Lam V^T, a step of eta changes F
    by at most sum_i h(lam_i), h(lam) = (1 + lam)(e^{-eta lam} - 1) + eta lam,
    as log det B <= tr B - d' and tr S = sum_j w_j d'. As 0 <= S <= (d/d') I,
    every lam_i lies in [-1, d/d' - 1], and there h(lam) <= -eta lam^2 c with
    c = min((1 - eta)/(1 + eta lam), 1 - eta e^eta / 2), positive while
    eta e^eta < 2. So at eta = 0.8 each step lowers F by at least
    1e-4 * eta * |S - I|_F^2 if d <= 2499 d' (README, "Whitened coordinates").

    Raises ValidationFailed unless the datum passes the hard checks, with the
    fixed-point solvers' message. An overflowing iterate raises StepFailure
    with the iteration index, as in every solver (F is unbounded below on
    infeasible data, which RGD never flags). In the
    SolveResult, residual is the final Riemannian gradient norm and grad_norm
    the Euclidean one.
    """

    def check(k, x):
        rnorm = float(np.linalg.norm(x.s - np.eye(datum.d)))
        return x.value, rnorm, CONVERGED if rnorm <= config.tol_grad else None

    def step(x):
        return x.descend(*sym_eig(x.s - np.eye(datum.d)), STEP_SIZE)

    return _drive(datum, SpdMatrix.identity(datum.d), IterTrace("grad_norm"), step, check,
                  config.max_iter, config.trace == "full")
