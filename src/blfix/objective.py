"""The log-determinant objective on the cone, its trace regularization, and the
translation between cone minimizers and optimal Gaussian inputs.

For a datum (L_1..L_m, w) and X positive definite,

    F(X) = sum_j w_j log det(L_j X L_j^T) - log det(X)

with Euclidean gradient sum_j w_j L_j^T (L_j X L_j^T)^{-1} L_j - X^{-1}. The
optimal constant of a feasible datum is exp(-F(X*)/2) at a minimizer X*; see
the README for the derivation and its cross-checks against the closed-form
instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datum import BLDatum
from .errors import DimensionMismatch, check_nonnegative
from .matcore import SpdMatrix, log_det, spd_inverse, spd_solve


@dataclass(frozen=True)
class GaussianInput:
    """A dprime-dimensional positive definite block per map."""

    blocks: tuple


@dataclass(frozen=True)
class ObjectiveEval:
    """Value and symmetric gradient."""

    value: float
    gradient: np.ndarray


def pushforwards(datum: BLDatum, x: SpdMatrix) -> tuple:
    """The m matrices L_j X L_j^T, validated positive definite."""
    if x.n != datum.d:
        raise DimensionMismatch(f"matrix is {x.n}x{x.n}, datum has d={datum.d}")
    return tuple(SpdMatrix(L @ x.a @ L.T) for L in datum.maps)


def pre_inversion_sum(datum: BLDatum, x: SpdMatrix, pf=None) -> np.ndarray:
    """sum_j w_j L_j^T (L_j X L_j^T)^{-1} L_j, the sum each fixed-point step inverts."""
    if pf is None:
        pf = pushforwards(datum, x)
    s = np.zeros((datum.d, datum.d))
    for w, L, t in zip(datum.weights, datum.maps, pf):
        s += w * (L.T @ spd_solve(t, L))
    return 0.5 * (s + s.T)


def eval_F(datum: BLDatum, x: SpdMatrix) -> ObjectiveEval:
    """F and its gradient at x from the maps, the reference for the solvers' kernel."""
    pf = pushforwards(datum, x)
    value = float(
        sum(w * log_det(t) for w, t in zip(datum.weights, pf)) - log_det(x)
    )
    s = pre_inversion_sum(datum, x, pf)
    return ObjectiveEval(value, s - spd_inverse(x))


def eval_F_mu(datum: BLDatum, x: SpdMatrix, mu: float) -> ObjectiveEval:
    """Evaluate the trace-regularized objective F(x) + mu * trace(x)."""
    check_nonnegative("mu", mu)
    base = eval_F(datum, x)
    if mu == 0.0:
        return base
    return ObjectiveEval(base.value + mu * x.trace(), base.gradient + mu * np.eye(x.n))


def bl_value_Z(datum: BLDatum, z: GaussianInput) -> float:
    """Objective value of a Gaussian input, computed entirely in log space.

    Returns exp((sum_j w_j log det Z_j - log det sum_j w_j L_j^T Z_j L_j) / 2).
    """
    if len(z.blocks) != datum.m:
        raise DimensionMismatch(f"expected {datum.m} blocks, got {len(z.blocks)}")
    for j, b in enumerate(z.blocks):
        if b.n != datum.dprime:
            raise DimensionMismatch(f"block {j} is {b.n}x{b.n}, expected {datum.dprime}")
    s = np.zeros((datum.d, datum.d))
    for w, L, b in zip(datum.weights, datum.maps, z.blocks):
        s += w * (L.T @ b.a @ L)
    log_num = sum(w * log_det(b) for w, b in zip(datum.weights, z.blocks))
    log_den = log_det(SpdMatrix(s))
    return math.exp(0.5 * (log_num - log_den))


def recover_Z(datum: BLDatum, x: SpdMatrix) -> GaussianInput:
    """Gaussian input Z_j = (L_j X L_j^T)^{-1} recovered from a fixed point.

    At a fixed point of the iteration map, this Z attains the supremum of
    bl_value_Z, and bl_value_Z(datum, Z) = exp(-F(X)/2).
    """
    return GaussianInput(tuple(SpdMatrix(spd_inverse(t)) for t in pushforwards(datum, x)))


def bl_constant_from_F(value: float) -> float:
    """exp(-F/2), or inf when that overflows a double; F itself stays exact."""
    try:
        return math.exp(-0.5 * value)
    except OverflowError:
        return math.inf


def bl_constant_from_X(datum: BLDatum, x: SpdMatrix) -> float:
    """The constant exp(-F(x)/2); equals the optimal constant when x minimizes F."""
    return bl_constant_from_F(eval_F(datum, x).value)
