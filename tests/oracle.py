"""A dense Newton oracle for the Brascamp-Lieb objective at desk scale.

    F(X) = sum_j w_j log det(L_j X L_j^T) - log det X,   BL constant exp(-F/2).

It shares F's definition with blfix's solvers and nothing else: it reads the
datum's maps and weights, and uses only numpy's QR, eigh and lstsq. In the
chart X = T e^H T^T around the current iterate, with M_j = L_j T factored as
M_j^T = Q_j R_j, W_j = Q_j^T has orthonormal rows, F = sum_j w_j 2 sum
log|diag R_j| - 2 log|det T|, and nothing squares a map's condition number.
The chart's gradient is S - I, S = sum_j w_j P_j, P_j = W_j^T W_j, and its
Hessian is A(H) = sym(S H) - sum_j w_j P_j H P_j, solved densely as a d^2 x d^2
Kronecker sum by least squares: H = I lies in its kernel, as F is scale
invariant.
"""

import numpy as np

from blfix.datum import BLDatum

STEP_CAP = 2.0  # the largest max |eig H| of a step
SLACK = 1e-13  # a step may raise F by this much, relative to max(1, |F|)
MAX_STEPS = 100
MAX_HALVINGS = 60


def _chart(datum: BLDatum, t: np.ndarray) -> tuple[float, list]:
    """F at X = T T^T and the projections P_j."""
    value, projections = -2.0 * np.linalg.slogdet(t)[1], []
    for L, w in zip(datum.maps, datum.weights.tolist()):
        q, r = np.linalg.qr((L @ t).T)
        value += 2.0 * w * float(np.sum(np.log(np.abs(np.diagonal(r)))))
        projections.append(q @ q.T)
    return value, projections


def newton_oracle(datum: BLDatum, tol: float = 1e-13) -> tuple[float, float]:
    """(F, |S - I|_F) at the first iterate from the identity with |S - I|_F < tol,
    by damped Newton steps: each capped at STEP_CAP, halved until F rises by at
    most SLACK, then scaled to unit trace. Raises AssertionError where no
    iterate reaches tol within MAX_STEPS, as where F has no minimizer."""
    d, weights = datum.d, datum.weights.tolist()
    t = np.eye(d) / np.sqrt(d)
    value, projections = _chart(datum, t)
    eye = np.eye(d)
    for _ in range(MAX_STEPS):
        s = sum(w * p for w, p in zip(weights, projections))
        residual = float(np.linalg.norm(s - eye))
        if residual < tol:
            return value, residual
        hessian = 0.5 * (np.kron(s, eye) + np.kron(eye, s)) - sum(
            w * np.kron(p, p) for w, p in zip(weights, projections))
        h = np.linalg.lstsq(hessian, -(s - eye).ravel())[0].reshape(d, d)
        lam, vecs = np.linalg.eigh(0.5 * (h + h.T))
        step = min(1.0, STEP_CAP / float(np.abs(lam).max()))
        for _ in range(MAX_HALVINGS):
            moved = t @ vecs * np.exp(0.5 * step * lam)
            moved /= np.linalg.norm(moved)  # unit trace: F is scale invariant
            trial, trial_projections = _chart(datum, moved)
            if trial <= value + SLACK * max(1.0, abs(value)):
                break
            step *= 0.5
        else:
            raise AssertionError(f"no step lowers F from {value!r}; |S - I|_F = {residual:g}")
        t, value, projections = moved, trial, trial_projections
    raise AssertionError(f"|S - I|_F = {residual:g} after {MAX_STEPS} steps")
