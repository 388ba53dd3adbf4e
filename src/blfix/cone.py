"""Thompson and Hilbert metrics on the positive definite cone.

Both metrics are built from the extremal quotient M(x/y), the smallest lam with
x <= lam * y, obtained as a generalized eigenvalue. Also provides the order
interval {delta*I <= X <= Delta*I} and the bound translating metric distance
into Schatten-norm distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument
from .matcore import SpdMatrix, max_gen_eig

# values below this snap to exactly 0, avoiding negative roundoff distances
_ZERO_SNAP = 1e-14

_EIG_SLACK = 1e-10  # eigenvalue tolerance for box membership


@dataclass(frozen=True)
class ConeBox:
    """Order interval {delta*I <= X <= Delta*I} in dimension dim."""

    delta: float
    Delta: float
    dim: int

    def __post_init__(self):
        if not (0.0 < self.delta <= self.Delta):
            raise InvalidArgument("need 0 < delta <= Delta")
        if self.dim < 1:
            raise InvalidArgument("dim must be a positive integer")

    def diameter(self) -> float:
        """Thompson diameter of the box, log(Delta/delta)."""
        return math.log(self.Delta / self.delta)


def thompson(x: SpdMatrix, y: SpdMatrix) -> float:
    """Thompson part metric: log max{M(x/y), M(y/x)}."""
    d = math.log(max(max_gen_eig(x, y), max_gen_eig(y, x)))
    return 0.0 if d < _ZERO_SNAP else d


def hilbert(x: SpdMatrix, y: SpdMatrix) -> float:
    """Hilbert projective metric: log(M(x/y) * M(y/x)).

    Invariant under positive scaling of either argument; a metric on rays.
    """
    d = math.log(max_gen_eig(x, y)) + math.log(max_gen_eig(y, x))
    return 0.0 if d < _ZERO_SNAP else d


def in_box(x: SpdMatrix, box: ConeBox) -> bool:
    """Membership of x in the order interval, with eigenvalue slack 1e-10."""
    if x.n != box.dim:
        raise DimensionMismatch(f"matrix is {x.n}x{x.n}, box dimension is {box.dim}")
    vals = x.eigenvalues()
    return bool(vals[0] >= box.delta - _EIG_SLACK and vals[-1] <= box.Delta + _EIG_SLACK)


def schatten_norm(x: SpdMatrix, p) -> float:
    """Schatten p-norm for p in {1, 2, inf}: the vector p-norm of the eigenvalues."""
    if p not in (1, 2, math.inf):
        raise InvalidArgument("p must be 1, 2 or inf")
    return float(np.linalg.norm(x.eigenvalues(), p))


def snyder_bound(x: SpdMatrix, y: SpdMatrix, p) -> float:
    """Upper bound on ||x - y||_p in terms of the Thompson distance.

    Returns 2^(1/p) * (1 - exp(-d)) * max(||x||_p, ||y||_p) with d = thompson(x, y).
    """
    d = thompson(x, y)
    factor = -math.expm1(-d)  # (e^d - 1)/e^d, stable for small d
    return 2.0 ** (1.0 / p) * factor * max(schatten_norm(x, p), schatten_norm(y, p))
