"""Dense symmetric / positive definite kernels that the rest of the package builds on.

Every inverse is a BLAS dtrsm solve against a cached Cholesky factor (LAPACK's
triangular solve stalls at two OpenBLAS threads), formed explicitly only when it
is the result; every eigenvalue comes from sym_eig's one LAPACK dsyevd call, whose
failure is a ConvergenceFailure. Matrices are real symmetric, dense, desk scale.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dsyevd

from ._util import atomic_write_text, read_json
from .errors import (
    CholeskyFailure,
    ConvergenceFailure,
    DimensionMismatch,
    InvalidArgument,
    ParseError,
    ShapeMismatch,
)

SYMMETRY_TOL = 1e-8  # matrix JSON reader, relative to the largest entry


def _mat(x) -> np.ndarray:
    a = x.a if isinstance(x, SpdMatrix) else np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ShapeMismatch(f"expected a non-empty square matrix, got shape {a.shape}")
    return a


def _as_square(entries) -> np.ndarray:
    a = _mat(entries)
    if not np.all(np.isfinite(a)):
        raise InvalidArgument("matrix entries must be finite")
    return a


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a, or of each matrix in a stack of them."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise CholeskyFailure("matrix is not positive definite") from exc


class SpdMatrix:
    """Symmetric positive definite matrix, validated by Cholesky on construction.

    Input is symmetrized as A/2 + A^T/2 first. The Cholesky factor is cached
    and reused by every solve against this matrix. Instances are immutable and
    safe to share between threads.
    """

    __slots__ = ("a", "chol")

    def __init__(self, entries):
        a = _as_square(entries)
        a = 0.5 * a + 0.5 * a.T  # (a + a.T) / 2 can overflow
        chol = cholesky(a)
        a.setflags(write=False)
        chol.setflags(write=False)
        self.a = a
        self.chol = chol

    @classmethod
    def _from_factor(cls, t: np.ndarray) -> "SpdMatrix":
        """T T^T for a square factor T, whose Cholesky factor is R^T for T^T = Q R,
        signed to a positive diagonal: refactoring T T^T fails near cond 1e16."""
        a, r = _as_square(t @ t.T), np.linalg.qr(t.T, mode="r")
        if not np.all(np.diag(r)):
            raise CholeskyFailure("matrix is not positive definite")
        x = cls.__new__(cls)
        x.a, x.chol = 0.5 * a + 0.5 * a.T, r.T * np.sign(np.diag(r))
        x.a.setflags(write=False)
        x.chol.setflags(write=False)
        return x

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @classmethod
    def identity(cls, n: int) -> "SpdMatrix":
        return cls(np.eye(n))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return sym_eig(self.a, vectors=False)

    def trace(self) -> float:
        return float(np.trace(self.a))

    def __repr__(self) -> str:
        return f"SpdMatrix(n={self.n})"


def log_det(x: SpdMatrix) -> float:
    """log of the determinant, accumulated from the Cholesky diagonal."""
    return 2.0 * float(np.sum(np.log(np.diag(x.chol))))


def _congruence(chol: np.ndarray, a: np.ndarray) -> np.ndarray:
    """L^{-1} a L^{-T} for a lower triangular L and a symmetric a."""
    return dtrsm(1.0, chol, dtrsm(1.0, chol, a, lower=1).T, lower=1)


def spd_solve(x: SpdMatrix, b) -> np.ndarray:
    """Solve x @ s = b using the cached Cholesky factor."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != x.n:
        raise DimensionMismatch(f"rhs has {b.shape[0]} rows, matrix is {x.n}x{x.n}")
    s = dtrsm(1.0, x.chol, dtrsm(1.0, x.chol, b.reshape(x.n, -1), lower=1), lower=1, trans_a=1)
    return s.reshape(b.shape)  # the two solves LAPACK's dpotrs makes


def spd_inverse(x: SpdMatrix) -> np.ndarray:
    """Explicit inverse, for the few places where the inverse is the result."""
    inv = spd_solve(x, np.eye(x.n))
    return 0.5 * (inv + inv.T)


def sym_eig(s, vectors: bool = True):
    """Eigendecomposition of a symmetric matrix, by one LAPACK dsyevd call on its
    lower triangle (numpy's eigh and eigvalsh cost more than the call they wrap).

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns), so that
    s = V @ diag(vals) @ V.T; with vectors=False, the eigenvalues alone. Entries
    must be finite, as every caller here ensures: a NaN gives wrong values with info 0.
    Any shape but a non-empty square, 0 x 0 too (dsyevd takes it), raises ShapeMismatch.
    """
    vals, vecs, info = dsyevd(_mat(s), compute_v=int(vectors), lower=1)
    if info:
        raise ConvergenceFailure(f"symmetric eigensolver did not converge (dsyevd info {info})")
    return (vals, vecs) if vectors else vals


def sym_op_norm(s) -> float:
    """Operator (spectral) norm of a symmetric matrix with finite entries: the larger
    |eigenvalue| at the two ends of sym_eig's ascending spectrum, +0.0 for a zero matrix."""
    v = sym_eig(_as_square(s), vectors=False)
    return float(max(abs(v[0]), abs(v[-1])))


def max_gen_eig(x: SpdMatrix, y: SpdMatrix) -> float:
    """Smallest lam > 0 with x <= lam * y in the semidefinite order.

    Computed as the top eigenvalue of L^{-1} x L^{-T} where y = L L^T, i.e. one
    Cholesky (cached on y) plus one symmetric eigensolve. Raises InvalidArgument
    unless lam is a positive double, as when the quotient overflows or underflows.
    """
    if x.n != y.n:
        raise DimensionMismatch(f"dimensions differ: {x.n} vs {y.n}")
    w = _congruence(y.chol, x.a)
    s = 0.5 * w + 0.5 * w.T
    lam = float(sym_eig(s, vectors=False)[-1]) if np.all(np.isfinite(s)) else math.inf
    if not 0.0 < lam < math.inf:
        raise InvalidArgument(f"generalized eigenvalue {lam!r}: the quotient leaves the doubles")
    return lam


# --- matrix JSON interface ---------------------------------------------------
#
# {"n": <int>, "data": [[row], ...]} with row-major nested arrays.


def matrix_to_json_obj(x) -> dict:
    a = _mat(x)
    return {"n": int(a.shape[0]), "data": [[float(v) for v in row] for row in a]}


def matrix_from_json_obj(obj) -> SpdMatrix:
    if not isinstance(obj, dict) or "n" not in obj or "data" not in obj:
        raise ParseError('matrix object must have fields "n" and "data"')
    n = obj["n"]
    data = obj["data"]
    if not isinstance(n, int) or n < 1:
        raise ParseError('field "n" must be a positive integer')
    if not isinstance(data, list) or len(data) != n or any(
        not isinstance(row, list) or len(row) != n for row in data
    ):
        raise ShapeMismatch(f'field "data" must be {n} rows of {n} numbers')
    a = np.array(data, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ParseError("matrix entries must be finite")
    u = a / (np.max(np.abs(a)) or 1.0)  # a - a.T can overflow
    if np.max(np.abs(u - u.T)) > SYMMETRY_TOL:
        raise ParseError(f"matrix is asymmetric beyond tolerance {SYMMETRY_TOL:g} of its largest entry")
    return SpdMatrix(a)


def save_matrix(x, path: str) -> None:
    atomic_write_text(path, json.dumps(matrix_to_json_obj(x), allow_nan=False) + "\n")


def load_matrix(path: str) -> SpdMatrix:
    return read_json(path, matrix_from_json_obj)
