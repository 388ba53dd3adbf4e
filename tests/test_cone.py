import math

import numpy as np
import pytest

from blfix.cone import ConeBox, hilbert, in_box, schatten_norm, snyder_bound, thompson
from blfix.errors import DimensionMismatch, InvalidArgument
from blfix.matcore import SpdMatrix, spd_inverse, sym_eig

from conftest import rand_spd

DIMS = (2, 3, 5)


def _sym_schatten(a: np.ndarray, p) -> float:
    """Schatten p-norm of a symmetric (not necessarily definite) matrix."""
    ev = np.abs(np.linalg.eigvalsh(a))
    if p == 1:
        return float(np.sum(ev))
    if p == 2:
        return float(np.sqrt(np.sum(ev * ev)))
    return float(np.max(ev))


def _power(x: SpdMatrix, t: float) -> SpdMatrix:
    """x^t through the eigendecomposition."""
    vals, vecs = sym_eig(x)
    return SpdMatrix((vecs * vals**t) @ vecs.T)


class TestConeBox:
    def test_diameter(self):
        assert ConeBox(0.5, 2.0, 3).diameter() == pytest.approx(math.log(4.0))

    def test_invalid(self):
        with pytest.raises(InvalidArgument):
            ConeBox(2.0, 1.0, 3)
        with pytest.raises(InvalidArgument):
            ConeBox(0.0, 1.0, 3)
        with pytest.raises(InvalidArgument, match="dim"):
            ConeBox(1.0, 2.0, 0)

    def test_in_box(self):
        box = ConeBox(0.5, 2.0, 2)
        assert in_box(SpdMatrix.identity(2), box)
        assert not in_box(SpdMatrix(3.0 * np.eye(2)), box)
        assert in_box(SpdMatrix(np.diag([0.6, 1.9])), box)

    def test_in_box_dimension(self):
        with pytest.raises(DimensionMismatch):
            in_box(SpdMatrix.identity(3), ConeBox(0.5, 2.0, 2))


class TestThompson:
    def test_identity_of_indiscernibles(self):
        x = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert thompson(x, x) == 0.0

    def test_scalar(self):
        assert thompson(SpdMatrix(2 * np.eye(3)), SpdMatrix.identity(3)) == pytest.approx(
            math.log(2.0)
        )

    def test_diagonal_oracle(self):
        # diagonal case: max over i of |log(x_i / y_i)|
        x, y = np.array([1.0, 4.0]), np.array([2.0, 1.0])
        expect = np.max(np.abs(np.log(x / y)))
        got = thompson(SpdMatrix(np.diag(x)), SpdMatrix(np.diag(y)))
        assert got == pytest.approx(expect) == pytest.approx(math.log(4.0))


class TestHilbert:
    def test_projective(self):
        assert hilbert(SpdMatrix(2 * np.eye(2)), SpdMatrix.identity(2)) == 0.0

    def test_self_distance(self):
        x = SpdMatrix([[3.0, 1.0], [1.0, 2.0]])
        assert hilbert(x, x) == 0.0

    def test_diagonal_oracle(self):
        # ratios 4 and 2 multiply to 8
        got = hilbert(SpdMatrix(np.diag([1.0, 4.0])), SpdMatrix(np.diag([2.0, 1.0])))
        assert got == pytest.approx(math.log(8.0))


class TestSnyder:
    def test_zero_distance(self):
        x = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert snyder_bound(x, x, 2) == 0.0

    def test_frobenius_example(self):
        # distance log 2, factor 1/2, ||2I||_F = sqrt(8)
        got = snyder_bound(SpdMatrix(2 * np.eye(2)), SpdMatrix.identity(2), 2)
        assert got == pytest.approx(2.0)

    def test_trace_example(self):
        # distance log 4, factor 3/4, trace norms 5 and 3
        got = snyder_bound(SpdMatrix(np.diag([1.0, 4.0])), SpdMatrix(np.diag([2.0, 1.0])), 1)
        assert got == pytest.approx(7.5)

    def test_schatten_norms(self):
        x = SpdMatrix(np.diag([1.0, 4.0]))
        assert schatten_norm(x, 1) == pytest.approx(5.0)
        assert schatten_norm(x, 2) == pytest.approx(math.sqrt(17.0))
        assert schatten_norm(x, math.inf) == pytest.approx(4.0)
        with pytest.raises(InvalidArgument, match="p must be 1, 2 or inf"):
            schatten_norm(x, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="dimensions differ: 2 vs 3"):
            snyder_bound(SpdMatrix.identity(2), SpdMatrix.identity(3), 2)


# --- randomized property suite -------------------------------------------------
#
# Each check_* function runs `trials` randomized trials split over dimensions
# 2, 3, 5 at tolerance 1e-8; the acceptance suite reuses them.

TOL = 1e-8


def _pairs(trials, seed):
    rng = np.random.default_rng(seed)
    for i in range(trials):
        n = DIMS[i % len(DIMS)]
        yield rng, n, rand_spd(rng, n), rand_spd(rng, n)


def check_inversion_invariance(trials=210, seed=10):
    for rng, n, x, y in _pairs(trials, seed):
        xi, yi = SpdMatrix(spd_inverse(x)), SpdMatrix(spd_inverse(y))
        assert abs(thompson(xi, yi) - thompson(x, y)) <= TOL


def check_congruence_invariance(trials=210, seed=11):
    for rng, n, x, y in _pairs(trials, seed):
        while True:
            b = rng.standard_normal((n, n))
            if abs(np.linalg.det(b)) > 1e-6:
                break
        xb, yb = SpdMatrix(b.T @ x.a @ b), SpdMatrix(b.T @ y.a @ b)
        assert abs(thompson(xb, yb) - thompson(x, y)) <= TOL


def check_compression_nonexpansive(trials=210, seed=12):
    for rng, n, x, y in _pairs(trials, seed):
        r = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, r))
        xa, ya = SpdMatrix(a.T @ x.a @ a), SpdMatrix(a.T @ y.a @ a)
        assert thompson(xa, ya) <= thompson(x, y) + TOL


def check_power_contraction(trials=210, seed=13):
    for rng, n, x, y in _pairs(trials, seed):
        d = thompson(x, y)
        for t in (-1.0, -0.5, 0.5, 1.0):
            assert thompson(_power(x, t), _power(y, t)) <= abs(t) * d + TOL


def check_sum_bound(trials=210, seed=14):
    rng = np.random.default_rng(seed)
    for i in range(trials):
        n = DIMS[i % len(DIMS)]
        m = int(rng.integers(2, 5))
        xs = [rand_spd(rng, n) for _ in range(m)]
        ys = [rand_spd(rng, n) for _ in range(m)]
        lhs = thompson(
            SpdMatrix(sum(x.a for x in xs)), SpdMatrix(sum(y.a for y in ys))
        )
        assert lhs <= max(thompson(x, y) for x, y in zip(xs, ys)) + TOL


def check_translation_contraction(trials=210, seed=15):
    for rng, n, x, y in _pairs(trials, seed):
        a = rand_spd(rng, n, shift=0.01)
        alpha = max(x.eigenvalues()[-1], y.eigenvalues()[-1])
        beta = float(a.eigenvalues()[0])
        lhs = thompson(SpdMatrix(x.a + a.a), SpdMatrix(y.a + a.a))
        assert lhs <= alpha / (alpha + beta) * thompson(x, y) + TOL


def check_snyder_inequality(trials=210, seed=16):
    for rng, n, x, y in _pairs(trials, seed):
        for p in (1, 2, math.inf):
            assert _sym_schatten(x.a - y.a, p) <= snyder_bound(x, y, p) + TOL


def check_metric_axioms(trials=210, seed=17):
    rng = np.random.default_rng(seed)
    for i in range(trials):
        n = DIMS[i % len(DIMS)]
        x, y, z = (rand_spd(rng, n) for _ in range(3))
        assert abs(thompson(x, y) - thompson(y, x)) <= 1e-12
        assert thompson(x, x) == 0.0
        assert thompson(x, y) >= 0.0
        assert thompson(x, z) <= thompson(x, y) + thompson(y, z) + TOL


def check_hilbert_scaling(trials=210, seed=18):
    for rng, n, x, y in _pairs(trials, seed):
        base = hilbert(x, y)
        for c in (0.1, 3.0):
            assert abs(hilbert(SpdMatrix(c * x.a), y) - base) <= 1e-10


ALL_METRIC_CHECKS = [
    check_inversion_invariance,
    check_congruence_invariance,
    check_compression_nonexpansive,
    check_power_contraction,
    check_sum_bound,
    check_translation_contraction,
    check_snyder_inequality,
    check_metric_axioms,
    check_hilbert_scaling,
]


@pytest.mark.parametrize("check", ALL_METRIC_CHECKS, ids=lambda f: f.__name__)
def test_metric_properties(check):
    check(trials=210)
