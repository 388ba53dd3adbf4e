import math

import numpy as np
import pytest

from blfix.datum import BLDatum, gen_holder, gen_random, gen_young
from blfix.errors import DimensionMismatch, InvalidArgument
from blfix.matcore import SpdMatrix, spd_solve, sym_op_norm
from blfix.objective import (
    GaussianInput,
    bl_constant_from_X,
    bl_value_Z,
    eval_F,
    eval_F_mu,
    pre_inversion_sum,
    pushforwards,
    recover_Z,
)
from blfix.solve import SolveConfig, solve_fixed_point

from conftest import (
    FEASIBLE_SHAPES,
    feasible_datum,
    low_ratio_datum,
    rand_spd,
    rand_spd_box,
    rand_sym,
)

YOUNG_XSTAR = SpdMatrix([[1.0, 0.5], [0.5, 1.0]])


class TestEvalF:
    def test_single_identity_map_vanishes(self):
        datum = gen_holder(2, 1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rand_spd(rng, 2)
            assert eval_F(datum, x).value == pytest.approx(0.0, abs=1e-12)

    def test_young_value_at_identity(self):
        # pushforwards at I are 1, 1, 2, so F = (2/3) log 2
        ev = eval_F(gen_young(), SpdMatrix.identity(2))
        assert ev.value == pytest.approx(2 / 3 * math.log(2.0))
        pf = pushforwards(gen_young(), SpdMatrix.identity(2))
        assert [t.a[0, 0] for t in pf] == [1.0, 1.0, 2.0]

    def test_young_gradient_at_identity(self):
        ev = eval_F(gen_young(), SpdMatrix.identity(2))
        assert np.allclose(ev.gradient, [[0.0, -1 / 3], [-1 / 3, 0.0]], atol=1e-14)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            eval_F(gen_young(), SpdMatrix.identity(3))


class TestEvalFMu:
    def test_mu_zero_identical(self):
        datum = gen_young()
        x = rand_spd(np.random.default_rng(1), 2)
        a, b = eval_F(datum, x), eval_F_mu(datum, x, 0.0)
        assert a.value == b.value
        assert np.array_equal(a.gradient, b.gradient)

    def test_young_with_trace_term(self):
        ev = eval_F_mu(gen_young(), SpdMatrix.identity(2), 0.1)
        assert ev.value == pytest.approx(2 / 3 * math.log(2.0) + 0.2)

    def test_holder_diag(self):
        ev = eval_F_mu(gen_holder(2, 1), SpdMatrix(np.diag([2.0, 3.0])), 1.0)
        assert ev.value == pytest.approx(5.0)
        assert np.allclose(ev.gradient, np.eye(2), atol=1e-12)

    def test_negative_mu_rejected(self):
        with pytest.raises(InvalidArgument):
            eval_F_mu(gen_young(), SpdMatrix.identity(2), -0.1)


class TestBlValueZ:
    def test_holder_identity_blocks(self):
        datum = gen_holder(2, 3)
        z = GaussianInput(tuple(SpdMatrix.identity(2) for _ in range(3)))
        assert bl_value_Z(datum, z) == pytest.approx(1.0)

    def test_holder_scaled_blocks_cancel(self):
        datum = gen_holder(2, 3)
        z = GaussianInput(tuple(SpdMatrix(2 * np.eye(2)) for _ in range(3)))
        assert bl_value_Z(datum, z) == pytest.approx(1.0)

    def test_young_unit_blocks(self):
        # denominator determinant is det((2/3)[[2,-1],[-1,2]]) = 4/3 by hand
        z = GaussianInput(tuple(SpdMatrix([[1.0]]) for _ in range(3)))
        assert bl_value_Z(gen_young(), z) == pytest.approx((4 / 3) ** -0.5)
        assert bl_value_Z(gen_young(), z) == pytest.approx(math.sqrt(3) / 2)

    def test_block_count_checked(self):
        z = GaussianInput((SpdMatrix([[1.0]]),))
        with pytest.raises(DimensionMismatch):
            bl_value_Z(gen_young(), z)

    def test_block_size_checked(self):
        z = GaussianInput((SpdMatrix.identity(2),) * 3)
        with pytest.raises(DimensionMismatch, match="block 0 is 2x2, expected 1"):
            bl_value_Z(gen_young(), z)


class TestRecoverZ:
    def test_holder_identity(self):
        z = recover_Z(gen_holder(2, 1), SpdMatrix.identity(2))
        assert np.allclose(z.blocks[0].a, np.eye(2))

    def test_young_fixed_point(self):
        # all three pushforwards at the minimizer equal 1
        z = recover_Z(gen_young(), YOUNG_XSTAR)
        for b in z.blocks:
            assert b.a[0, 0] == pytest.approx(1.0)

    def test_chained_identity_at_fixed_point(self):
        datum = gen_random(4, 2, 4, 7)
        res, _ = solve_fixed_point(datum, SolveConfig(solver="plain_g"))
        x = res.X_star
        lhs = bl_value_Z(datum, recover_Z(datum, x))
        assert lhs == pytest.approx(math.exp(-0.5 * eval_F(datum, x).value), rel=1e-9)


class TestBlConstant:
    def test_holder_always_one(self):
        rng = np.random.default_rng(2)
        for d, m in [(2, 3), (3, 2), (5, 3)]:
            datum = gen_holder(d, m)
            assert bl_constant_from_X(datum, rand_spd(rng, d)) == pytest.approx(1.0)

    def test_young_fixed_point(self):
        # one-parameter minimization by hand puts the optimum at off-diagonal 1/2
        assert bl_constant_from_X(gen_young(), YOUNG_XSTAR) == pytest.approx(
            math.sqrt(3) / 2
        )

    def test_overflow_is_infinite(self):
        # Holder with d=10 and both maps scaled by 1e-40: the constant is 1e400
        datum = BLDatum.from_maps([1e-40 * np.eye(10)] * 2, [0.5, 0.5])
        assert bl_constant_from_X(datum, SpdMatrix.identity(10)) == math.inf

    def test_consistent_with_recovered_input(self):
        datum = feasible_datum(3)
        res, _ = solve_fixed_point(datum, SolveConfig(solver="plain_g"))
        via_z = bl_value_Z(datum, recover_Z(datum, res.X_star))
        assert via_z == pytest.approx(res.bl_constant, rel=1e-9)


def check_gradient_finite_differences(trials=60, seed=20, h=1e-6):
    """Central differences along random symmetric directions, d <= 6."""
    rng = np.random.default_rng(seed)
    small = [s for s in FEASIBLE_SHAPES if s[0] <= 6]
    for i in range(trials):
        d, dp, m = small[i % len(small)]
        datum = gen_random(d, dp, m, seed=i)
        x = rand_spd(rng, d, shift=0.4)
        hdir = rand_sym(rng, d)
        hdir = hdir / np.linalg.norm(hdir)
        grad = eval_F(datum, x).gradient
        fp = eval_F(datum, SpdMatrix(x.a + h * hdir)).value
        fm = eval_F(datum, SpdMatrix(x.a - h * hdir)).value
        fd = (fp - fm) / (2 * h)
        ip = float(np.sum(grad * hdir))
        assert abs(fd - ip) <= 1e-5 * max(1.0, abs(ip)), (d, dp, m, i, fd, ip)


def test_gradient_finite_differences():
    check_gradient_finite_differences()


class TestScaleInvariance:
    def test_feasible_data_scale_invariant(self):
        rng = np.random.default_rng(21)
        for i in range(20):
            datum = feasible_datum(i)
            x = rand_spd(rng, datum.d)
            f0 = eval_F(datum, x).value
            for alpha in (0.5, 2.0, 10.0):
                fa = eval_F(datum, SpdMatrix(alpha * x.a)).value
                assert abs(fa - f0) <= 1e-9

    def test_exact_linear_residual_when_scaling_fails(self):
        # weights summing to 3/2 leave a log(alpha) * (sum w d' - d) residual
        datum = BLDatum.from_maps([np.eye(2)] * 3, [0.5, 0.5, 0.5])
        rng = np.random.default_rng(22)
        x = rand_spd(rng, 2)
        f0 = eval_F(datum, x).value
        gap = float(np.sum(datum.weights)) * datum.dprime - datum.d
        for alpha in (0.5, 2.0, 10.0):
            fa = eval_F(datum, SpdMatrix(alpha * x.a)).value
            assert fa - f0 == pytest.approx(math.log(alpha) * gap, abs=1e-9)


def check_pinching_bound(trials=120, seed=23):
    """Per-map compression never exceeds the inverse: L^T (L Z L^T)^{-1} L <= Z^{-1}."""
    rng = np.random.default_rng(seed)
    for i in range(trials):
        d = 2 + i % 7
        dp = 1 + int(rng.integers(0, d))
        z = rand_spd(rng, d)
        L = rng.standard_normal((dp, d))
        t = SpdMatrix(L @ z.a @ L.T)
        compressed = L.T @ spd_solve(t, L)
        diff = spd_solve(z, np.eye(d)) + 1e-9 * np.eye(d) - compressed
        assert np.linalg.eigvalsh(0.5 * (diff + diff.T))[0] >= -1e-9


def test_pinching_bound():
    check_pinching_bound()


def check_gradient_lipschitz(trials=120, seed=24, mu=0.1):
    """Difference quotients of the gradient stay below 2/delta on boxes with
    eigenvalues of order one (the window where the constant is valid)."""
    rng = np.random.default_rng(seed)
    for i in range(trials):
        datum = feasible_datum(i)
        delta = rng.uniform(0.5, 2.0)
        width = delta * rng.uniform(1.5, 4.0)
        x = rand_spd_box(rng, datum.d, delta, width)
        y = rand_spd_box(rng, datum.d, delta, width)
        gx = eval_F_mu(datum, x, mu).gradient
        gy = eval_F_mu(datum, y, mu).gradient
        dmin = min(x.eigenvalues()[0], y.eigenvalues()[0])
        assert sym_op_norm(gx - gy) <= (2.0 / dmin) * sym_op_norm(x.a - y.a) + 1e-8


def test_gradient_lipschitz():
    check_gradient_lipschitz()


def check_gradient_norm_bound(trials=120, seed=25):
    """||grad F_mu(X)|| <= 1/delta + mu with delta = lambda_min(X).

    Quantified over data whose weights sum to at most 2 (d <= 2*dprime), where
    the pinching bound makes the stated constant valid; see the general variant
    below for arbitrary shapes.
    """
    rng = np.random.default_rng(seed)
    for i in range(trials):
        datum = low_ratio_datum(i)
        x = rand_spd_box(rng, datum.d, rng.uniform(0.05, 1.0), rng.uniform(1.0, 8.0))
        mu = (0.0, 1e-3, 0.1)[i % 3]
        delta = float(x.eigenvalues()[0])
        assert sym_op_norm(eval_F_mu(datum, x, mu).gradient) <= 1.0 / delta + mu + 1e-8


def test_gradient_norm_bound():
    check_gradient_norm_bound()


def test_gradient_norm_bound_general_shapes():
    # max(1, sum(w) - 1)/delta + mu covers every shape, by the pinching bound
    rng = np.random.default_rng(26)
    for i in range(120):
        datum = feasible_datum(i)
        s = float(np.sum(datum.weights))
        x = rand_spd_box(rng, datum.d, rng.uniform(0.05, 1.0), rng.uniform(1.0, 8.0))
        mu = (0.0, 1e-3, 0.1)[i % 3]
        delta = float(x.eigenvalues()[0])
        bound = max(1.0, s - 1.0) / delta + mu + 1e-8
        assert sym_op_norm(eval_F_mu(datum, x, mu).gradient) <= bound


def test_pre_inversion_sum_symmetry():
    rng = np.random.default_rng(27)
    datum = feasible_datum(5)
    x = rand_spd(rng, datum.d)
    s = pre_inversion_sum(datum, x)
    assert np.array_equal(s, s.T)
