import dataclasses
import math
import warnings

import numpy as np
import pytest

from blfix.baseline import RgdConfig, rgd_step, riem_grad, riem_grad_norm, solve_rgd
from blfix.datum import BLDatum, gen_holder, gen_random, gen_young
from blfix.errors import InvalidArgument, StepFailure
from blfix.matcore import SpdMatrix
from blfix.solve import CONVERGED, SolveConfig, solve_fixed_point

from conftest import rand_spd

YOUNG_XSTAR = SpdMatrix([[1.0, 0.5], [0.5, 1.0]])


class TestRiemGrad:
    def test_holder_zero(self):
        datum = gen_holder(2, 1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rand_spd(rng, 2)
            assert np.abs(riem_grad(datum, x)).max() <= 1e-12

    def test_young_identity_base(self):
        g = riem_grad(gen_young(), SpdMatrix.identity(2))
        assert np.allclose(g, [[0.0, -1 / 3], [-1 / 3, 0.0]], atol=1e-14)

    def test_young_stationary(self):
        g = riem_grad(gen_young(), YOUNG_XSTAR)
        assert np.abs(g).max() <= 1e-9

    def test_norm_matches_trace_form(self):
        rng = np.random.default_rng(1)
        x = rand_spd(rng, 4)
        a = rng.standard_normal((4, 4))
        xi = 0.5 * (a + a.T)
        xinv = np.linalg.inv(x.a)
        expect = math.sqrt(np.trace(xinv @ xi @ xinv @ xi))
        assert riem_grad_norm(x, xi) == pytest.approx(expect, rel=1e-10)


class TestRgdStep:
    def test_zero_gradient_fixed(self):
        datum = gen_holder(2, 1)
        x = SpdMatrix.identity(2)
        assert np.allclose(rgd_step(datum, x, 0.1).a, np.eye(2), atol=1e-12)

    def test_zero_step_unchanged(self):
        datum = gen_young()
        x = SpdMatrix([[2.0, 0.3], [0.3, 1.0]])
        assert np.allclose(rgd_step(datum, x, 0.0).a, x.a, atol=1e-12)

    def test_young_closed_form(self):
        # at the identity the update is exp(0.5/3 on the off-diagonal)
        got = rgd_step(gen_young(), SpdMatrix.identity(2), 0.5)
        c, s = math.cosh(1 / 6), math.sinh(1 / 6)
        assert np.allclose(got.a, [[c, s], [s, c]], atol=1e-12)

    def test_negative_step_rejected(self):
        with pytest.raises(InvalidArgument):
            rgd_step(gen_young(), SpdMatrix.identity(2), -0.1)

    def test_exponential_map_consistency(self):
        # Exp_X(-eta*xi) = X - eta*xi + O(eta^2)
        datum = gen_young()
        x = SpdMatrix([[1.5, 0.2], [0.2, 0.8]])
        xi = riem_grad(datum, x)
        errs = []
        for eta in (1e-3, 1e-4):
            stepped = rgd_step(datum, x, eta).a
            errs.append(np.linalg.norm(stepped - (x.a - eta * xi)))
        assert errs[0] / errs[1] == pytest.approx(100.0, rel=0.2)


class TestRgdConfig:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(RgdConfig)] == ["tol_grad", "max_iter", "trace"]

    @pytest.mark.parametrize("field, value", [
        ("tol_grad", 0.0), ("tol_grad", -1e-8), ("tol_grad", math.nan), ("tol_grad", math.inf),
        ("max_iter", 0), ("max_iter", -3),
        ("trace", "none"), ("trace", "Full"), ("trace", None),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(InvalidArgument, match=field):
            RgdConfig(**{field: value})


class TestSolveRgd:
    def test_holder_converges_immediately(self):
        res, trace = solve_rgd(gen_holder(2, 3), RgdConfig())
        assert res.status == CONVERGED
        assert res.iterations == 0
        assert res.bl_constant == pytest.approx(1.0, abs=1e-12)
        assert len(trace.rows) == 1

    def test_young_reaches_optimum(self):
        res, trace = solve_rgd(gen_young(), RgdConfig())
        assert res.converged
        assert res.F_value == pytest.approx(math.log(4 / 3), abs=1e-6)
        fs = trace.column("F")
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(fs, fs[1:]))

    def test_monotone_descent_random(self):
        res, trace = solve_rgd(gen_random(6, 3, 4, 1), RgdConfig(max_iter=5000))
        fs = trace.column("F")
        # every step provably lowers F; the recorded F carries the roundoff of its terms
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(fs, fs[1:]))

    def test_agreement_with_fixed_point(self):
        for i, (d, dp, m) in enumerate([(2, 1, 3), (3, 2, 4), (4, 2, 4), (5, 3, 4), (6, 3, 5)]):
            datum = gen_random(d, dp, m, seed=i)
            fp, _ = solve_fixed_point(datum, SolveConfig(solver="plain_g", max_iter=20000))
            gd, _ = solve_rgd(datum, RgdConfig(max_iter=20000))
            assert abs(fp.F_value - gd.F_value) <= 1e-5
            assert abs(fp.bl_constant - gd.bl_constant) <= 1e-5 * fp.bl_constant

    def test_trace_grad_column_is_riemannian(self):
        res, trace = solve_rgd(gen_young(), RgdConfig())
        assert trace.rows[-1].grad_norm <= 1e-8
        assert trace.rows[-1].grad_norm == pytest.approx(res.residual)

    def test_no_stall_at_the_noise_floor(self):
        # the fixed step lowers F even where the decrease is far below the
        # roundoff of F, so the descent does not stall there
        res, _ = solve_rgd(gen_random(6, 4, 5, seed=10), RgdConfig())
        assert res.status == CONVERGED

    def test_infeasible_datum_fails_with_iteration(self):
        # F is unbounded below, so the factor grows until it overflows
        datum = BLDatum.from_maps([[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]], [0.9, 0.9, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepFailure, match=r"^iteration \d+: "):
                solve_rgd(datum, RgdConfig())

    def test_ill_conditioned_result_is_returned(self):
        # near-parallel Young, rotated: cond X_star nears 1e18, where the result
        # is read out from the factor because T T^T is no longer definite in doubles
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        maps = [np.array(L) @ rot for L in ([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1e-9]])]
        res, _ = solve_rgd(BLDatum.from_maps(maps, [2 / 3] * 3), RgdConfig())
        assert res.status == CONVERGED
        assert res.bl_constant == pytest.approx(1e3 * math.sqrt(3) / 2, rel=1e-6)
