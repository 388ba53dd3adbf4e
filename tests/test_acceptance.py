"""Acceptance suite: one test per criterion, each printing a PASS line with its
runtime. Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from blfix.baseline import RgdConfig, solve_rgd
from blfix.cone import thompson
from blfix.datum import BLDatum, critical_c, gen_holder, gen_random, gen_young
from blfix.errors import ValidationFailed
from blfix.matcore import SpdMatrix, spd_inverse, sym_op_norm
from blfix.objective import recover_Z
from blfix.solve import (
    CONVERGED,
    INFEASIBILITY_SUSPECTED,
    SolveConfig,
    solve_fixed_point,
)

from test_cone import ALL_METRIC_CHECKS
from test_datum import subdet_min_max_oracle
from test_objective import (
    check_gradient_finite_differences,
    check_gradient_lipschitz,
    check_gradient_norm_bound,
    check_pinching_bound,
)
from test_solve import (
    check_geometric_decay,
    check_homogeneity,
    check_lower_bound_general,
    check_lower_bound_weight_sum_one,
    check_nonexpansive,
    check_order_preservation,
    check_strict_contraction,
    crafted_infeasible_datum,
)

YOUNG_TARGET = np.array([[0.5, 0.25], [0.25, 0.5]])
SQRT3_OVER_2 = math.sqrt(3.0) / 2.0


def _report(num: int, name: str, elapsed: float) -> None:
    print(f"\nacceptance {num:2d} ({name}): PASS [{elapsed:.2f}s]")


def _linear_fit_r2(x, y) -> float:
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    a = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    resid = y - a @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - float(np.sum(resid**2)) / ss_tot


def test_criterion_01_holder_oracle():
    solve_fixed_point(gen_holder(2, 3), SolveConfig(solver="plain_g"))  # warm up
    t_total = time.perf_counter()
    for d in (1, 2, 5):
        for m in (1, 3):
            datum = gen_holder(d, m)
            for solver in ("plain_g", "regularized", "normalized", "rgd"):
                t0 = time.perf_counter()
                if solver == "rgd":
                    res, _ = solve_rgd(datum, RgdConfig())
                else:
                    # the regularized map has no fixed point on this degenerate
                    # family; cap the iterations, the constant is exact anyway
                    res, _ = solve_fixed_point(
                        datum, SolveConfig(solver=solver, max_iter=50)
                    )
                elapsed = time.perf_counter() - t0
                assert abs(res.bl_constant - 1.0) <= 1e-9, (d, m, solver)
                assert elapsed < 0.1, (d, m, solver, elapsed)
                if solver == "plain_g":
                    assert res.converged and res.iterations <= 1
    _report(1, "Holder oracle, every solver", time.perf_counter() - t_total)


def test_criterion_02_sharp_young_oracle():
    t0 = time.perf_counter()
    datum = gen_young()

    cfg = SolveConfig(solver="regularized", tol=1e-6, epsilon=1e-6)
    gmu, _ = solve_fixed_point(datum, cfg)
    assert gmu.status == CONVERGED
    assert abs(gmu.bl_constant - SQRT3_OVER_2) <= 1e-6 * SQRT3_OVER_2
    norm_gmu = gmu.X_star.a / gmu.X_star.trace()
    assert np.abs(norm_gmu - YOUNG_TARGET).max() <= 1e-6

    rgd, _ = solve_rgd(datum, RgdConfig())
    assert rgd.converged
    assert abs(rgd.bl_constant - SQRT3_OVER_2) <= 1e-6 * SQRT3_OVER_2
    norm_rgd = rgd.X_star.a / rgd.X_star.trace()
    assert np.abs(norm_rgd - YOUNG_TARGET).max() <= 1e-6

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, "Sharp Young oracle, gmu + rgd", elapsed)


FIXED_POINT_PAIRS = [
    (2, 1, 3, 0), (2, 1, 3, 1), (3, 2, 4, 1), (4, 2, 4, 0), (4, 3, 5, 0),
    (4, 3, 5, 1), (5, 2, 6, 0), (5, 2, 6, 1), (5, 3, 4, 0), (5, 3, 4, 1),
    (6, 3, 4, 0), (6, 3, 5, 0), (6, 4, 5, 1), (7, 3, 5, 0), (7, 3, 5, 1),
    (8, 4, 6, 0), (8, 4, 6, 1), (8, 2, 10, 0), (8, 2, 10, 1), (6, 2, 7, 0),
]


def test_criterion_03_fixed_point_certificate():
    t0 = time.perf_counter()
    for d, dp, m, seed in FIXED_POINT_PAIRS:
        datum = gen_random(d, dp, m, seed)
        res, _ = solve_fixed_point(datum, SolveConfig(solver="plain_g"))
        assert res.converged, (d, dp, m, seed)
        assert res.grad_norm <= 1e-6, (d, dp, m, seed, res.grad_norm)
        # the recovered input must reproduce the stationarity identity: with
        # X_thm built from Z, each block inverse equals the X_thm pushforward
        z = recover_Z(datum, res.X_star)
        x_thm = np.zeros((d, d))
        for w, L, b in zip(datum.weights, datum.maps, z.blocks):
            x_thm += w * (L.T @ b.a @ L)
        x_thm_inv = spd_inverse(SpdMatrix(x_thm))
        for L, b in zip(datum.maps, z.blocks):
            lhs = spd_inverse(b)
            rhs = L @ x_thm_inv @ L.T
            assert sym_op_norm(lhs - rhs) <= 1e-6, (d, dp, m, seed)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(3, "fixed-point certificate on 20 random data", elapsed)


def test_criterion_04_contraction_rate():
    t0 = time.perf_counter()
    check_geometric_decay(datum_ids=tuple(range(10)), mus=(1e-2, 1e-1), n_steps=220)
    _report(4, "contraction rate, per-step and k-th power", time.perf_counter() - t0)


def test_criterion_05_metric_property_suite():
    t0 = time.perf_counter()
    for check in ALL_METRIC_CHECKS:
        check(trials=210)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(5, "metric property suite, 9 x 210 trials", elapsed)


def test_criterion_06_map_property_suite():
    t0 = time.perf_counter()
    check_homogeneity(trials=110)
    check_order_preservation(trials=110)
    check_nonexpansive(trials=110)
    check_strict_contraction(trials=110)
    check_lower_bound_weight_sum_one(trials=110)
    check_lower_bound_general(trials=110)
    check_pinching_bound(trials=120)
    check_gradient_norm_bound(trials=120)
    check_gradient_lipschitz(trials=120)
    _report(6, "map property suite", time.perf_counter() - t0)


def test_criterion_07_gradient_correctness():
    t0 = time.perf_counter()
    check_gradient_finite_differences(trials=60)
    _report(7, "finite-difference gradient check, 60 triples", time.perf_counter() - t0)


def test_criterion_08_benchmark_gmu_vs_rgd():
    t0 = time.perf_counter()
    for seed in range(5):
        datum = gen_random(10, 5, 8, seed)
        # full traces: the fit reads exact step lengths, where a summary row may hold an upper bound
        cfg = SolveConfig(solver="regularized", tol=1e-8, epsilon=1e-9, max_iter=20000, trace="full")
        gmu, gtrace = solve_fixed_point(datum, cfg)
        rgd, _ = solve_rgd(datum, RgdConfig(tol_grad=1e-8, max_iter=20000, trace="full"))
        assert gmu.converged and rgd.converged, seed
        assert gmu.iterations < rgd.iterations, (seed, gmu.iterations, rgd.iterations)
        assert abs(gmu.F_value - rgd.F_value) <= 1e-5, seed

        steps = [s for s in gtrace.column("thompson_step") if not math.isnan(s)]
        tail = steps[-30:]
        r2 = _linear_fit_r2(range(len(tail)), np.log(tail))
        assert r2 >= 0.95, (seed, r2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, "benchmark: gmu beats rgd, geometric decay", elapsed)


def test_criterion_09_iterations_scale_with_digits():
    t0 = time.perf_counter()
    datum = gen_random(6, 3, 4, 1)
    epsilons = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]
    iters = []
    for eps in epsilons:
        cfg = SolveConfig(solver="regularized", tol=eps, epsilon=eps, max_iter=20000)
        res, _ = solve_fixed_point(datum, cfg)
        assert res.converged, eps
        iters.append(res.iterations)
    digits = [math.log10(1.0 / e) for e in epsilons]
    r2 = _linear_fit_r2(digits, iters)
    assert r2 >= 0.9, (iters, r2)
    _report(9, f"iterations linear in accuracy digits (R2={r2:.4f})",
            time.perf_counter() - t0)


def test_criterion_10_infeasibility_signaling():
    t0 = time.perf_counter()
    # scaling violation stops at validation
    bad_scaling = BLDatum.from_maps([np.eye(2)] * 3, [0.5, 0.5, 0.5])
    with pytest.raises(ValidationFailed):
        solve_fixed_point(bad_scaling, SolveConfig(solver="plain_g"))
    # rank-deficient map stops at validation
    rank_def = BLDatum.from_maps(
        [np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]])], [0.5, 0.5]
    )
    with pytest.raises(ValidationFailed):
        solve_fixed_point(rank_def, SolveConfig(solver="plain_g"))
    # a starved direction blows up the condition number instead of returning
    # a silently wrong constant
    res, _ = solve_fixed_point(crafted_infeasible_datum(), SolveConfig(solver="plain_g"))
    assert res.status == INFEASIBILITY_SUSPECTED
    _report(10, "infeasibility signaling", time.perf_counter() - t0)


def test_criterion_11_critical_c_brute_force():
    t0 = time.perf_counter()
    shapes = [(5, 2, 3), (6, 3, 3), (7, 3, 3), (8, 4, 3), (10, 2, 6),
              (6, 2, 4), (7, 2, 4), (8, 3, 3), (4, 2, 3), (9, 3, 4)]
    for i, (d, dp, m) in enumerate(shapes):
        assert math.comb(d, dp) <= 100
        datum = gen_random(d, dp, m, seed=400 + i)
        assert critical_c(datum, limit=200) == subdet_min_max_oracle(datum)
    _report(11, "subdeterminant constant vs exhaustive oracle", time.perf_counter() - t0)
