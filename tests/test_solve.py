import functools
import json
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blfix.baseline
import blfix.matcore
import blfix.objective
import blfix.solve
from blfix.baseline import RgdConfig, rgd_step, riem_grad, riem_grad_norm, solve_rgd
from blfix.cli import main
from blfix.cone import thompson
from blfix.datum import BLDatum, gen_holder, gen_random, gen_young, save_datum
from blfix.errors import (BlfixError, CholeskyFailure, ConvergenceFailure, DimensionMismatch, InvalidArgument,
                          StepFailure, ValidationFailed)
from blfix.matcore import SpdMatrix, save_matrix, sym_eig, sym_op_norm
from blfix.objective import eval_F, eval_F_mu, pre_inversion_sum
from blfix.solve import (
    CONVERGED,
    INFEASIBILITY_SUSPECTED,
    MAX_ITER,
    PER_MAP_SOLVE_DPRIME,
    SOLVERS,
    TRACE_LEVELS,
    SolveConfig,
    _Whitened,
    choose_mu,
    contraction_diagnostic,
    solve_fixed_point,
    step_G,
    step_G_mu,
    step_G_tilde,
)

from conftest import (FEASIBLE_SHAPES, dsyevd_failing_on, feasible_datum, rand_spd, young_family,
                      young_family_constant)
from oracle import newton_oracle
from test_datum import bits_gate
from test_witness import feasible_data

YOUNG_XSTAR = SpdMatrix([[1.0, 0.5], [0.5, 1.0]])
YOUNG_TARGET = np.array([[0.5, 0.25], [0.25, 0.5]])


def crafted_infeasible_datum() -> BLDatum:
    """Hard checks pass, but the second axis is starved; no finite fixed point."""
    return BLDatum.from_maps(*bits_gate.CRAFTED)


def common_kernel_datum() -> BLDatum:
    """Hard checks pass, but every map kills e_2, so S is singular from the
    first step on (defect 5(c))."""
    return BLDatum.from_maps(*bits_gate.COMMON_KERNEL)


class TestStepG:
    def test_holder_is_identity_map(self):
        datum = gen_holder(2, 1)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rand_spd(rng, 2)
            assert np.allclose(step_G(datum, x).a, x.a, atol=1e-12)

    def test_young_from_identity(self):
        # hand inversion of (2/3) [[3/2,-1/2],[-1/2,3/2]]
        got = step_G(gen_young(), SpdMatrix.identity(2))
        assert np.allclose(got.a, [[9 / 8, 3 / 8], [3 / 8, 9 / 8]], atol=1e-14)

    def test_young_fixed_point(self):
        got = step_G(gen_young(), YOUNG_XSTAR)
        assert np.allclose(got.a, YOUNG_XSTAR.a, atol=1e-14)


class TestStepGMu:
    def test_tiny_mu_matches_plain(self):
        datum = gen_young()
        x = rand_spd(np.random.default_rng(1), 2)
        a = step_G_mu(datum, x, 1e-14)
        b = step_G(datum, x)
        assert np.allclose(a.a, b.a, atol=1e-10)

    def test_young_explicit(self):
        got = step_G_mu(gen_young(), SpdMatrix.identity(2), 0.1)
        expect = np.linalg.inv(np.array([[1.1, -1 / 3], [-1 / 3, 1.1]]))
        assert np.allclose(got.a, expect, atol=1e-14)
        assert got.a[0, 0] == pytest.approx(1.00101, abs=1e-5)
        assert got.a[0, 1] == pytest.approx(0.30334, abs=1e-5)

    def test_holder_shrinks(self):
        got = step_G_mu(gen_holder(2, 1), SpdMatrix.identity(2), 1.0)
        assert np.allclose(got.a, 0.5 * np.eye(2), atol=1e-14)

    def test_eigenvalues_below_inv_mu(self):
        rng = np.random.default_rng(2)
        for i in range(20):
            datum = feasible_datum(i)
            x = rand_spd(rng, datum.d)
            mu = (0.1, 1.0)[i % 2]
            assert step_G_mu(datum, x, mu).eigenvalues()[-1] < 1.0 / mu

    def test_mu_must_be_positive(self):
        with pytest.raises(InvalidArgument):
            step_G_mu(gen_young(), SpdMatrix.identity(2), 0.0)


class TestStepGTilde:
    def test_holder_unit_trace_fixed(self):
        datum = gen_holder(2, 1)
        x = SpdMatrix([[0.6, 0.1], [0.1, 0.4]])  # trace 1
        assert np.allclose(step_G_tilde(datum, x).a, x.a, atol=1e-12)

    def test_holder_normalizes(self):
        got = step_G_tilde(gen_holder(2, 1), SpdMatrix.identity(2))
        assert np.allclose(got.a, 0.5 * np.eye(2), atol=1e-14)

    def test_young_from_identity(self):
        got = step_G_tilde(gen_young(), SpdMatrix.identity(2))
        assert np.allclose(got.a, [[0.5, 1 / 6], [1 / 6, 0.5]], atol=1e-14)


# Past the feasible shapes (all d' <= 4, the block-diagonal solve): fp-large's
# (30,10,12), a datum at the per-map route's switch and one just below it.
ROUTE_SHAPES = [(30, 10, 12), (PER_MAP_SOLVE_DPRIME + 2, PER_MAP_SOLVE_DPRIME, 4),
                (PER_MAP_SOLVE_DPRIME + 1, PER_MAP_SOLVE_DPRIME - 1, 4)]
KERNEL_CASES = range(len(FEASIBLE_SHAPES) + len(ROUTE_SHAPES))


class TestWhitenedKernel:
    """The kernel's steps, step lengths and F against their direct formulas, at
    a random point x != I of each feasible shape and of each ROUTE_SHAPES
    shape."""

    MU = 0.3

    @staticmethod
    def point(i: int):
        n = len(FEASIBLE_SHAPES)
        datum = feasible_datum(i) if i < n else gen_random(*ROUTE_SHAPES[i - n], seed=0)
        return datum, rand_spd(np.random.default_rng(100 + i), datum.d)

    @pytest.mark.parametrize("i", KERNEL_CASES)
    def test_route_follows_block_size(self, i):
        datum, x = self.point(i)
        assert (_Whitened(datum, x).blocks is None) == (datum.dprime >= PER_MAP_SOLVE_DPRIME)

    @pytest.mark.parametrize("i", KERNEL_CASES)
    def test_steps_match_inverted_sum(self, i):
        datum, x = self.point(i)
        s = pre_inversion_sum(datum, x)
        plain = np.linalg.inv(s)
        expected = (
            (step_G(datum, x), plain),
            (step_G_mu(datum, x, self.MU), np.linalg.inv(s + self.MU * np.eye(datum.d))),
            (step_G_tilde(datum, x), plain / np.trace(plain)),
        )
        for got, want in expected:
            assert np.abs(got.a - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("i", KERNEL_CASES)
    def test_step_length_is_thompson(self, i):
        datum, x = self.point(i)
        for solver in SOLVERS:
            moved = _Whitened(datum, x).evaluate().advance(solver, self.MU)
            assert abs(moved.step_len - thompson(SpdMatrix(moved.t @ moved.t.T), x)) <= 1e-12

    @pytest.mark.parametrize("i", KERNEL_CASES)
    def test_step_bounds_hold_the_step_length(self, i):
        # at three iterates past x, the bracket first, as the exact length
        # pins both its ends; some of them are genuine brackets
        datum, x = self.point(i)
        brackets = 0
        for solver in SOLVERS:
            frame = _Whitened(datum, x)
            for _ in range(3):
                lo, hi = frame.evaluate().advance(solver, self.MU).step_bounds()
                assert lo <= frame.step_len <= hi, solver
                assert frame.step_bounds() == (frame.step_len,) * 2
                brackets += lo < hi
        assert brackets

    def test_summary_run_skips_most_step_eigensolves(self, monkeypatch):
        eigs = TestOneEvaluationPerIterate.count(monkeypatch, "sym_eig", blfix.solve)
        result, _ = solve_fixed_point(gen_random(30, 10, 12, 0), SolveConfig(solver="plain_g"))
        assert result.converged and eigs[0] < result.iterations / 5

    def test_map_steps_make_no_step_eigensolve(self, monkeypatch):
        # only find_witness's one candidate basis, after its WITNESS_STEPS steps
        datum, x = self.point(3)
        eigs = TestOneEvaluationPerIterate.count(monkeypatch, "sym_eig", blfix.solve)
        step_G(datum, x)
        step_G_mu(datum, x, self.MU)
        step_G_tilde(datum, x)
        assert eigs[0] == 0
        assert blfix.solve.find_witness(datum) is None and eigs[0] == 1

    @pytest.mark.parametrize("i", KERNEL_CASES)
    def test_value_and_gradient_match_eval_F(self, i):
        # at x, then at three iterates whose factors are no longer triangular
        datum, x = self.point(i)
        frame = _Whitened(datum, x).evaluate()
        for _ in range(4):
            at = SpdMatrix(frame.t @ frame.t.T)
            ev = eval_F(datum, at)
            assert abs(frame.value - ev.value) <= 1e-12 * max(1.0, abs(ev.value))
            scale = max(np.abs(pre_inversion_sum(datum, at)).max(), 1.0)
            assert np.abs(frame.gradient - ev.gradient).max() <= 1e-12 * scale
            frame = frame.advance("plain_g").evaluate()

    @pytest.mark.parametrize("i", range(len(FEASIBLE_SHAPES) + 2))
    def test_rgd_step_certificate(self, i):
        # solve_rgd's bound: a step of eta = STEP_SIZE lowers F by at least
        # eta * c(eta, d/d') * |S - I|_F^2, with every eigenvalue of S - I in
        # [-1, d/d' - 1]; beyond the feasible shapes, d/d' = 25, and a common
        # kernel, where the eigenvalues reach both ends
        eta = blfix.baseline.STEP_SIZE
        assert eta * math.exp(eta) < 2.0  # c > 0 for every d/d'
        if i < len(FEASIBLE_SHAPES):
            datum = feasible_datum(i)
        elif i == len(FEASIBLE_SHAPES):
            datum = gen_random(25, 1, 30, 0)
        else:
            datum = common_kernel_datum()
        r = datum.d / datum.dprime
        c = min((1.0 - eta) / (1.0 + eta * (r - 1.0)), 1.0 - eta * math.exp(eta) / 2.0)
        for x in (SpdMatrix.identity(datum.d), rand_spd(np.random.default_rng(100 + i), datum.d)):
            lam = sym_eig(_Whitened(datum, x).evaluate().s - np.eye(datum.d))[0]
            assert -1.0 - 1e-12 <= lam[0] and lam[-1] <= r - 1.0 + 1e-12
            change = eval_F(datum, rgd_step(datum, x, eta)).value - eval_F(datum, x).value
            assert change <= -eta * c * float(lam @ lam)

    @pytest.mark.parametrize("i", range(len(FEASIBLE_SHAPES)))
    def test_rgd_step_is_exponential_map(self, i):
        # Exp_X(-eta xi) = X^{1/2} expm(-eta X^{-1/2} xi X^{-1/2}) X^{1/2}
        datum, x = self.point(i)
        frame = _Whitened(datum, x).evaluate()
        xi = riem_grad(datum, x)
        rnorm = riem_grad_norm(x, xi)  # RGD's residual is |S - I|_F
        assert abs(np.linalg.norm(frame.s - np.eye(datum.d)) - rnorm) <= 1e-12 * max(1.0, rnorm)
        vals, v = np.linalg.eigh(x.a)
        root, inv_root = (v * np.sqrt(vals)) @ v.T, (v / np.sqrt(vals)) @ v.T
        for eta in (1e-1, 1e-3):
            moved = _Whitened(datum, x).evaluate()
            moved.descend(eta, moved.s - moved.eye)
            got = moved.t @ moved.t.T
            want = root @ scipy.linalg.expm(-eta * inv_root @ xi @ inv_root) @ root
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert abs(moved.step_len - thompson(SpdMatrix(got), x)) <= 1e-12

    @pytest.mark.parametrize("i", [*range(len(FEASIBLE_SHAPES)), len(FEASIBLE_SHAPES) + 2])
    def test_block_view_holds_the_gram_factors(self, i):
        # the block-diagonal route writes the C_j through an einsum view of
        # `blocks`' diagonal blocks; here at x, then at three iterates past it
        datum, x = self.point(i)
        assert datum.dprime < PER_MAP_SOLVE_DPRIME
        frame = _Whitened(datum, x)
        off = np.kron(1.0 - np.eye(datum.m), np.ones((datum.dprime, datum.dprime))) == 1.0
        for _ in range(4):
            stacked = (frame.maps @ frame.t).reshape(frame.shape)
            want = scipy.linalg.block_diag(*np.linalg.cholesky(stacked @ stacked.transpose(0, 2, 1)))
            frame.evaluate()
            assert np.array_equal(frame.blocks, want) and not np.any(frame.blocks[off])
            frame.advance("plain_g")

    def test_step_factor_is_not_numpy(self, monkeypatch):
        # advance factors S by dpotrf; numpy's cholesky is left to the
        # batched Gram blocks, one stack per evaluated iterate
        datum, ndims, original = feasible_datum(3), [], np.linalg.cholesky
        x0 = SpdMatrix.identity(datum.d)

        def counting(a, *args, **kwargs):
            ndims.append(np.ndim(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        result, trace = solve_fixed_point(datum, SolveConfig(solver="plain_g", x0=x0))
        assert result.converged and result.iterations > 1
        assert ndims == [3] * len(trace.rows)

    @pytest.mark.parametrize("run", ["rgd-summary", "rgd-full", *(f"{s}-full" for s in SOLVERS)])
    def test_no_numpy_reduction_wrappers_per_iteration(self, monkeypatch, run):
        # RGD's step and check, and a full trace row's gradient norm, reduce
        # with ndarray methods, BLAS and the ends of the sorted spectrum, share
        # the run's one identity and scan no matrix for non-finite entries,
        # which the loop's float policy rules out: none of these wrappers runs per iterate
        solver, level = run.rsplit("-", 1)
        calls = {name: TestOneEvaluationPerIterate.count(monkeypatch, name, module)
                 for module, name in ((np.linalg, "norm"), (np, "sum"), (np, "max"), (np, "eye"),
                                      (np, "all"), (np, "isfinite"))}
        counts = []
        for max_iter in (3, 30):
            for c in calls.values():
                c[0] = 0
            if solver == "rgd":
                result, _ = solve_rgd(feasible_datum(4), RgdConfig(max_iter=max_iter, trace=level))
            else:
                result, _ = solve_fixed_point(feasible_datum(4),
                                              SolveConfig(solver=solver, max_iter=max_iter, trace=level))
            assert result.status == MAX_ITER and result.iterations == max_iter
            counts.append({name: c[0] for name, c in calls.items()})
        assert counts[0] == counts[1]

    def test_holder_gradient_norms_are_positive_zero(self):
        # gen_holder(2, 1) is at its optimum from the identity on, and its
        # gradient is exactly zero: every norm of it reads 0.0, never -0.0
        datum = gen_holder(2, 1)
        for solver in SOLVERS + ("rgd",):
            for level in TRACE_LEVELS:
                result, trace = _run_at(level, datum, solver)
                assert result.status == CONVERGED and repr(result.grad_norm) == "0.0", (solver, level)
                if solver in ("plain_g", "normalized", "rgd") and level == "full":
                    assert {repr(v) for v in trace.column("grad_norm")} == {"0.0"}, solver
        assert repr(solve_rgd(datum, RgdConfig())[0].residual) == "0.0"

    @pytest.mark.parametrize("i", range(len(FEASIBLE_SHAPES)))
    def test_start_point_does_not_change_the_constant(self, i):
        datum, x = self.point(i)
        from_x, _ = solve_fixed_point(datum, SolveConfig(x0=x))
        from_identity, _ = solve_fixed_point(datum, SolveConfig())
        assert from_x.status == from_identity.status == CONVERGED
        assert from_x.bl_constant == pytest.approx(from_identity.bl_constant, rel=1e-9)


class TestChooseMu:
    def test_reference_values(self):
        assert choose_mu(1e-6, 1.0, 2) == pytest.approx((5e-7) / (2 * (2 - 2.5e-7)), rel=1e-15)
        assert choose_mu(1e-2, 1.0, 2) == pytest.approx((5e-3) / (2 * (2 - 2.5e-3)), rel=1e-15)

    def test_scales_inversely_in_r(self):
        assert choose_mu(1e-4, 2.0, 3) == choose_mu(1e-4, 1.0, 3) / 2.0

    def test_domain_errors(self):
        with pytest.raises(InvalidArgument):
            choose_mu(8.0, 1.0, 1)  # d <= epsilon/4
        with pytest.raises(InvalidArgument):
            choose_mu(-1.0, 1.0, 2)
        with pytest.raises(InvalidArgument):
            choose_mu(1e-6, 0.0, 2)
        with pytest.raises(InvalidArgument, match="d must be a positive integer"):
            choose_mu(1e-6, 1.0, 0)


class TestContractionDiagnostic:
    def test_equal_points(self):
        lhs, bound = contraction_diagnostic(gen_young(), YOUNG_XSTAR, YOUNG_XSTAR, 0.5)
        assert lhs == 0.0 and bound == 0.0

    def test_mu_zero_bound_is_distance(self):
        x, y = SpdMatrix.identity(2), SpdMatrix(2 * np.eye(2))
        lhs, bound = contraction_diagnostic(gen_young(), x, y, 0.0)
        assert bound == pytest.approx(thompson(x, y))
        assert lhs <= bound + 1e-8

    def test_young_strictly_contracts(self):
        x, y = SpdMatrix.identity(2), SpdMatrix(2 * np.eye(2))
        lhs, bound = contraction_diagnostic(gen_young(), x, y, 0.1)
        assert lhs < math.log(2.0)
        assert lhs <= bound + 1e-8


UNTOUCHED_CALLS = [  # each called as call(datum, x, y), x the start point
    *[pytest.param(lambda d, x, y, s=s: solve_fixed_point(d, SolveConfig(solver=s, x0=x, max_iter=5)),
                   id=f"solve_fixed_point-{s}") for s in SOLVERS],
    pytest.param(lambda d, x, y: solve_rgd(d, RgdConfig(max_iter=5)), id="solve_rgd"),
    pytest.param(lambda d, x, y: step_G(d, x), id="step_G"),
    pytest.param(lambda d, x, y: step_G_mu(d, x, 0.3), id="step_G_mu"),
    pytest.param(lambda d, x, y: step_G_tilde(d, x), id="step_G_tilde"),
    pytest.param(lambda d, x, y: rgd_step(d, x, 0.5), id="rgd_step"),
    pytest.param(lambda d, x, y: contraction_diagnostic(d, x, y, 0.3), id="contraction_diagnostic"),
]


@pytest.mark.parametrize("call", UNTOUCHED_CALLS)
@pytest.mark.parametrize("shape", [FEASIBLE_SHAPES[5], *ROUTE_SHAPES], ids=str)
def test_entry_points_leave_their_inputs_alone(call, shape):
    # the kernel solves in place on its own arrays only: the start point's
    # matrix and factor and the datum's maps keep every byte, on both
    # triangular-solve routes
    datum, rng = gen_random(*shape, seed=0), np.random.default_rng(1)
    x, y = rand_spd(rng, datum.d), rand_spd(rng, datum.d)
    inputs = [x.a, x.chol, y.a, y.chol, *datum.maps]
    before = [a.tobytes() for a in inputs]
    call(datum, x, y)
    assert [a.tobytes() for a in inputs] == before


class TestSolveFixedPoint:
    def test_holder_plain_one_iteration(self):
        res, trace = solve_fixed_point(gen_holder(2, 3), SolveConfig(solver="plain_g"))
        assert res.status == CONVERGED and res.converged
        assert res.iterations == 1
        assert res.bl_constant == pytest.approx(1.0, abs=1e-12)
        assert res.grad_norm <= 1e-12
        assert len(trace.rows) == 2

    def test_young_regularized(self):
        cfg = SolveConfig(solver="regularized", tol=1e-6, epsilon=1e-6)
        res, _ = solve_fixed_point(gen_young(), cfg)
        assert res.status == CONVERGED
        target = math.sqrt(3) / 2
        assert target - 1e-5 <= res.bl_constant <= target * (1 + 1e-6) + 1e-5
        assert res.bl_constant == pytest.approx(target, rel=1e-6)

    def test_young_plain_normalized_iterate(self):
        res, _ = solve_fixed_point(gen_young(), SolveConfig(solver="plain_g"))
        normalized = res.X_star.a / res.X_star.trace()
        assert np.abs(normalized - YOUNG_TARGET).max() <= 1e-8

    def test_rejects_bad_datum(self):
        # all four solvers pass the one gate in the solver loop, so each names
        # the failing hard check
        bad = BLDatum.from_maps([np.eye(2)] * 3, [0.5, 0.5, 0.5])
        runs = [functools.partial(solve_fixed_point, bad, SolveConfig(solver=s)) for s in SOLVERS]
        for run in runs + [functools.partial(solve_rgd, bad, RgdConfig())]:
            with pytest.raises(ValidationFailed, match=r"scaling_ok=False \(residual 1\)"):
                run()

    def test_x0_dimension_checked(self):
        with pytest.raises(DimensionMismatch, match="start point is 3x3, datum has d=2"):
            solve_fixed_point(gen_young(), SolveConfig(x0=SpdMatrix.identity(3)))

    def test_x0_used(self):
        res, _ = solve_fixed_point(
            gen_young(), SolveConfig(solver="plain_g", x0=YOUNG_XSTAR)
        )
        assert res.iterations == 1
        assert np.allclose(res.X_star.a, YOUNG_XSTAR.a, atol=1e-12)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_result_overflow_names_the_iteration(self, solver):
        # the run stops at iteration 1 on its condition number, and the
        # gradient that only the result forms overflows there
        x0 = SpdMatrix(np.diag([1e-320, 1.0]))
        with pytest.raises(StepFailure, match=r"^iteration 1: overflow encountered in matmul$"):
            solve_fixed_point(gen_young(), SolveConfig(solver=solver, x0=x0))

    @pytest.mark.parametrize("solver", SOLVERS + ("rgd",))
    def test_eigensolver_failure_names_the_iteration(self, monkeypatch, solver):
        # the third eigensolve is in the loop, past iterate 0, for every solver
        monkeypatch.setattr(blfix.matcore, "dsyevd", dsyevd_failing_on(3))
        with pytest.raises(ConvergenceFailure, match=r"^iteration \d+: symmetric eigensolver did not"):
            if solver == "rgd":
                solve_rgd(gen_young(), RgdConfig())
            else:
                solve_fixed_point(gen_young(), SolveConfig(solver=solver))

    @pytest.mark.parametrize("mu_override", [None, 1e-8], ids=["adaptive", "mu_override"])
    def test_regularized_reads_r_base_from_the_loop(self, monkeypatch, mu_override):
        # the check computes iterate 0's spectrum before mu, so mu needs no eigensolve of x0
        def refuse(self):
            raise AssertionError("SpdMatrix.eigenvalues called")

        monkeypatch.setattr(SpdMatrix, "eigenvalues", refuse)
        cfg = SolveConfig(solver="regularized", mu_override=mu_override, x0=SpdMatrix(7.0 * np.eye(2)))
        res, trace = solve_fixed_point(gen_young(), cfg)
        assert res.status == CONVERGED
        mu = choose_mu(1e-6, 7.0, 2) if mu_override is None else mu_override
        assert trace.mu_events[0][0] == 0 and trace.mu_events[0][1] == pytest.approx(mu, rel=1e-12)

    def test_mu_override_and_events(self):
        cfg = SolveConfig(solver="regularized", mu_override=0.05, max_iter=50)
        res, trace = solve_fixed_point(gen_young(), cfg)
        assert trace.mu_events == [(0, 0.05)]
        assert res.status in (CONVERGED, MAX_ITER)

    def test_infeasibility_suspected(self):
        res, _ = solve_fixed_point(
            crafted_infeasible_datum(), SolveConfig(solver="plain_g")
        )
        assert res.status == INFEASIBILITY_SUSPECTED
        assert not res.converged

    @pytest.mark.parametrize("solver", ["plain_g", "normalized"])
    def test_singular_step_matrix_names_the_iteration(self, solver):
        # on a common kernel, S from iterate 1 is singular: its factor fails
        with pytest.raises(CholeskyFailure, match=r"^iteration 1: matrix is not positive definite$"):
            solve_fixed_point(common_kernel_datum(), SolveConfig(solver=solver))

    def test_singular_step_matrix(self):
        with pytest.raises(CholeskyFailure, match=r"^matrix is not positive definite$"):
            step_G(common_kernel_datum(), SpdMatrix.identity(2))

    def test_common_kernel_regularized_is_flagged(self):
        # mu T^T T keeps the step's matrix definite, and the iterate blows up
        res, _ = solve_fixed_point(common_kernel_datum(), SolveConfig(solver="regularized"))
        assert res.status == INFEASIBILITY_SUSPECTED and res.iterations == 2

    @pytest.mark.parametrize("solver", ["plain_g", "normalized"])
    @pytest.mark.parametrize("i", range(len(FEASIBLE_SHAPES)))
    def test_roundoff_floor_is_not_flagged(self, i, solver):
        # tol 1e-16 is below roundoff: past the default stop the steps jitter at
        # the floor, up or down, until the cap. A feasible datum must still end
        # as MaxIter (Converged on an exact zero step) with the converged constant.
        datum = feasible_datum(i)
        ref, _ = solve_fixed_point(datum, SolveConfig(solver=solver))
        cfg = SolveConfig(solver=solver, tol=1e-16, max_iter=max(300, ref.iterations + 50))
        res, _ = solve_fixed_point(datum, cfg)
        assert res.status in (CONVERGED, MAX_ITER)
        assert abs(res.bl_constant - ref.bl_constant) <= 1e-12 * ref.bl_constant

    def test_max_iter_status(self):
        cfg = SolveConfig(solver="regularized", tol=1e-13, epsilon=1e-6, max_iter=40)
        res, trace = solve_fixed_point(gen_young(), cfg)
        assert res.status == MAX_ITER
        assert res.iterations == 40
        assert len(trace.rows) == 41

    def test_trace_schema(self):
        res, trace = solve_fixed_point(gen_young(), SolveConfig(solver="plain_g", trace="full"))
        iters = trace.column("iter")
        assert iters == list(range(len(trace.rows)))
        assert math.isnan(trace.rows[0].thompson_step)
        assert trace.rows[-1].thompson_step <= 1e-10
        assert all(r.min_eig > 0 for r in trace.rows)

    def test_trace_csv(self, tmp_path):
        _, trace = solve_fixed_point(gen_young(), SolveConfig(solver="plain_g"))
        path = tmp_path / "trace.csv"
        trace.write_csv(str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,F,F_mu,grad_norm,thompson_step,min_eig,max_eig,time_ns"
        assert len(lines) == len(trace.rows) + 1
        assert lines[1].split(",")[4] == "nan"


class TestSolveConfig:
    @pytest.mark.parametrize("field, value", [
        ("tol", 0.0), ("tol", math.nan), ("tol", math.inf),
        ("max_iter", 0), ("max_iter", -3),
        ("epsilon", -1e-6), ("epsilon", math.nan), ("epsilon", math.inf),
        ("mu_override", 0.0), ("mu_override", math.nan), ("mu_override", math.inf),
        ("trace", "none"), ("trace", "Full"), ("trace", None), ("solver", "bogus"),
    ])
    def test_rejects(self, field, value):
        with pytest.raises(InvalidArgument, match=field):
            SolveConfig(**{field: value})

    def test_tol_defaults(self):
        assert SolveConfig().tol == 1e-10
        assert SolveConfig(solver="normalized").tol == 1e-10
        assert SolveConfig(solver="regularized").tol == 1e-6
        assert SolveConfig(solver="regularized", epsilon=1e-4).tol == 1e-4
        assert SolveConfig(solver="regularized", tol=1e-3).tol == 1e-3

    @pytest.mark.parametrize("i", range(-1, len(FEASIBLE_SHAPES)))
    def test_default_regularized_converges(self, i):
        # the default tol, epsilon, sits above the regularized steps' plateau
        datum = gen_young() if i < 0 else feasible_datum(i)
        res, _ = solve_fixed_point(datum, SolveConfig(solver="regularized"))
        ref, _ = solve_fixed_point(datum, SolveConfig(solver="plain_g"))
        assert res.status == CONVERGED
        assert abs(res.bl_constant - ref.bl_constant) <= 1e-9 * ref.bl_constant


def _run_at(level: str, datum: BLDatum, solver: str, x0: SpdMatrix | None = None):
    if solver == "rgd":
        return solve_rgd(datum, RgdConfig(trace=level))
    return solve_fixed_point(datum, SolveConfig(solver=solver, x0=x0, trace=level))


NAMED_DATA = {"young": gen_young, "holder": lambda: gen_holder(2, 1), "crafted": crafted_infeasible_datum,
              "common-kernel": common_kernel_datum}
# diagonals of x0: X's spectrum at the top of the doubles, and a T^-1 of about
# 1e160, whose row-0 gradient T^-T (S - I) T^-1 overflows
EXTREME_STARTS = {"huge": [1.79e308, 1.79e308], "subnormal": [4e-308, 1e-320]}
ENDINGS = ([pytest.param(c, s, None, id=f"{c}-{s}")
            for c in (*range(len(FEASIBLE_SHAPES)), *NAMED_DATA) for s in SOLVERS + ("rgd",)]
           + [pytest.param("young", s, x0, id=f"young-{s}-x0={x0}") for x0 in EXTREME_STARTS for s in SOLVERS])


class TestTraceLevels:
    """A summary trace computes X's spectrum only where a stop or mu decision
    needs it, on the bound the Thompson steps give; both levels run the same
    iterates. regularized restarts mu on most FEASIBLE_SHAPES and on every
    row of the crafted datum, where the condition test also fires."""

    CASES = (
        [(i, s) for i in range(len(FEASIBLE_SHAPES)) for s in SOLVERS + ("rgd",)]
        + [("crafted", s) for s in SOLVERS]  # RGD overflows there, as F is unbounded below
        + [(c, s) for c in (1e-3, 1e3) for s in SOLVERS + ("rgd",)]
    )

    @staticmethod
    def datum(case) -> BLDatum:
        if case in NAMED_DATA:
            return NAMED_DATA[case]()
        return feasible_datum(case) if isinstance(case, int) else _young_scaled(case)

    @pytest.mark.parametrize("case, solver", CASES, ids=[f"{c}-{s}" for c, s in CASES])
    def test_summary_matches_full(self, monkeypatch, case, solver):
        datum = self.datum(case)
        calls = TestOneEvaluationPerIterate.count(monkeypatch, "spectrum", _Whitened)
        full, full_trace = _run_at("full", datum, solver)
        assert calls[0] == len(full_trace.rows)
        calls[0] = 0
        res, trace = _run_at("summary", datum, solver)
        if case != "crafted":
            assert calls[0] <= len(trace.mu_events) + res.iterations / 10
        assert (res.status, res.iterations, res.F_value, res.residual, res.grad_norm) == (
            full.status, full.iterations, full.F_value, full.residual, full.grad_norm)
        assert res.X_star.a.tobytes() == full.X_star.a.tobytes()
        assert trace.mu_events == full_trace.mu_events
        always = ["F", "F_mu"] + (["grad_norm"] if solver == "rgd" else [])
        for name in trace.HEADER[:-1]:  # all but time_ns
            ours, theirs = np.array(trace.column(name)), np.array(full_trace.column(name))
            if name == "thompson_step":  # a summary row may hold the top of the step's bracket; the last is exact
                margin = blfix.solve._BRACKET_ULPS * datum.d * (1.0 + theirs[1:])
                assert np.isnan(ours[0]) and np.all(ours[1:] >= theirs[1:] - margin) and ours[-1] == theirs[-1]
                continue
            known = np.ones(len(ours), bool) if name in always else ~np.isnan(ours)
            assert np.array_equal(ours[known], theirs[known], equal_nan=True), name
        assert not np.isnan(trace.rows[0].min_eig)

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("i", range(len(FEASIBLE_SHAPES)))
    def test_check_decides_on_the_same_rows(self, monkeypatch, i, solver):
        # the check sees the same step bracket at both levels, so it computes
        # X's spectrum on the same iterates; the loop's own calls fill the rest
        rows, spectrum = [], _Whitened.spectrum

        def spy(x):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "check":
                rows[-1].append(caller.f_locals["k"])
            return spectrum(x)

        monkeypatch.setattr(_Whitened, "spectrum", spy)
        for level in TRACE_LEVELS:
            rows.append([])
            _run_at(level, feasible_datum(i), solver)
        summary, full = rows
        assert summary[0] == 0 and summary == full

    @staticmethod
    def ending(level: str, datum: BLDatum, solver: str, x0: SpdMatrix | None = None) -> tuple:
        """(status, iterations), or (error type, the iteration its message names)."""
        try:
            res, _ = _run_at(level, datum, solver, x0)
        except BlfixError as exc:
            return type(exc).__name__, int(re.match(r"iteration (\d+): ", str(exc))[1])
        return res.status, res.iterations

    @pytest.mark.parametrize("case, solver, start", ENDINGS)
    def test_level_never_changes_how_a_run_ends(self, case, solver, start):
        # no check sees the level, so the extreme starts take one decision path
        # too, where a full row's overflowing gradient norm reads inf
        datum = self.datum(case)
        x0 = SpdMatrix(np.diag(EXTREME_STARTS[start])) if start else None
        assert self.ending("summary", datum, solver, x0) == self.ending("full", datum, solver, x0)

    def test_full_row_gradient_past_the_doubles_reads_inf(self):
        # only the result's gradient ends a run: here row 0's overflows and the
        # run goes on to flag iterate 1, as at the summary level
        x0 = SpdMatrix(np.diag(EXTREME_STARTS["subnormal"]))
        res, trace = _run_at("full", gen_young(), "normalized", x0)
        assert (res.status, res.iterations) == (INFEASIBILITY_SUSPECTED, 1)
        assert trace.rows[0].grad_norm == math.inf and math.isfinite(trace.rows[1].grad_norm)

    FINITE_CASES = [(c, s) for c in (*range(len(FEASIBLE_SHAPES)), "young", "crafted", "common-kernel")
                    for s in SOLVERS + ("rgd",)]

    @pytest.mark.parametrize("case, solver", FINITE_CASES)
    def test_loop_hands_sym_eig_finite_matrices(self, monkeypatch, case, solver):
        # the invariant that lets the loop take norms from sym_eig without
        # sym_op_norm's scan: under the loop's float policy every matrix it
        # hands the eigensolver is finite, at both levels and in runs that
        # fail; the result's grad_norm, and a full row's where mu = 0, is
        # sym_op_norm of the final gradient, bit for bit
        finite, frames, eig, evaluate = [], [], blfix.solve.sym_eig, _Whitened.evaluate

        def checked_eig(s, vectors=True):
            finite.append(bool(np.isfinite(s).all()))
            return eig(s, vectors)

        def kept_evaluate(x):
            frames.append(x)
            return evaluate(x)

        monkeypatch.setattr(blfix.solve, "sym_eig", checked_eig)
        monkeypatch.setattr(_Whitened, "evaluate", kept_evaluate)
        datum = self.datum(case)
        for level in TRACE_LEVELS:
            try:
                res, trace = _run_at(level, datum, solver)
            except BlfixError:  # the common kernel's factor fails; RGD overflows on the crafted datum
                continue
            want = repr(sym_op_norm(frames[-1].gradient))
            assert repr(res.grad_norm) == want, level
            if level == "full" and solver in ("plain_g", "normalized"):
                assert repr(trace.rows[-1].grad_norm) == want
        assert finite and all(finite)

    def test_overflowing_spectrum_reads_inf(self):
        # T T^T overflows a double: hi reads inf instead of ending the run, and lo
        # is 1 / max eig(X^-1), from T^-1, 0.0 where X^-1 overflows too, and inf
        # where X^-1 underflows to zero, as every eigenvalue of X is then past the
        # double range
        for diag, lo in [((1e200, 1e100), 1e200),
                         ((1e200, 1.0), 1.0),  # a lo from T / 2^e would underflow to 0.0 here
                         ((1e200, 1e-200), 0.0),
                         ((1e200, 1e200), math.inf)]:
            x = _Whitened(gen_holder(2, 1), SpdMatrix.identity(2))
            x.t, x.t_inv = np.diag(diag), np.diag([1.0 / v for v in diag])
            with np.errstate(over="raise"):
                assert x.spectrum() == pytest.approx((lo, math.inf), rel=1e-15), diag

    @pytest.mark.parametrize("solver", SOLVERS + ("rgd",))
    @pytest.mark.parametrize("i", range(len(FEASIBLE_SHAPES)))
    def test_steps_bound_the_spectrum(self, i, solver):
        # the invariant the summary level rests on: the Thompson length of a
        # step bounds how far each extreme eigenvalue moves in log scale
        if solver == "rgd":
            _, trace = solve_rgd(feasible_datum(i), RgdConfig(max_iter=300, trace="full"))
        else:
            _, trace = solve_fixed_point(feasible_datum(i), SolveConfig(solver=solver, trace="full"))
        for prev, row in zip(trace.rows, trace.rows[1:]):
            grow = math.exp(row.thompson_step)
            assert row.min_eig >= prev.min_eig / grow * (1.0 - 1e-12)
            assert row.max_eig <= prev.max_eig * grow * (1.0 + 1e-12)


_YOUNG, _I2 = gen_young(), SpdMatrix.identity(2)
SCALAR_ARGUMENTS = [  # (argument, call with that argument set to v)
    pytest.param("epsilon", lambda v: choose_mu(v, 1.0, 2), id="choose_mu-epsilon"),
    pytest.param("r_est", lambda v: choose_mu(1e-6, v, 2), id="choose_mu-r_est"),
    pytest.param("mu", lambda v: step_G_mu(_YOUNG, _I2, v), id="step_G_mu-mu"),
    pytest.param("mu", lambda v: eval_F_mu(_YOUNG, _I2, v), id="eval_F_mu-mu"),
    pytest.param("mu", lambda v: contraction_diagnostic(_YOUNG, _I2, YOUNG_XSTAR, v),
                 id="contraction_diagnostic-mu"),
    pytest.param("eta", lambda v: rgd_step(_YOUNG, _I2, v), id="rgd_step-eta"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name, call", SCALAR_ARGUMENTS)
def test_non_finite_scalar_argument_rejected(name, call, value):
    with pytest.raises(InvalidArgument, match=rf"^{name} must be finite"):
        call(value)


# --- symmetries of the constant ---------------------------------------------------
#
# F = -2 log BL, so L_j -> c L_j adds 2 d log c to the minimum of F and
# L_j -> L_j A adds 2 log |det A|. Each fixed-point map must move by these
# amounts, regularized within its epsilon contract (2 epsilon in F).

SYMMETRY_SHAPES = [i for i, s in enumerate(FEASIBLE_SHAPES) if s[0] <= 6]
SYMMETRY_TOL = {"plain_g": 1e-9, "normalized": 1e-9, "regularized": 2 * SolveConfig().epsilon}


def _fixed_point_F(datum: BLDatum, solver: str = "plain_g") -> float:
    res, _ = solve_fixed_point(datum, SolveConfig(solver=solver))
    assert res.status == CONVERGED
    return res.F_value


def _rgd_F(datum: BLDatum) -> float:
    res, _ = solve_rgd(datum, RgdConfig())
    assert res.status == CONVERGED
    return res.F_value


@functools.cache
def _base_F(i: int) -> float:
    return _fixed_point_F(feasible_datum(i))


def _moved_F(i: int, transform, solve=_fixed_point_F) -> float:
    datum = feasible_datum(i)
    return solve(BLDatum.from_maps([transform(L) for L in datum.maps], datum.weights))


def _basis_change(d: int, seed: int, sv: list) -> tuple[np.ndarray, float]:
    """A d x d matrix with singular values sv[:d], and log |det| of it."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (u * sv[:d]) @ v.T, float(np.sum(np.log(sv[:d])))


def _young_scaled(c: float) -> BLDatum:
    young = gen_young()
    return BLDatum.from_maps([c * L for L in young.maps], young.weights)


class TestSymmetries:
    @settings(max_examples=30, deadline=None)
    @given(solver=st.sampled_from(SOLVERS), i=st.sampled_from(SYMMETRY_SHAPES), log10_c=st.floats(-3.0, 3.0))
    def test_scaling(self, solver, i, log10_c):
        c = 10.0**log10_c
        d = FEASIBLE_SHAPES[i][0]
        moved = _moved_F(i, lambda L: c * L, functools.partial(_fixed_point_F, solver=solver))
        assert abs(moved - (_base_F(i) + 2 * d * math.log(c))) <= SYMMETRY_TOL[solver]

    @settings(max_examples=30, deadline=None)
    @given(
        solver=st.sampled_from(SOLVERS),
        i=st.sampled_from(SYMMETRY_SHAPES),
        seed=st.integers(0, 2**32 - 1),
        sv=st.lists(st.floats(0.25, 4.0), min_size=6, max_size=6),
    )
    def test_change_of_basis(self, solver, i, seed, sv):
        a, log_det_a = _basis_change(FEASIBLE_SHAPES[i][0], seed, sv)
        moved = _moved_F(i, lambda L: L @ a, functools.partial(_fixed_point_F, solver=solver))
        assert abs(moved - (_base_F(i) + 2 * log_det_a)) <= SYMMETRY_TOL[solver]

    # RGD minimizes the same F, so it must move by the same amounts.

    @settings(max_examples=15, deadline=None)
    @given(i=st.sampled_from(SYMMETRY_SHAPES), log10_c=st.floats(-3.0, 3.0))
    def test_rgd_scaling(self, i, log10_c):
        c = 10.0**log10_c
        d = FEASIBLE_SHAPES[i][0]
        assert abs(_moved_F(i, lambda L: c * L, _rgd_F) - (_base_F(i) + 2 * d * math.log(c))) <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(
        i=st.sampled_from(SYMMETRY_SHAPES),
        seed=st.integers(0, 2**32 - 1),
        sv=st.lists(st.floats(0.25, 4.0), min_size=6, max_size=6),
    )
    def test_rgd_change_of_basis(self, i, seed, sv):
        a, log_det_a = _basis_change(FEASIBLE_SHAPES[i][0], seed, sv)
        assert abs(_moved_F(i, lambda L: L @ a, _rgd_F) - (_base_F(i) + 2 * log_det_a)) <= 1e-9

    # A known defect outside the domain above; the xfail must keep failing.

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="cond(X) passes BLOWUP_COND on a feasible datum")
    def test_near_parallel_young(self):
        datum = BLDatum.from_maps([[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1e-9]]], [2 / 3] * 3)
        res, _ = solve_fixed_point(datum, SolveConfig(solver="plain_g"))
        assert res.status == CONVERGED
        assert res.bl_constant == pytest.approx(1e3 * math.sqrt(3) / 2, rel=1e-6)

    @staticmethod
    def assert_young_from(x0: SpdMatrix):
        """Each fixed-point map converges on Young from x0 to sqrt(3)/2, the
        regularized one within its epsilon contract and the others to 1e-12."""
        want = math.sqrt(3) / 2
        for solver in SOLVERS:
            res, _ = solve_fixed_point(gen_young(), SolveConfig(solver=solver, x0=x0))
            rtol = SolveConfig().epsilon if solver == "regularized" else 1e-12
            assert res.status == CONVERGED, (solver, res.status, res.iterations)
            assert abs(res.bl_constant - want) <= rtol * want, (solver, res.bl_constant)

    def test_young_from_x0_at_cond_1e12(self):
        self.assert_young_from(SpdMatrix(np.diag([1e6, 1e-6])))

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="cond(x0) = 1e14 > BLOWUP_COND flags a feasible datum at iteration 1")
    def test_young_from_x0_at_cond_1e14(self):
        self.assert_young_from(SpdMatrix(np.diag([1e7, 1e-7])))

    def test_normalized_from_x0_near_the_top_of_the_double_range(self, capsys, tmp_path):
        # the trace that G~ divides by overflows a double on the first step
        # from this start, so its log comes from T over T's largest |entry|
        top = SpdMatrix(np.diag([1.5e308, 5e307]))
        runs = [solve_fixed_point(gen_young(), SolveConfig(solver="normalized", x0=x0))[0]
                for x0 in (SpdMatrix(np.diag([1.5, 0.5])), top)]
        assert [(r.status, r.iterations) for r in runs] == [(CONVERGED, 35)] * 2
        assert abs(runs[1].F_value - math.log(4 / 3)) <= 1e-13
        young, x0 = str(tmp_path / "young.json"), str(tmp_path / "top.json")
        save_datum(gen_young(), young)
        save_matrix(top, x0)
        assert main(["solve", young, "--solver", "gtilde", "--x0", x0]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["iterations"] == 35

    def test_young_scaled_down(self):
        f = _fixed_point_F(_young_scaled(1e-200))
        assert abs(f - (math.log(4 / 3) + 4 * math.log(1e-200))) <= 1e-9

    def test_young_scaled_up(self):
        f = _fixed_point_F(_young_scaled(1e160))
        assert abs(f - (math.log(4 / 3) + 4 * math.log(1e160))) <= 1e-9


def _all_results(datum: BLDatum) -> dict:
    results = {s: solve_fixed_point(datum, SolveConfig(solver=s))[0] for s in SOLVERS}
    results["rgd"] = solve_rgd(datum, RgdConfig())[0]
    return results


def assert_oracle_agrees(datum: BLDatum, results: dict, tol: float = 1e-13):
    """Each converged fixed-point F is the oracle's, the regularized one within
    its epsilon contract and the others to 1e-11 * max(1, |F|)."""
    want = newton_oracle(datum, tol)[0]
    for name in SOLVERS:
        if results[name].converged:
            bound = SolveConfig().epsilon if name == "regularized" else 1e-11 * max(1.0, abs(want))
            assert abs(results[name].F_value - want) <= bound, (name, results[name].F_value, want)


class TestYoungFamily:
    """Young's maps x, y and x - y at weights (a, b, c), a + b + c = 2, have the
    closed-form constant young_family_constant, in any coordinates. The
    regularized map is held to its epsilon contract, the others to 1e-12, and
    the fixed-point maps to the Newton oracle too."""

    @staticmethod
    def assert_closed_form(datum: BLDatum, want: float):
        results = _all_results(datum)
        for name, res in results.items():
            rtol = SolveConfig().epsilon if name == "regularized" else 1e-12
            assert res.status == CONVERGED, name
            assert abs(res.bl_constant - want) <= rtol * want, (name, res.bl_constant, want)
        assert_oracle_agrees(datum, results)

    @settings(max_examples=8, deadline=None)
    @given(a=st.floats(0.02, 0.99), b=st.floats(0.02, 0.99), seed=st.integers(0, 2**32 - 1))
    def test_solvers_match_the_closed_form(self, a, b, seed):
        weights = (a, b, 2.0 - a - b)
        assume(weights[2] <= 0.99)  # and so >= 0.02
        self.assert_closed_form(young_family(weights, seed=seed), young_family_constant(weights))

    def test_direct_sum_of_ten(self):
        # d' = 10 takes evaluate's per-map route; the constant is the tenth power
        weights = (0.99, 0.505, 0.505)
        datum = young_family(weights, copies=10, seed=1)
        assert (datum.d, datum.dprime) == (20, PER_MAP_SOLVE_DPRIME)
        self.assert_closed_form(datum, young_family_constant(weights) ** 10)

    def test_two_thirds_is_the_young_oracle(self):
        assert young_family_constant((2 / 3,) * 3) == pytest.approx(math.sqrt(3) / 2, rel=1e-15)

    @pytest.mark.parametrize("weights, copies", [
        ((2 / 3,) * 3, 1), ((0.5, 0.75, 0.75), 1), ((0.02, 0.99, 0.99), 1), ((0.99, 0.505, 0.505), 1),
        ((0.999, 0.5005, 0.5005), 1), ((0.9999, 0.50005, 0.50005), 1), ((0.99, 0.505, 0.505), 10)])
    def test_oracle_matches_the_closed_form(self, weights, copies):
        # the oracle shares no code with the solvers, and it reaches the
        # minimum near the polytope's edge, where plain_g ends MaxIter
        want = young_family_constant(weights) ** copies
        assert math.exp(-0.5 * newton_oracle(young_family(weights, copies))[0]) == pytest.approx(want, rel=1e-14)


ORACLE_DATA = feasible_data()
del ORACLE_DATA["near-parallel-young"]  # the oracle stalls there, and every map flags it (xfail above)
COLUMN_SCALED = "random(6,3,4,5)-column*1e6"  # the oracle's |S - I|_F stops near 8e-12 there


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "Cholesky-QR W_j lose orthonormality like eps cond(M_j)^2: regularized converges 1.7e-5 off"
    ))) if name == COLUMN_SCALED else name for name in ORACLE_DATA])
def test_converged_F_matches_the_oracle(name):
    datum = ORACLE_DATA[name]
    results = {s: solve_fixed_point(datum, SolveConfig(solver=s))[0] for s in SOLVERS}
    assert any(res.converged for res in results.values())
    assert_oracle_agrees(datum, results, 1e-10 if name == COLUMN_SCALED else 1e-13)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="Cholesky-QR W_j lose orthonormality like eps cond(M_j)^2")
def test_column_scaled_datum():
    # feasible, and cond X stays near 1200, but one column of a map is scaled by
    # 1e6; every solver must converge to the one F, regularized within 2 epsilon
    results = _all_results(bits_gate.column_scaled_datum())
    want = results["plain_g"].F_value
    for name, res in results.items():
        tol = 2 * SolveConfig().epsilon if name == "regularized" else 1e-10 * max(1.0, abs(want))
        assert res.status == CONVERGED, (name, res.status, res.iterations)
        assert abs(res.F_value - want) <= tol, (name, res.F_value, want)


# --- randomized map properties ---------------------------------------------------

TOL = 1e-8


def check_homogeneity(trials=110, seed=30):
    rng = np.random.default_rng(seed)
    for i in range(trials):
        datum = feasible_datum(i)
        x = rand_spd(rng, datum.d)
        g = step_G(datum, x)
        for alpha in (0.5, 3.0):
            ga = step_G(datum, SpdMatrix(alpha * x.a))
            assert np.abs(ga.a - alpha * g.a).max() <= 1e-9 * max(1.0, alpha * np.abs(g.a).max())


def check_order_preservation(trials=110, seed=31):
    rng = np.random.default_rng(seed)
    for i in range(trials):
        datum = feasible_datum(i)
        x = rand_spd(rng, datum.d)
        y = SpdMatrix(x.a + rand_spd(rng, datum.d, shift=0.05).a)  # y - x is PD
        diff = step_G(datum, y).a - step_G(datum, x).a
        assert np.linalg.eigvalsh(0.5 * (diff + diff.T))[0] >= -1e-9


def check_nonexpansive(trials=110, seed=32):
    rng = np.random.default_rng(seed)
    for i in range(trials):
        datum = feasible_datum(i)
        x, y = rand_spd(rng, datum.d), rand_spd(rng, datum.d)
        assert thompson(step_G(datum, x), step_G(datum, y)) <= thompson(x, y) + TOL


def check_strict_contraction(trials=110, seed=33):
    rng = np.random.default_rng(seed)
    for i in range(trials):
        datum = feasible_datum(i)
        x, y = rand_spd(rng, datum.d), rand_spd(rng, datum.d)
        mu = (1e-3, 0.1, 1.0)[i % 3]
        lhs, bound = contraction_diagnostic(datum, x, y, mu)
        assert lhs <= bound + TOL


def check_lower_bound_weight_sum_one(trials=110, seed=34):
    """With weights summing to one the step preserves lower bounds exactly."""
    rng = np.random.default_rng(seed)
    for i in range(trials):
        d = 2 + i % 5
        m = 2 + i % 4
        maps = [rng.standard_normal((d, d)) for _ in range(m)]
        datum = BLDatum.from_maps(maps, np.full(m, 1.0 / m))
        delta = float(rng.uniform(0.1, 3.0))
        shape = rand_spd(rng, d, shift=0.0)
        x = SpdMatrix(shape.a + delta * np.eye(d))  # lambda_min >= delta
        assert step_G(datum, x).eigenvalues()[0] >= delta - 1e-9


def check_lower_bound_general(trials=110, seed=35):
    """For general weights the preserved floor carries the factor dprime/d."""
    rng = np.random.default_rng(seed)
    for i in range(trials):
        datum = feasible_datum(i)
        delta = float(rng.uniform(0.1, 3.0))
        shape = rand_spd(rng, datum.d, shift=0.0)
        x = SpdMatrix(shape.a + delta * np.eye(datum.d))
        floor = delta * datum.dprime / datum.d
        assert step_G(datum, x).eigenvalues()[0] >= floor - 1e-9


def _plain_run(datum, max_iter=4000, tol=1e-10):
    xs = [SpdMatrix.identity(datum.d)]
    for _ in range(max_iter):
        xs.append(step_G(datum, xs[-1]))
        if thompson(xs[-1], xs[-2]) <= tol:
            break
    return xs


def check_fejer_monotone(runs=6, seed=36):
    for i in range(runs):
        datum = feasible_datum(i)
        xs = _plain_run(datum)
        xstar = xs[-1]
        dists = [thompson(x, xstar) for x in xs]
        for k in range(len(dists) - 1):
            assert dists[k + 1] <= dists[k] + TOL


def _regularized_run(datum, mu, n_steps):
    """Manual regularized run; returns iterates and pre-inversion sum norms."""
    xs = [SpdMatrix.identity(datum.d)]
    snorms = [sym_op_norm(pre_inversion_sum(datum, xs[0]))]
    for _ in range(n_steps):
        xs.append(step_G_mu(datum, xs[-1], mu))
        snorms.append(sym_op_norm(pre_inversion_sum(datum, xs[-1])))
    return xs, snorms


def check_geometric_decay(datum_ids=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), mus=(1e-2, 1e-1),
                          n_steps=220):
    """Per-step contraction toward the final iterate, and its k-th power form.

    gamma is the running max operator norm of the pre-inversion sums up to the
    current iterate, together with the final one.
    """
    for i in datum_ids:
        datum = feasible_datum(i)
        for mu in mus:
            xs, snorms = _regularized_run(datum, mu, n_steps)
            xstar = xs[-1]
            dists = [thompson(x, xstar) for x in xs]
            gamma = snorms[-1]
            for k in range(n_steps - 1):
                gamma = max(gamma, *snorms[: k + 2])
                ratio = gamma / (gamma + mu)
                assert dists[k + 1] <= ratio * dists[k] + 1e-8, (i, mu, k)
                if dists[0] > 0:
                    assert dists[k] <= ratio**k * dists[0] * (1 + 1e-6), (i, mu, k)


def check_asymptotic_regularity(runs=6, seed=37):
    """Trace steps are non-increasing and end below the tolerance; a full
    trace, as a summary row may hold an upper bound on its step."""
    for i in range(runs):
        datum = feasible_datum(i)
        res, trace = solve_fixed_point(datum, SolveConfig(solver="plain_g", trace="full"))
        assert res.converged
        steps = [s for s in trace.column("thompson_step") if not math.isnan(s)]
        for a, b in zip(steps, steps[1:]):
            assert b <= a + 1e-12
        assert steps[-1] <= 1e-10


def check_fixed_point_residual(runs=6):
    for i in range(runs):
        datum = feasible_datum(i)
        res, _ = solve_fixed_point(datum, SolveConfig(solver="plain_g"))
        assert res.converged
        assert res.grad_norm <= 1e-6
        cfg = SolveConfig(solver="regularized", tol=1e-7, epsilon=1e-8)
        res_mu, trace = solve_fixed_point(datum, cfg)
        assert res_mu.converged
        mu = trace.mu_events[-1][1]
        g = eval_F_mu(datum, res_mu.X_star, mu).gradient
        assert sym_op_norm(g) <= 1e-6


def check_normalized_consistency(runs=6):
    """The normalized solver lands on the same ray as the plain one."""
    for i in range(runs):
        datum = feasible_datum(i)
        plain, _ = solve_fixed_point(datum, SolveConfig(solver="plain_g"))
        norm, _ = solve_fixed_point(datum, SolveConfig(solver="normalized"))
        x_tilde = norm.X_star
        assert x_tilde.trace() == pytest.approx(1.0, abs=1e-12)
        rescaled = SpdMatrix(x_tilde.a * plain.X_star.trace())
        g = step_G(datum, rescaled)
        lam = g.trace() / rescaled.trace()
        assert abs(lam - 1.0) <= 1e-6
        assert sym_op_norm(g.a - lam * rescaled.a) <= 1e-6 * rescaled.trace()


ALL_MAP_CHECKS = [
    check_homogeneity,
    check_order_preservation,
    check_nonexpansive,
    check_strict_contraction,
    check_lower_bound_weight_sum_one,
    check_lower_bound_general,
    check_fejer_monotone,
    check_asymptotic_regularity,
    check_fixed_point_residual,
    check_normalized_consistency,
]


@pytest.mark.parametrize(
    "check",
    [c for c in ALL_MAP_CHECKS if c.__name__ not in ("check_fejer_monotone",)],
    ids=lambda f: f.__name__,
)
def test_map_properties(check):
    check()


def test_fejer_monotone():
    check_fejer_monotone()


def test_geometric_decay_small():
    check_geometric_decay(datum_ids=(0, 1), mus=(1e-1,), n_steps=150)


class TestOneEvaluationPerIterate:
    """Every solver evaluates each iterate once, in the whitened kernel, and
    never calls the reference evaluation."""

    @staticmethod
    def count(monkeypatch, name: str, *modules) -> list:
        """Count the calls of `name` made through any of the given modules."""
        calls = [0]
        original = getattr(modules[0], name)

        def counting(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        for module in modules:
            monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("solver", SOLVERS + ("rgd",))
    @pytest.mark.parametrize("datum", [gen_young(), feasible_datum(3)], ids=["young", "random"])
    def test_solver(self, monkeypatch, solver, datum):
        evals = self.count(monkeypatch, "evaluate", _Whitened)
        references = [
            self.count(monkeypatch, "eval_F", blfix.objective, blfix.baseline),
            self.count(monkeypatch, "pushforwards", blfix.objective, blfix.baseline),
            self.count(monkeypatch, "pre_inversion_sum", blfix.objective, blfix.solve),
        ]
        if solver == "rgd":
            result, _ = solve_rgd(datum, RgdConfig())
        else:
            tol = 1e-6 if solver == "regularized" else 1e-10
            result, _ = solve_fixed_point(datum, SolveConfig(solver=solver, tol=tol))
        assert result.iterations > 1
        assert evals[0] == result.iterations + 1
        assert [calls[0] for calls in references] == [0, 0, 0]

    @pytest.mark.parametrize("level", TRACE_LEVELS)
    @pytest.mark.parametrize("solver", SOLVERS + ("rgd",))
    def test_one_iterate_object_per_run(self, monkeypatch, solver, level):
        # the steps move the run's one _Whitened in place
        seen, original = [], _Whitened.evaluate

        def recording(self):
            seen.append(self)
            return original(self)

        monkeypatch.setattr(_Whitened, "evaluate", recording)
        result, _ = _run_at(level, feasible_datum(3), solver)
        assert result.iterations > 1 and len(seen) == result.iterations + 1
        assert all(x is seen[0] for x in seen)
