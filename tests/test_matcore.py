import json
import math

import numpy as np
import pytest
import scipy.linalg

import blfix.matcore
from blfix.baseline import riem_grad_norm
from blfix.cli import main
from blfix.cone import hilbert, snyder_bound, thompson
from blfix.datum import gen_young
from blfix.errors import (
    CholeskyFailure,
    ConvergenceFailure,
    DimensionMismatch,
    InvalidArgument,
    ParseError,
    ShapeMismatch,
)
from blfix.matcore import (
    SpdMatrix,
    load_matrix,
    log_det,
    matrix_from_json_obj,
    max_gen_eig,
    save_matrix,
    spd_inverse,
    spd_solve,
    sym_eig,
    sym_op_norm,
)

from blfix.objective import eval_F, recover_Z
from blfix.solve import contraction_diagnostic

from conftest import rand_spd, rand_sym


class TestConstruction:
    def test_spd_symmetrizes(self):
        x = SpdMatrix([[2.0, 1.0 + 1e-12], [1.0 - 1e-12, 2.0]])
        assert x.a[0, 1] == x.a[1, 0]

    @pytest.mark.filterwarnings("error")
    def test_symmetrize_near_the_largest_double(self):
        # (A + A^T)/2 would overflow to inf here; A/2 + A^T/2 stays exact
        a = np.diag([9e307, 1.0])
        assert np.array_equal(SpdMatrix(a).a, a)
        assert np.array_equal(SpdMatrix._from_factor(np.sqrt(a)).a, np.sqrt(a) @ np.sqrt(a))
        x = SpdMatrix(np.diag([1e308, 1.0]))
        assert thompson(x, x) == 0.0
        assert thompson(x, SpdMatrix.identity(2)) == 709.1962086421661

    def test_spd_rejects_indefinite(self):
        with pytest.raises(CholeskyFailure):
            SpdMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_spd_rejects_nonsquare(self):
        with pytest.raises(ShapeMismatch):
            SpdMatrix([[1.0, 0.0]])

    def test_spd_rejects_nonfinite(self):
        with pytest.raises(InvalidArgument):
            SpdMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_from_factor_matches_construction(self):
        t = np.random.default_rng(7).standard_normal((5, 5))
        x, y = SpdMatrix._from_factor(t), SpdMatrix(t @ t.T)
        assert np.array_equal(x.a, y.a)
        assert np.allclose(x.chol, y.chol, rtol=0.0, atol=1e-12)
        assert not x.a.flags.writeable and not x.chol.flags.writeable

    def test_from_factor_rejects_singular(self):
        with pytest.raises(CholeskyFailure):
            SpdMatrix._from_factor(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_immutable(self):
        x = SpdMatrix.identity(3)
        with pytest.raises(ValueError):
            x.a[0, 0] = 5.0


class TestLogDet:
    def test_identity(self):
        assert log_det(SpdMatrix.identity(3)) == 0.0

    def test_diagonal(self):
        assert log_det(SpdMatrix(np.diag([2.0, 3.0]))) == pytest.approx(math.log(6.0))

    def test_two_by_two(self):
        # det [[2,1],[1,2]] = 2*2 - 1*1 = 3
        assert log_det(SpdMatrix([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(math.log(3.0))

    def test_inverse_cancels(self):
        rng = np.random.default_rng(0)
        for i in range(50):
            x = rand_spd(rng, 2 + i % 5)
            inv = SpdMatrix(spd_inverse(x))
            assert abs(log_det(x) + log_det(inv)) <= 1e-9


class TestSpdSolve:
    def test_identity_solve(self):
        b = np.arange(6.0).reshape(2, 3)
        assert np.allclose(spd_solve(SpdMatrix.identity(2), b), b)

    def test_diagonal_inverse(self):
        x = SpdMatrix(np.diag([2.0, 4.0]))
        assert np.allclose(spd_solve(x, np.eye(2)), np.diag([0.5, 0.25]))

    def test_adjugate_two_by_two(self):
        # [[2,1],[1,2]]^{-1} = (1/3) [[2,-1],[-1,2]]
        x = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        expect = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.allclose(spd_solve(x, np.eye(2)), expect, atol=1e-14)

    def test_residual(self):
        rng = np.random.default_rng(1)
        for i in range(30):
            x = rand_spd(rng, 3 + i % 6)
            b = rng.standard_normal((x.n, 2))
            s = spd_solve(x, b)
            assert np.linalg.norm(x.a @ s - b) <= 1e-10 * max(1.0, np.linalg.norm(b))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            spd_solve(SpdMatrix.identity(2), np.eye(3))


class TestSymEig:
    def test_identity(self):
        vals, _ = sym_eig(np.eye(2))
        assert np.allclose(vals, [1.0, 1.0])

    def test_sorted_ascending(self):
        vals, _ = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(vals, [1.0, 3.0])

    def test_off_diagonal(self):
        # characteristic polynomial of [[0,-1/3],[-1/3,0]] gives +-1/3
        vals, _ = sym_eig(np.array([[0.0, -1 / 3], [-1 / 3, 0.0]]))
        assert np.allclose(vals, [-1 / 3, 1 / 3])

    def test_orthonormal_and_reconstructs(self):
        # against numpy's eigh, which runs the same LAPACK routine through its own wrapper
        rng = np.random.default_rng(2)
        for i in range(60):
            n = 1 + i % 12
            s = rand_sym(rng, n)
            vals, vecs = sym_eig(s)
            want = np.linalg.eigvalsh(s)
            assert np.abs(vals - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(vecs.T @ vecs - np.eye(n)).max() <= 1e-12
            assert np.abs((vecs * vals) @ vecs.T - s).max() <= 1e-12 * np.abs(s).max()
            assert np.all(np.diff(vals) >= 0)

    def test_lapack_failure_raises(self, monkeypatch):
        def failing(a, compute_v, lower):
            n = len(a)
            return np.zeros(n), np.eye(n), 1

        monkeypatch.setattr(blfix.matcore, "dsyevd", failing)
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            sym_eig(np.eye(3))


class TestMaxGenEig:
    def test_same_matrix(self):
        x = SpdMatrix([[2.0, 1.0], [1.0, 2.0]])
        assert max_gen_eig(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_scalar_multiple(self):
        assert max_gen_eig(SpdMatrix(2 * np.eye(3)), SpdMatrix.identity(3)) == pytest.approx(2.0)

    def test_commuting_diagonals(self):
        # elementwise ratios 1/2 and 4, so the smallest dominating lam is 4
        x = SpdMatrix(np.diag([1.0, 4.0]))
        y = SpdMatrix(np.diag([2.0, 1.0]))
        assert max_gen_eig(x, y) == pytest.approx(4.0)

    def test_scaling_invariant(self):
        rng = np.random.default_rng(3)
        for i in range(40):
            x = rand_spd(rng, 2 + i % 5)
            assert abs(max_gen_eig(x, x) - 1.0) <= 1e-12
            for alpha in (0.5, 2.0, 10.0):
                ax = SpdMatrix(alpha * x.a)
                assert abs(max_gen_eig(ax, x) - alpha) <= 1e-10 * alpha

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            max_gen_eig(SpdMatrix.identity(2), SpdMatrix.identity(3))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_quotient_outside_the_doubles(self, n):
        # 1e300 I / 1e-300 I overflows to inf (nan in the off-diagonals), and the
        # reverse quotient underflows to 0; neither is a usable eigenvalue
        big, small = SpdMatrix(1e300 * np.eye(n)), SpdMatrix(1e-300 * np.eye(n))
        for x, y in ((big, small), (small, big)):
            with pytest.raises(InvalidArgument, match="leaves the doubles"):
                max_gen_eig(x, y)
        assert max_gen_eig(big, SpdMatrix(1e-7 * np.eye(n))) == pytest.approx(1e307)


class TestOpNorm:
    def test_matches_eigs(self):
        assert sym_op_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0)


class TestMatrixJson:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rand_spd(rng, 4)
        path = str(tmp_path / "x.json")
        save_matrix(x, path)
        y = load_matrix(path)
        assert np.array_equal(x.a, y.a)

    def test_asymmetric_rejected(self):
        obj = {"n": 2, "data": [[1.0, 0.5], [0.4, 1.0]]}
        with pytest.raises(ParseError):
            matrix_from_json_obj(obj)

    def test_mild_asymmetry_symmetrized(self):
        obj = {"n": 2, "data": [[1.0, 0.5 + 4e-9], [0.5 - 4e-9, 1.0]]}
        x = matrix_from_json_obj(obj)
        assert x.a[0, 1] == x.a[1, 0]

    def test_asymmetry_relative_to_the_largest_entry(self):
        # one ulp of asymmetry at scale 1e10 is 2e-6 absolute
        x = matrix_from_json_obj({"n": 2, "data": [[2e10, 1e10], [1e10 + 2e-6, 2e10]]})
        assert x.a[0, 1] == x.a[1, 0]

    @pytest.mark.filterwarnings("error")
    def test_asymmetry_near_the_largest_double(self):
        obj = {"n": 2, "data": [[1.0, 1.5e308], [-1.5e308, 1.0]]}  # a - a.T overflows
        with pytest.raises(ParseError, match="asymmetric"):
            matrix_from_json_obj(obj)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "data": [[NaN]]}')
        with pytest.raises(ParseError):
            load_matrix(str(path))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ShapeMismatch):
            matrix_from_json_obj({"n": 2, "data": [[1.0, 0.0]]})

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2, "data": [[1.0,')
        with pytest.raises(ParseError, match="line"):
            load_matrix(str(path))


# --- the LAPACK route the BLAS triangular solves replaced, kept as an oracle ---


def _congruence_oracle(chol, a):
    w = scipy.linalg.solve_triangular(chol, a, lower=True, check_finite=False)
    return scipy.linalg.solve_triangular(chol, w.T, lower=True, check_finite=False)


def max_gen_eig_oracle(x, y) -> float:
    w = _congruence_oracle(y.chol, x.a)
    return float(np.linalg.eigvalsh(0.5 * (w + w.T))[-1])


def riem_grad_norm_oracle(x, xi) -> float:
    return float(np.linalg.norm(_congruence_oracle(x.chol, xi)))


def spd_solve_oracle(x, b):
    return scipy.linalg.cho_solve((x.chol, True), b, check_finite=False)


def spd_inverse_oracle(x):
    inv = spd_solve_oracle(x, np.eye(x.n))
    return 0.5 * (inv + inv.T)


class TestTriangularSolveRoute:
    """spd_solve and spd_inverse make the two solves LAPACK's dpotrs makes, so
    they keep its bits at every size. The congruence L^{-1} A L^{-T} keeps
    dtrtrs's bits from n = 2 on; at n = 1, BLAS multiplies by the reciprocal of
    the diagonal where dtrtrs divides, a few ulp apart."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_matches_the_lapack_oracle(self, n):
        rng = np.random.default_rng(1000 + n)
        for rep in range(6):
            a = rng.standard_normal((n, n))
            y = SpdMatrix._from_factor(a) if rep % 2 else rand_spd(rng, n)
            x, xi = rand_spd(rng, n), rand_sym(rng, n)
            b, v = rng.standard_normal((n, 3)), rng.standard_normal(n)
            assert np.array_equal(spd_solve(y, b), spd_solve_oracle(y, b))
            assert np.array_equal(spd_solve(y, v), spd_solve_oracle(y, v))
            assert spd_solve(y, v).shape == (n,)
            assert np.array_equal(spd_inverse(y), spd_inverse_oracle(y))
            pairs = [(max_gen_eig(x, y), max_gen_eig_oracle(x, y)),
                     (riem_grad_norm(y, xi), riem_grad_norm_oracle(y, xi))]
            for got, want in pairs:
                if n == 1:
                    assert abs(got - want) <= 4 * np.spacing(want)
                else:
                    assert got == want

    def test_no_lapack_triangular_solve(self, monkeypatch, capsys, tmp_path):
        def boom(*args, **kwargs):
            raise AssertionError("the LAPACK triangular solve was reached")

        monkeypatch.setattr(scipy.linalg, "solve_triangular", boom)
        monkeypatch.setattr(scipy.linalg, "cho_solve", boom)
        monkeypatch.setattr(scipy.linalg.lapack, "dtrtrs", boom)
        rng = np.random.default_rng(9)
        x, y = rand_spd(rng, 2), rand_spd(rng, 2)
        datum = gen_young()
        thompson(x, y)
        hilbert(x, y)
        snyder_bound(x, y, 2)
        contraction_diagnostic(datum, x, y, 0.1)
        riem_grad_norm(x, rand_sym(rng, 2))
        spd_solve(x, np.eye(2))
        spd_inverse(x)
        eval_F(datum, x)
        recover_Z(datum, x)
        paths = [str(tmp_path / "x.json"), str(tmp_path / "y.json")]
        save_matrix(rand_spd(rng, 8), paths[0])
        save_matrix(rand_spd(rng, 8), paths[1])
        assert main(["metric", "thompson", *paths]) == 0
        assert float(capsys.readouterr().out) > 0.0
