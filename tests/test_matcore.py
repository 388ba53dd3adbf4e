import json
import math

import numpy as np
import pytest

from blfix.errors import (
    CholeskyFailure,
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

from conftest import rand_spd, rand_sym


class TestConstruction:
    def test_spd_symmetrizes(self):
        x = SpdMatrix([[2.0, 1.0 + 1e-12], [1.0 - 1e-12, 2.0]])
        assert x.a[0, 1] == x.a[1, 0]

    def test_spd_rejects_indefinite(self):
        with pytest.raises(CholeskyFailure):
            SpdMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_spd_rejects_nonsquare(self):
        with pytest.raises(ShapeMismatch):
            SpdMatrix([[1.0, 0.0]])

    def test_spd_rejects_nonfinite(self):
        with pytest.raises(InvalidArgument):
            SpdMatrix([[np.inf, 0.0], [0.0, 1.0]])

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
        rng = np.random.default_rng(2)
        for i in range(30):
            s = rand_sym(rng, 2 + i % 6)
            vals, vecs = sym_eig(s)
            assert np.linalg.norm(vecs.T @ vecs - np.eye(len(s))) <= 1e-10
            assert np.allclose((vecs * vals) @ vecs.T, s, atol=1e-10)
            assert np.all(np.diff(vals) >= 0)


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
