"""The witness search that `blfix check` runs (blfix.solve.find_witness).

Every witness that `check` prints is re-verified here from its printed basis,
and feasible data must show none, in any coordinates."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blfix.cli import main
from blfix.datum import RANK_RTOL, BLDatum, gen_holder, gen_random, gen_young, save_datum
from blfix.errors import CholeskyFailure
from blfix.matcore import SpdMatrix
from blfix.solve import WITNESS_SLACK, WITNESS_STEPS, WITNESS_TESTS, _Whitened, _widest_violation, find_witness

from conftest import FEASIBLE_SHAPES, orthogonal, rotated, young_family
from test_datum import bits_gate, block_datum, near_parallel_datum


def weighted_image_dims(datum: BLDatum, basis: np.ndarray) -> float:
    """sum_j w_j rank(L_j H), one map at a time, each rank counting the singular
    values of L_j H above RANK_RTOL * |L_j|_2."""
    total = 0.0
    for L, w in zip(datum.maps, datum.weights.tolist()):
        sv = np.linalg.svd(L @ basis, compute_uv=False)
        total += w * int(np.count_nonzero(sv > RANK_RTOL * np.linalg.norm(L, 2)))
    return total


def check_report(datum: BLDatum) -> tuple[int, dict]:
    """`blfix check` on the datum: its exit code and its report."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "datum.json")
        save_datum(datum, path)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", path])
    assert err.getvalue() == ""
    return code, json.loads(out.getvalue())["report"]


def assert_printed_witness(datum: BLDatum, report: dict):
    assert report["accepted"] is True and report["subspace_heuristic_ok"] is False
    (entry,) = report["sampled_violations"]
    h = np.array(entry["basis"]).T
    assert h.shape == (datum.d, entry["dim"])
    assert np.abs(h.T @ h - np.eye(entry["dim"])).max() <= 1e-14
    assert weighted_image_dims(datum, h) == pytest.approx(entry["weighted_image_dims"], rel=1e-15)
    assert entry["dim"] > entry["weighted_image_dims"] + WITNESS_SLACK


def _crafted() -> BLDatum:
    return BLDatum.from_maps(*bits_gate.CRAFTED)


def _turned(datum: BLDatum, theta: float) -> BLDatum:
    c, s = math.cos(theta), math.sin(theta)
    return BLDatum.from_maps([L @ np.array([[c, -s], [s, c]]) for L in datum.maps], datum.weights)


def blind_datum() -> BLDatum:
    """R^6 -> R^3: maps 1 and 2 are blind to the last three coordinates, map 3
    is generic, weights (0.9, 0.9, 0.2): dim 3 > 0.2 * 3 there."""
    rng = np.random.default_rng(0)
    maps = [np.hstack([rng.standard_normal((3, 3)), np.zeros((3, 3))]) for _ in range(2)]
    return BLDatum.from_maps([*maps, rng.standard_normal((3, 6))], [0.9, 0.9, 0.2])


def seen_line_datum() -> BLDatum:
    """R^3 -> R^2: maps 1 and 2 are blind to a line, maps 3 and 4 see it, weights
    (0.72, 0.72, 0.03, 0.03): dim 1 > 0.06 there. The iterates blow up along
    the line so fast that the Gram factor of map 3, whose two rows both see
    it, fails at step 13, between the tests after steps 4 and 16."""
    rng = np.random.default_rng(0)
    a = orthogonal(rng, 3)
    maps = [rng.standard_normal((2, 2)) @ a[:, 1:].T for _ in range(2)]
    return BLDatum.from_maps([*maps, *(rng.standard_normal((2, 3)) for _ in range(2))], [0.72, 0.72, 0.03, 0.03])


INFEASIBLE = {
    "crafted": _crafted,
    "crafted-0.3rad": lambda: _turned(_crafted(), 0.3),
    "block(6,3,4,0)": lambda: block_datum(6, 3, 4, 0),
    "block(6,3,4,0)-rotated": lambda: rotated(block_datum(6, 3, 4, 0), 1),
    "block(10,2,5,1)": lambda: block_datum(10, 2, 5, 1),
    "block(10,2,5,1)-rotated": lambda: rotated(block_datum(10, 2, 5, 1), 2),
    "common-kernel": lambda: BLDatum.from_maps(*bits_gate.COMMON_KERNEL),
    "blind-3d-rotated": lambda: rotated(blind_datum(), 3),
    "seen-line": seen_line_datum,
}


def feasible_data() -> dict:
    """Feasible data that the search must never flag."""
    data = {f"shape{s}#{100 + i}": gen_random(*s, seed=100 + i) for i, s in enumerate(FEASIBLE_SHAPES)}
    data.update({f"shape{s}#{i}": gen_random(*s, seed=i) for i, s in enumerate(FEASIBLE_SHAPES)})
    data.update({f"near-parallel-{delta:g}": near_parallel_datum(delta) for delta in (1e-8, 1e-10, 1e-12)})
    data["near-dependent"] = bits_gate.near_dependent_datum()
    data["random(10,5,8)"] = gen_random(10, 5, 8, 0)
    data.update({f"random(10,5,8)*{c:g}": BLDatum.from_maps(c * data["random(10,5,8)"].maps, [0.25] * 8)
                 for c in (1e-150, 1e150)})
    base = gen_random(6, 3, 4, 5)
    data["random(6,3,4,5)-column*1e6"] = BLDatum.from_maps([base.maps[0] * [1, 1, 1e6, 1, 1, 1], *base.maps[1:]],
                                                           base.weights)
    data["near-parallel-young"] = BLDatum.from_maps([[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1e-9]]], [2 / 3] * 3)
    data["loomis-whitney"] = BLDatum.from_maps([np.eye(3)[[0, 1]], np.eye(3)[[0, 2]], np.eye(3)[[1, 2]]], [0.5] * 3)
    data["holder(3,2)"] = gen_holder(3, 2)
    data["young"] = gen_young()
    for weights in ((0.99, 0.505, 0.505), (0.02, 0.99, 0.99), (0.5, 0.75, 0.75)):
        data[f"young{weights}"] = young_family(weights)
    data["young(0.99, 0.505, 0.505)x10"] = young_family((0.99, 0.505, 0.505), copies=10)
    return data


class TestCheckPrintsWitness:
    @pytest.mark.parametrize("name", INFEASIBLE)
    def test_rejects_with_a_verified_witness(self, name):
        datum = INFEASIBLE[name]()
        code, report = check_report(datum)
        assert code == 0  # the hard checks pass; check exits 1 only when they fail
        assert_printed_witness(datum, report)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_crafted_in_any_coordinates(self, seed):
        datum = rotated(_crafted(), seed)
        assert_printed_witness(datum, check_report(datum)[1])

    def test_blind_subspace_is_the_witness(self):
        # the widest violation: all of the blind 3-d subspace, dim 3 > 0.2 * 3
        witness = find_witness(rotated(blind_datum(), 3))
        assert witness.basis.shape == (6, 3) and witness.weighted_dims == pytest.approx(0.6, rel=1e-15)

    def test_failing_gram_factor_tests_x_as_it_stands(self):
        # the premise of seen_line_datum: no test step reaches the witness before
        # map 3's Gram factor fails; the search then tests X where it stopped
        x = _Whitened(seen_line_datum(), SpdMatrix.identity(3))
        for k in range(1, WITNESS_STEPS + 1):
            try:
                x.evaluate()
            except CholeskyFailure:
                break
            x.advance("normalized")
        assert WITNESS_TESTS[0] < k < WITNESS_TESTS[-1]
        assert find_witness(seen_line_datum()).basis.shape == (3, 1)


class TestCheckFlagsNoFeasibleDatum:
    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_no_witness(self, seed):
        for name, datum in feasible_data().items():
            if seed is not None:
                datum = rotated(datum, seed)
            assert find_witness(datum) is None, name

    @pytest.mark.parametrize("name", ["random(10,5,8)", "near-parallel-young", "loomis-whitney",
                                      "young(0.99, 0.505, 0.505)"])
    def test_check_reads_true(self, name):
        code, report = check_report(rotated(feasible_data()[name], 4))
        assert code == 0 and report["subspace_heuristic_ok"] is True and report["sampled_violations"] == []

    @pytest.mark.parametrize("maps, weights", [
        ([np.eye(2)] * 3, [0.5, 0.5, 0.5]),  # bad scaling
        ([[[1.0, 0.0]]], [0.5]),  # bad scaling, and a kernel
        ([[[1.0, 0.0], [2.0, 0.0]], np.eye(2)], [0.5, 0.5]),  # rank
        ([np.eye(2)] * 2, [0.0, 2.0]),  # weight range
    ], ids=["scaling", "scaling-kernel", "rank", "weights"])
    def test_rejected_datum_prints_null(self, maps, weights):
        code, report = check_report(BLDatum.from_maps(maps, weights))
        assert code == 1 and report["accepted"] is False
        assert report["subspace_heuristic_ok"] is None and report["sampled_violations"] is None


class TestWidestViolation:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(sorted(INFEASIBLE)))
    def test_batched_ranks_match_a_loop(self, seed, name):
        # bases whose first 0..dim H columns span the start of a witness H and whose
        # other columns are random; every span is ranked one map at a time and compared
        datum = INFEASIBLE[name]()
        rng = np.random.default_rng(seed)
        witness = find_witness(datum).basis
        keep = int(rng.integers(0, witness.shape[1] + 1))
        basis = np.linalg.qr(np.hstack([witness[:, :keep], rng.standard_normal((datum.d, datum.d - keep))]))[0]
        unit = datum.maps / np.array([np.linalg.norm(L, 2) for L in datum.maps])[:, None, None]
        found = _widest_violation(unit, datum.weights, basis)
        gaps = [r - weighted_image_dims(datum, basis[:, :r]) for r in range(1, datum.d + 1)]
        r = int(np.argmax(gaps)) + 1
        if gaps[r - 1] > WITNESS_SLACK:
            assert found.basis.shape[1] == r and found.weighted_dims == pytest.approx(r - gaps[r - 1], rel=1e-15)
        else:
            assert found is None
