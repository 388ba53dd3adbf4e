import dataclasses
import importlib.util
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blfix.datum
import blfix.errors
from blfix.datum import (
    BLDatum,
    critical_c,
    datum_from_json_obj,
    datum_to_json_obj,
    gen_holder,
    gen_random,
    gen_young,
    load_datum,
    save_datum,
    validate,
)
from blfix.cli import main
from blfix.errors import InvalidArgument, InvalidShape, ParseError, ShapeMismatch, TooLarge
from blfix.solve import CONVERGED, SolveConfig, find_witness, solve_fixed_point

from conftest import FEASIBLE_SHAPES

# The block data of tools/bits_gate.py, whose battery digests `check` on two of them.
_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "bits_gate.py")
_spec = importlib.util.spec_from_file_location("bits_gate", _PATH)
bits_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bits_gate)
block_datum = bits_gate.block_datum


def subdet_min_max_oracle(datum: BLDatum) -> float:
    """Exhaustive enumeration over bitmask column subsets, independent of the
    combination generator used by critical_c."""
    best_min = math.inf
    for L in datum.maps:
        best = 0.0
        for mask in range(1 << datum.d):
            if mask.bit_count() != datum.dprime:
                continue
            idx = [i for i in range(datum.d) if (mask >> i) & 1]
            best = max(best, abs(float(np.linalg.det(L[:, idx]))))
        best_min = min(best_min, best)
    return best_min


def equivalence_data() -> list:
    crafted = BLDatum.from_maps([[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]], [0.9, 0.9, 0.2])
    c, s = math.cos(0.3), math.sin(0.3)
    base, cli = gen_random(6, 3, 4, 5), gen_random(10, 5, 8, 0)
    data = [gen_random(d, dp, m, seed=100 + i) for i, (d, dp, m) in enumerate(FEASIBLE_SHAPES)]
    return data + [
        cli,
        gen_young(),
        gen_holder(3, 2),
        BLDatum.from_maps([[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 1e-9]]], [2.0 / 3.0] * 3),
        crafted,
        BLDatum.from_maps([L @ np.array([[c, -s], [s, c]]) for L in crafted.maps], crafted.weights),
        BLDatum.from_maps([[[1.0, 0.0]]] * 3, [2.0 / 3.0] * 3),  # a common kernel
        BLDatum.from_maps([np.eye(2)] * 3, [0.5, 0.5, 0.5]),  # bad scaling
        BLDatum.from_maps(base.maps, [0.25] * 4),  # too light: every subspace of dim >= 4 violates
        BLDatum.from_maps([[[1.0, 1.0]], [[1.0, -1.0]]], [1e308, 1e308]),
        BLDatum.from_maps([np.eye(3)] * 2, [-1e308, 1e308]),  # the sum reaches -inf + inf
        BLDatum.from_maps([[[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]], np.ones((3, 2))], [0.5, 0.5]),  # dprime > d
        block_datum(6, 3, 4, 0),
        block_datum(10, 2, 5, 1),
        *(near_parallel_datum(delta) for delta in (1e-8, 1e-10, 1e-12)),
        BLDatum.from_maps([L * [1, 1, 1e6, 1, 1, 1] if j == 0 else L for j, L in enumerate(base.maps)],
                          base.weights),  # one column scaled by 1e6
        *(BLDatum.from_maps([c * L for L in cli.maps], cli.weights) for c in (1e-150, 1e150)),
    ]


def near_parallel_datum(delta: float) -> BLDatum:
    """gen_random(6, 3, 4, 5) with map 0's column 1 parallel to its column 0
    within delta relative: column 1 = column 0 + delta |column 0| u, u a unit
    vector orthogonal to column 0."""
    datum = gen_random(6, 3, 4, 5)
    L = datum.maps[0].copy()
    u = L[:, 2] - L[:, 2] @ L[:, 0] / (L[:, 0] @ L[:, 0]) * L[:, 0]
    L[:, 1] = L[:, 0] + delta * np.linalg.norm(L[:, 0]) * u / np.linalg.norm(u)
    return BLDatum.from_maps([L, *datum.maps[1:]], datum.weights)


class TestValidate:
    def test_holder_passes(self):
        rep = validate(gen_holder(2, 3))
        assert rep.accepted and rep.scaling_residual == 0.0

    def test_holder_bad_scaling(self):
        d = BLDatum.from_maps([np.eye(2)] * 3, [0.5, 0.5, 0.5])
        rep = validate(d)
        assert not rep.scaling_ok
        assert rep.scaling_residual == pytest.approx(1.0)
        assert not rep.accepted

    def test_zero_row_rank_deficient(self):
        maps = [np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]), np.eye(2)]
        rep = validate(BLDatum.from_maps(maps, [1 / 3] * 3))
        assert rep.rank_ok == [True, False, True]
        assert not rep.accepted

    def test_weight_range(self):
        d = BLDatum.from_maps([np.eye(2)] * 2, [0.0, 2.0])
        assert not validate(d).weight_range_ok
        # a single identity map with weight one is the degenerate instance
        # whose constant is 1; it must remain solvable
        assert validate(gen_holder(3, 1)).accepted

    def test_subspace_heuristic_flags_infeasible(self):
        # the second coordinate axis is crushed by all but the light map; the
        # hard checks pass, and the witness search finds the axis
        d = BLDatum.from_maps(*bits_gate.CRAFTED)
        assert validate(d).accepted
        witness = find_witness(d)
        assert witness.weighted_dims == 0.2 and abs(witness.basis[:, 0]).tolist() == [0.0, 1.0]

    def test_heuristic_skippable(self):
        # validate runs the hard checks only; `blfix check` runs the witness search
        rep = validate(gen_young())
        assert [f.name for f in dataclasses.fields(rep)] == ["rank_ok", "scaling_ok", "scaling_residual",
                                                             "weight_range_ok"]
        assert rep.accepted

    @pytest.mark.parametrize("c", [1.3e308, 1.7e308, 5e-324])
    def test_map_norm_beyond_the_double_range(self, c):
        # Young with map 0 = [c, c]: feasible at every scale, where F moves by w_0 d' ln c^2 = (4/3) ln c.
        # |L_0|_2 = c sqrt(2) overflows at the two large c, so both rank tests rank the prescaled maps
        unscaled, datum = (young_variant(maps=[[[a, a]], [[0.0, 1.0]], [[1.0, -1.0]]]) for a in (1.0, c))
        assert validate(datum).accepted and find_witness(datum) is None
        f1 = solve_fixed_point(unscaled, SolveConfig(solver="plain_g"))[0].F_value
        res, _ = solve_fixed_point(datum, SolveConfig(solver="plain_g"))
        assert res.status == CONVERGED
        assert res.F_value == pytest.approx(f1 + 4.0 / 3.0 * math.log(c), rel=1e-12)

    def test_pool_shapes_feasible(self):
        for i, (d, dp, m) in enumerate(FEASIBLE_SHAPES):
            datum = gen_random(d, dp, m, seed=100 + i)
            assert validate(datum).accepted and find_witness(datum) is None, (d, dp, m)

    @pytest.mark.filterwarnings("error")  # validate warns on no overflow or invalid value either
    @pytest.mark.parametrize("chunk", [None, 1, 7, 300])
    def test_batched_matches_loop_oracle(self, monkeypatch, chunk):
        # validate's one stacked rank call against one call per map, and critical_c's
        # chunks of 1, 7 and 300 floats, cut at other minors than the default, against
        # the bitmask enumeration
        if chunk is not None:
            monkeypatch.setattr(blfix.datum, "_CHUNK_FLOATS", chunk)
        for i, datum in enumerate(equivalence_data()):
            rank_ok = [int(np.linalg.matrix_rank(L, rtol=blfix.datum.RANK_RTOL)) == datum.dprime
                       for L in datum.maps]
            assert validate(datum).rank_ok == rank_ok, i
            with np.errstate(over="ignore", under="ignore"):  # the minors of maps scaled by 1e150 overflow
                assert critical_c(datum) == subdet_min_max_oracle(datum), i

    def test_json_obj_keys_and_types(self, capsys, tmp_path):
        # `blfix check` adds the witness search's two fields to validate's report
        save_datum(gen_young(), str(tmp_path / "young.json"))
        assert main(["check", str(tmp_path / "young.json")]) == 0
        obj = json.loads(capsys.readouterr().out)["report"]
        assert list(obj) == ["rank_ok", "scaling_ok", "scaling_residual", "weight_range_ok",
                             "subspace_heuristic_ok", "sampled_violations", "accepted"]
        assert [type(v) for v in obj["rank_ok"]] == [bool] * 3
        assert type(obj["scaling_ok"]) is bool and type(obj["weight_range_ok"]) is bool
        assert type(obj["scaling_residual"]) is float and type(obj["accepted"]) is bool
        assert obj["subspace_heuristic_ok"] is True and obj["sampled_violations"] == []

    def test_sampled_subspace_labels_are_plain_ints(self, capsys, tmp_path):
        # the witness's entry is plain JSON: its dim an int, its basis rows lists of floats
        save_datum(block_datum(6, 3, 4, 0), str(tmp_path / "block.json"))
        assert main(["check", str(tmp_path / "block.json")]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        (entry,) = report["sampled_violations"]
        assert report["subspace_heuristic_ok"] is False and list(entry) == ["dim", "weighted_image_dims", "basis"]
        assert type(entry["dim"]) is int and type(entry["weighted_image_dims"]) is float
        assert len(entry["basis"]) == entry["dim"] and all(len(v) == 6 for v in entry["basis"])
        assert {type(x) for v in entry["basis"] for x in v} == {float}


class TestGenerators:
    def test_holder_basic(self):
        d = gen_holder(2, 3)
        assert d.d == d.dprime == 2 and d.m == 3
        assert all(np.array_equal(L, np.eye(2)) for L in d.maps)
        assert np.allclose(d.weights, 1 / 3)

    def test_holder_scalar(self):
        d = gen_holder(1, 1)
        assert d.maps[0].shape == (1, 1) and d.weights[0] == 1.0

    def test_holder_3_2(self):
        assert validate(gen_holder(3, 2)).accepted  # 3 = (1/2 + 1/2) * 3

    def test_young_fields(self):
        d = gen_young()
        assert (d.d, d.dprime, d.m) == (2, 1, 3)
        assert np.array_equal(d.maps[0], [[1.0, 0.0]])
        assert np.array_equal(d.maps[1], [[0.0, 1.0]])
        assert np.array_equal(d.maps[2], [[1.0, -1.0]])
        assert np.allclose(d.weights, 2 / 3)
        rep = validate(d)
        assert rep.accepted and rep.scaling_residual == 0.0

    def test_young_closed_form_constant(self):
        # product of (1-w)^(1-w)/w^w over the three weights, to the power 1/2
        w = 2 / 3
        c = ((1 - w) ** (1 - w) / w**w) ** 3
        assert c**0.5 == pytest.approx(math.sqrt(3) / 2)

    def test_random_weights_and_rank(self):
        d = gen_random(4, 2, 4, 7)
        assert np.allclose(d.weights, 0.5)
        assert validate(d).accepted
        for L in d.maps:
            s = np.linalg.svd(L, compute_uv=False)
            assert s[-1] > 0

    def test_random_rejects_boundary_weight(self):
        with pytest.raises(InvalidShape):
            gen_random(2, 2, 1, 0)

    def test_random_rejects_dprime_too_large(self):
        with pytest.raises(InvalidShape):
            gen_random(2, 3, 4, 0)

    def test_from_maps_rejects_counts(self):
        with pytest.raises(ShapeMismatch, match="at least one map"):
            BLDatum.from_maps([], [])
        with pytest.raises(ShapeMismatch, match="expected 3 weights"):
            BLDatum.from_maps(gen_young().maps, [1.0])

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)], ids=["no-rows", "no-columns"])
    def test_from_maps_rejects_empty_maps(self, shape):
        # validate and critical_c would divide by dprime, or rank nothing
        with pytest.raises(ShapeMismatch, match="dprime >= 1 rows and d >= 1 columns"):
            BLDatum.from_maps([np.zeros(shape)] * 2, [0.5, 0.5])
        with pytest.raises(ShapeMismatch, match="map 1 has shape"):
            BLDatum.from_maps([np.ones((1, 3)), np.zeros(shape)], [0.5, 0.5])

    def test_maps_are_one_read_only_copy(self):
        raw = np.arange(18.0).reshape(3, 2, 3)
        datum = BLDatum.from_maps(raw, [0.5] * 3)
        assert isinstance(datum.maps, np.ndarray) and datum.maps.shape == (3, 2, 3)
        with pytest.raises(ValueError, match="read-only"):
            datum.maps[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            datum.maps[1][0, 0] = 1.0
        raw[0, 0, 0] = 99.0
        assert np.array_equal(datum.maps, np.arange(18.0).reshape(3, 2, 3))

    def test_random_rejects_negative_seed(self):
        with pytest.raises(InvalidArgument, match="seed"):
            gen_random(4, 2, 4, -1)

    def test_random_deterministic(self):
        assert gen_random(4, 2, 4, 7) == gen_random(4, 2, 4, 7)
        assert gen_random(4, 2, 4, 7) != gen_random(4, 2, 4, 8)

    def test_scaling_condition_exact(self):
        for i, (d, dp, m) in enumerate(FEASIBLE_SHAPES):
            datum = gen_random(d, dp, m, seed=i)
            assert abs(float(np.sum(datum.weights)) * dp - d) <= 1e-12


class TestCriticalC:
    def test_young(self):
        assert critical_c(gen_young()) == pytest.approx(1.0)

    def test_holder(self):
        assert critical_c(gen_holder(2, 3)) == pytest.approx(1.0)

    def test_single_map(self):
        d = BLDatum.from_maps([[[1.0, 2.0], [0.0, 3.0]]], [0.5])
        assert critical_c(d) == pytest.approx(3.0)

    def test_guard(self):
        with pytest.raises(TooLarge):
            critical_c(gen_random(10, 5, 3, 0), limit=10)

    def test_column_permutation_invariant(self):
        rng = np.random.default_rng(8)
        d = gen_random(6, 3, 3, 11)
        perm = rng.permutation(6)
        permuted = BLDatum.from_maps([L[:, perm] for L in d.maps], d.weights)
        assert critical_c(permuted) == critical_c(d)

    def test_matches_bitmask_oracle(self):
        shapes = [(5, 2, 3), (6, 3, 3), (7, 3, 3), (8, 4, 3), (10, 2, 6),
                  (6, 2, 4), (7, 2, 4), (8, 3, 3), (4, 2, 3), (9, 3, 4)]
        for i, (d, dp, m) in enumerate(shapes):
            datum = gen_random(d, dp, m, seed=50 + i)
            assert critical_c(datum, limit=200) == subdet_min_max_oracle(datum)

    @pytest.mark.parametrize("chunk", [1, 7, 50])
    def test_chunked_matches_bitmask_oracle(self, monkeypatch, chunk):
        monkeypatch.setattr(blfix.datum, "_CHUNK_FLOATS", chunk)
        for i, (d, dp, m) in enumerate([(5, 2, 3), (6, 3, 3), (8, 2, 5), (7, 1, 8)]):
            datum = gen_random(d, dp, m, seed=70 + i)
            assert critical_c(datum) == subdet_min_max_oracle(datum)


def young_variant(maps=None, weights=None) -> BLDatum:
    young = gen_young()
    return BLDatum.from_maps(young.maps if maps is None else maps,
                             young.weights if weights is None else weights)


class TestEquality:
    def test_equal_copies(self):
        assert young_variant() == gen_young()

    @pytest.mark.parametrize("other", [
        young_variant(maps=[[[1.0, 0.0]], [[0.0, 1.0]]], weights=[1.0, 1.0]),
        young_variant(maps=[np.eye(2)] * 3),
        young_variant(maps=[[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[1.0, -1.0, 0.0]]]),
        young_variant(weights=[2.0 / 3.0, 2.0 / 3.0, 0.5]),
        young_variant(maps=[[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, -1.5]]]),
        datum_to_json_obj(gen_young()),
    ], ids=["m", "dprime", "d", "weight", "map-entry", "not-a-datum"])
    def test_unequal(self, other):
        assert gen_young() != other and other != gen_young()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "young.json")
        save_datum(gen_young(), path)
        assert load_datum(path) == gen_young()

    def test_round_trip_random(self, tmp_path):
        d = gen_random(5, 3, 4, 3)
        path = str(tmp_path / "r.json")
        save_datum(d, path)
        assert load_datum(path) == d

    def test_wrong_row_count(self, tmp_path):
        obj = datum_to_json_obj(gen_young())
        obj["maps"][1] = [[0.0, 1.0], [1.0, 0.0]]  # 2 rows where dprime is 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(ShapeMismatch):
            load_datum(str(path))

    def test_zero_weight_surfaced_by_validate(self, tmp_path):
        obj = datum_to_json_obj(gen_young())
        obj["weights"][0] = 0.0
        path = tmp_path / "w0.json"
        path.write_text(json.dumps(obj))
        datum = load_datum(str(path))
        assert not validate(datum).weight_range_ok

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"d": 1, "dprime": 1, "m": 1, "weights": [NaN], "maps": [[[1.0]]]}')
        with pytest.raises(ParseError):
            load_datum(str(path))

    def test_failed_rename_leaves_no_file(self, monkeypatch, tmp_path):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(blfix.errors.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            save_datum(gen_young(), str(tmp_path / "young.json"))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_written_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        # as for open(path, "w"): 0666 less the umask, not a temp file's 0600
        path, before = tmp_path / "young.json", os.umask(umask)
        try:
            save_datum(gen_young(), str(path))
        finally:
            os.umask(before)
        assert stat.S_IMODE(path.stat().st_mode) == mode and list(tmp_path.iterdir()) == [path]

    def test_missing_field(self):
        with pytest.raises(ParseError, match="weights"):
            datum_from_json_obj({"d": 1, "dprime": 1, "m": 1, "maps": [[[1.0]]]})

    def test_parse_error_has_line(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"d": 2,\n "dprime":')
        with pytest.raises(ParseError, match="line 2"):
            load_datum(str(path))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=6,
            max_size=6,
        )
    )
    def test_round_trip_exact_on_payload(self, values):
        maps = [np.array(values[:4]).reshape(2, 2), np.array(values[2:]).reshape(2, 2)]
        datum = BLDatum.from_maps(maps, [0.5, 0.5])
        assert datum_from_json_obj(json.loads(json.dumps(datum_to_json_obj(datum)))) == datum
