import importlib.util
import itertools
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blfix._util
import blfix.datum
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
from blfix.errors import InvalidArgument, InvalidShape, ParseError, ShapeMismatch, TooLarge

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


def validate_oracle(datum: BLDatum) -> dict:
    """validate() one rank at a time: each coordinate frame eye[:, idx] is
    multiplied into each map separately, and the weighted image dimensions are
    summed as Python floats, in the order of the maps."""
    rtol = blfix.datum.RANK_RTOL
    rank_ok = [int(np.linalg.matrix_rank(L, rtol=rtol)) == datum.dprime for L in datum.maps]
    violations = []
    rng = np.random.default_rng(0)
    eye = np.eye(datum.d)
    for k in range(1, datum.d):
        if math.comb(datum.d, k) <= blfix.datum._COORD_SUBSPACE_CAP:
            index_sets = itertools.combinations(range(datum.d), k)
        else:  # the seed-0 draws in order, each set kept the first time it is drawn
            index_sets = {}  # ordered by first insertion
            while len(index_sets) < blfix.datum._COORD_SUBSPACE_CAP:
                idx = tuple(sorted(int(i) for i in rng.choice(datum.d, size=k, replace=False)))
                index_sets.setdefault(idx)
        for idx in index_sets:
            rhs = 0.0
            for L, w in zip(datum.maps, datum.weights.tolist()):
                rhs += w * int(np.linalg.matrix_rank(L @ eye[:, list(idx)], rtol=rtol))
            if k > rhs + 1e-9:
                violations.append(f"coordinate subspace {idx}: dim {k} > weighted image dims {rhs:.6g}")
    report = validate(datum, subspace_checks=False).to_json_obj()
    accepted = all(rank_ok) and report["scaling_ok"] and report["weight_range_ok"]
    report.update(rank_ok=rank_ok, subspace_heuristic_ok=not violations,
                  sampled_violations=violations, accepted=accepted)
    return report


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
        assert rep.accepted and rep.subspace_heuristic_ok
        assert rep.scaling_residual == 0.0

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
        # the second coordinate axis is crushed by all but the light map
        maps = [[[1.0, 0.0]], [[1.0, 0.0]], [[0.0, 1.0]]]
        d = BLDatum.from_maps(maps, [0.9, 0.9, 0.2])
        rep = validate(d)
        assert rep.accepted  # hard checks still pass
        assert rep.subspace_heuristic_ok is False
        assert any("coordinate" in v for v in rep.sampled_violations)

    def test_violations_are_coordinate_subspaces(self):
        # a generic subspace satisfies the dimension condition whenever the hard
        # checks pass, so only coordinate subspaces are tested, also here where
        # the scaling check fails
        rep = validate(BLDatum.from_maps([[[1.0, 0.0]]], [0.5]))
        assert not rep.accepted and rep.subspace_heuristic_ok is False
        assert rep.sampled_violations == [
            "coordinate subspace (0,): dim 1 > weighted image dims 0.5",
            "coordinate subspace (1,): dim 1 > weighted image dims 0",
        ]

    def test_heuristic_skippable(self):
        rep = validate(gen_young(), subspace_checks=False)
        assert rep.subspace_heuristic_ok is None
        assert rep.accepted

    def test_pool_shapes_feasible(self):
        for i, (d, dp, m) in enumerate(FEASIBLE_SHAPES):
            rep = validate(gen_random(d, dp, m, seed=100 + i))
            assert rep.accepted and rep.subspace_heuristic_ok, (d, dp, m)

    @pytest.mark.filterwarnings("error")  # no overflow or invalid-value warning either
    @pytest.mark.parametrize("chunk", [None, 1, 7, 300])
    def test_batched_matches_loop_oracle(self, monkeypatch, chunk):
        # chunks of 1, 7 and 300 floats cut the stacks at other subspaces than the default
        if chunk is not None:
            monkeypatch.setattr(blfix.datum, "_CHUNK_FLOATS", chunk)
        for i, datum in enumerate(equivalence_data()):
            assert validate(datum).to_json_obj() == validate_oracle(datum), i

    @pytest.mark.parametrize("datum, uniform, calls", [
        (gen_random(10, 5, 8, 0), [True] * 8, 1),  # the hard check only
        (block_datum(6, 3, 4, 0), [False] * 4, 1 + 5),  # and one SVD stack per k
    ], ids=["cli-datum", "block-6-3-4"])
    def test_uniform_maps_skip_the_svd(self, monkeypatch, datum, uniform, calls):
        seen = []
        rank = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda a, **kw: seen.append(a.shape) or rank(a, **kw))
        assert blfix.datum._uniform_maps(datum).tolist() == uniform
        report = validate(datum)
        assert len(seen) == calls and seen[0] == (datum.m, datum.dprime, datum.d)
        monkeypatch.setattr(np.linalg, "matrix_rank", rank)
        assert report.to_json_obj() == validate_oracle(datum)

    def test_uniform_map_has_full_rank_on_every_coordinate_subspace(self):
        # the certificate's claim itself, map by map, also where no violation depends on it
        certified = 0
        for i, datum in enumerate(equivalence_data()):
            for L, uniform in zip(datum.maps, blfix.datum._uniform_maps(datum)):
                certified += bool(uniform)
                for k in range(1, datum.d) if uniform else ():
                    sets = np.array(list(itertools.combinations(range(datum.d), k)))
                    ranks = np.linalg.matrix_rank(L[:, sets].swapaxes(0, 1), rtol=blfix.datum.RANK_RTOL)
                    assert np.all(ranks == min(k, datum.dprime)), (i, k)
        assert certified > 100

    def test_uniform_needs_every_minor(self):
        # one near-dependent column pair, or a zero column, leaves the map to the SVD
        assert blfix.datum._uniform_maps(near_parallel_datum(1e-12)).tolist() == [False, True, True, True]
        datum = gen_random(6, 3, 4, 5)
        zero = BLDatum.from_maps([datum.maps[0] * [1, 1, 1, 0, 1, 1], *datum.maps[1:]], datum.weights)
        assert blfix.datum._uniform_maps(zero).tolist() == [False, True, True, True]
        assert blfix.datum._uniform_maps(gen_young()).tolist() == [False, False, True]

    def test_no_certificate_beyond_the_cap(self, monkeypatch):
        monkeypatch.setattr(blfix.datum, "_COORD_SUBSPACE_CAP", math.comb(10, 5) - 1)
        assert not blfix.datum._uniform_maps(gen_random(10, 5, 8, 0)).any()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", range(1, 9))
    def test_sigma_min_bound_never_exceeds_the_svd(self, n):
        # minors with columns 0 and 1 parallel within 1e-1 ... 1e-16, and zero minors;
        # both sides are computed, so they may differ by rounding, n eps |A|_F
        rng = np.random.default_rng(n)
        a = rng.standard_normal((16, 400, n, n))
        if n > 1:
            a[:, :, :, 0] = a[:, :, :, 1] + 10.0 ** -np.arange(1, 17)[:, None, None] * a[:, :, :, 0]
        a = np.concatenate([a.reshape(-1, n, n), np.zeros((3, n, n))])
        bound = blfix.datum._sigma_min_bounds(a)
        sigma_min = np.linalg.svd(a, compute_uv=False)[:, -1]
        eps = np.finfo(float).eps
        assert np.all(bound <= sigma_min + n * eps * np.linalg.norm(a, axis=(1, 2)))
        assert np.all(bound[-3:] == 0.0) and np.all(bound >= 0.0)

    @pytest.mark.parametrize("subspace_checks", [True, False])
    def test_json_obj_keys_and_types(self, subspace_checks):
        obj = validate(gen_young(), subspace_checks=subspace_checks).to_json_obj()
        assert list(obj) == ["rank_ok", "scaling_ok", "scaling_residual", "weight_range_ok",
                             "subspace_heuristic_ok", "sampled_violations", "accepted"]
        assert [type(v) for v in obj["rank_ok"]] == [bool] * 3
        assert type(obj["scaling_ok"]) is bool and type(obj["weight_range_ok"]) is bool
        assert type(obj["scaling_residual"]) is float and type(obj["accepted"]) is bool
        assert obj["subspace_heuristic_ok"] is (True if subspace_checks else None)
        assert type(obj["sampled_violations"]) is list

    def test_sampled_subspace_labels_are_plain_ints(self, monkeypatch):
        # beyond the cap the index sets come from the generator; their labels must
        # read like the enumerated ones, e.g. "coordinate subspace (3, 5)"
        monkeypatch.setattr(blfix.datum, "_COORD_SUBSPACE_CAP", 5)
        datum = block_datum(6, 3, 4, 0)
        rep = validate(datum)
        assert rep.sampled_violations and rep.sampled_violations == validate(datum).sampled_violations
        label = re.compile(r"coordinate subspace \((\d+, )*\d+,?\): ")
        assert all(label.match(v) for v in rep.sampled_violations)
        # no index set is tested twice; a set's length is its dimension
        sets = [label.match(v).group(0) for v in rep.sampled_violations]
        assert len(sets) == len(set(sets))
        assert rep.to_json_obj() == validate_oracle(datum)


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

        monkeypatch.setattr(blfix._util.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            save_datum(gen_young(), str(tmp_path / "young.json"))
        assert list(tmp_path.iterdir()) == []

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
