"""Problem data: m surjective linear maps of shape d'xd plus a weight vector.

Covers construction and validation, generators for the closed-form instances
and for random instances, JSON persistence, and the brute-force subdeterminant
constant.

Storage convention: each map is kept as the d'xd matrix L_j acting on column
vectors, and every quadratic form downstream uses the pushforward
T_j(X) = L_j X L_j^T of a dxd matrix X to a d'xd' matrix.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from ._util import atomic_write_text, read_json
from .errors import InvalidArgument, InvalidShape, ParseError, ShapeMismatch, TooLarge

RANK_RTOL = 1e-10  # matrix_rank's rtol: singular values up to RANK_RTOL * sigma_max count as zero
SCALING_TOL = 1e-10
_SUBSPACE_SLACK = 1e-9
_COORD_SUBSPACE_CAP = 20000  # per dimension; sampled beyond this
_CHUNK_FLOATS = 1 << 20  # matrix entries per stacked LAPACK call; bounds the memory


@dataclass(frozen=True, eq=False)
class BLDatum:
    """m linear maps of shape dprime x d with weights, stored immutably."""

    d: int
    dprime: int
    m: int
    maps: tuple
    weights: np.ndarray

    @classmethod
    def from_maps(cls, maps, weights) -> "BLDatum":
        mats = []
        for j, raw in enumerate(maps):
            a = np.array(raw, dtype=float)
            if a.ndim != 2:
                raise ShapeMismatch(f"map {j} is not a matrix")
            if not np.all(np.isfinite(a)):
                raise ShapeMismatch(f"map {j} has non-finite entries")
            mats.append(a)
        if not mats:
            raise ShapeMismatch("a datum needs at least one map")
        dprime, d = mats[0].shape
        for j, a in enumerate(mats):
            if a.shape != (dprime, d):
                raise ShapeMismatch(f"map {j} has shape {a.shape}, expected {(dprime, d)}")
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != len(mats):
            raise ShapeMismatch(f"expected {len(mats)} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ShapeMismatch("weights must be finite")
        for a in mats:
            a.setflags(write=False)
        w.setflags(write=False)
        return cls(d=d, dprime=dprime, m=len(mats), maps=tuple(mats), weights=w)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BLDatum)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(np.stack(self.maps), np.stack(other.maps))
        )

    def __repr__(self) -> str:
        return f"BLDatum(d={self.d}, dprime={self.dprime}, m={self.m})"


@dataclass
class ValidationReport:
    """Outcome of validate(); a datum is solvable iff the hard checks pass.

    The subspace check is a heuristic over coordinate subspaces: it can exhibit
    violations but never proves feasibility. `subspace_heuristic_ok is None`
    means the heuristic was skipped. The report does not depend on which maps
    the minor certificate in validate() covers: it only skips SVDs whose
    ranks it proves.
    """

    rank_ok: list
    scaling_ok: bool
    scaling_residual: float
    weight_range_ok: bool
    subspace_heuristic_ok: bool | None
    sampled_violations: list = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return bool(all(self.rank_ok) and self.scaling_ok and self.weight_range_ok)

    def to_json_obj(self) -> dict:
        return {**asdict(self), "accepted": self.accepted}


def _sigma_min_bounds(minors: np.ndarray) -> np.ndarray:
    """Guggenheimer-Edelman-Johnson lower bounds on sigma_min of each n x n
    matrix A in a stack, sigma_min(A) >= |det A| ((n-1) / |A|_F^2)^((n-1)/2),
    with |det A| the product of |R_ii| from a batched Householder QR, which is
    backward stable with no growth factor. A zero matrix gets 0, without a warning.
    """
    n = minors.shape[-1]
    r = np.abs(np.linalg.qr(minors, mode="r").diagonal(axis1=1, axis2=2))
    if n == 1:
        return r[:, 0]
    fro = np.linalg.norm(minors, axis=(1, 2))[:, None]
    # |det A| (n-1)^((n-1)/2) / |A|_F^(n-1), one factor per R_ii, so nothing overflows
    rel = np.divide(r * math.sqrt(n - 1), fro, out=np.zeros_like(r), where=fro > 0)
    return fro[:, 0] / math.sqrt(n - 1) * rel.prod(axis=1)


def _uniform_maps(datum: BLDatum) -> np.ndarray:
    """uniform[j]: every dprime x dprime column minor of L_j has its bound above
    2 * RANK_RTOL * |L_j|_F, tested in chunks of minors bounded by _CHUNK_FLOATS.
    No map is uniform when dprime > d or comb(d, dprime) > _COORD_SUBSPACE_CAP.
    """
    uniform = np.zeros(datum.m, dtype=bool)
    if not 0 < math.comb(datum.d, datum.dprime) <= _COORD_SUBSPACE_CAP:
        return uniform
    per_chunk = max(1, _CHUNK_FLOATS // datum.dprime**2)
    for j, L in enumerate(datum.maps):
        a = L / (np.abs(L).max() or 1.0)  # entries in [-1, 1]: no norm over- or underflows
        floor = 2 * RANK_RTOL * np.linalg.norm(a)
        index_sets = itertools.combinations(range(datum.d), datum.dprime)
        chunks = iter(lambda: list(itertools.islice(index_sets, per_chunk)), [])
        uniform[j] = all(np.all(_sigma_min_bounds(a[:, np.array(c)].swapaxes(0, 1)) > floor)
                         for c in chunks)
    return uniform


def validate(datum: BLDatum, *, subspace_checks: bool = True) -> ValidationReport:
    """Validate a datum for solving.

    Hard checks (gate solving): every map has full row rank, weights lie in
    (0, 1], and the dimensions satisfy sum_j w_j * dprime = d within 1e-10.
    The heuristic part tests the dimension condition on the coordinate
    subspaces of each dimension 1..d-1: all of them while there are at most
    _COORD_SUBSPACE_CAP, otherwise that many distinct ones drawn with the
    fixed seed 0, so every run tests the same ones. Generic subspaces are not
    tried: once the hard checks pass, a generic k-dimensional H has
    dim L_j H = min(k, dprime), and sum_j w_j min(k, dprime) >= k. It reports
    only "no violation found", never a proof.

    The images L_j H are ranked by one batched SVD per chunk of subspaces,
    except on a uniform map (_uniform_maps), whose every coordinate image has
    rank min(k, dprime). Proof: let every dprime x dprime column minor of L_j
    have sigma_min > 2 RANK_RTOL |L_j|_F. A column set J with |J| <= dprime
    lies in such a minor, so by interlacing all of L_j[:, J]'s |J| singular
    values exceed it; one with |J| > dprime contains such a minor, so
    sigma_dprime(L_j[:, J]) exceeds it too. Since |L_j|_F >= sigma_1(L_j[:, J]),
    matrix_rank(L_j[:, J], rtol=RANK_RTOL) is min(|J|, dprime); the factor 2
    covers the rounding of the computed bound and singular values, about 1e-15
    relative. The certificate runs only while dprime <= d and comb(d, dprime)
    <= _COORD_SUBSPACE_CAP; other maps, and all maps beyond that, take the SVD.
    """
    maps = np.stack(datum.maps)
    rank_ok = (np.linalg.matrix_rank(maps, rtol=RANK_RTOL) == datum.dprime).tolist()
    weight_range_ok = bool(np.all(datum.weights > 0.0) and np.all(datum.weights <= 1.0))
    with np.errstate(over="ignore"):  # weights near the double limit sum to inf and fail
        residual = abs(float(np.sum(datum.weights) * datum.dprime) - datum.d)
    scaling_ok = residual <= SCALING_TOL

    if not subspace_checks:
        return ValidationReport(rank_ok, scaling_ok, residual, weight_range_ok, None)

    uniform = _uniform_maps(datum)
    ranked = maps[~uniform]
    violations = []
    rng = np.random.default_rng(0)
    for k in range(1, datum.d):
        if math.comb(datum.d, k) <= _COORD_SUBSPACE_CAP:
            index_sets = itertools.combinations(range(datum.d), k)
        else:  # seed-0 draws; a set drawn before for this k is skipped
            seen = set()
            draws = (tuple(sorted(rng.choice(datum.d, size=k, replace=False).tolist()))
                     for _ in itertools.count())
            fresh = (idx for idx in draws if idx not in seen and not seen.add(idx))
            index_sets = itertools.islice(fresh, _COORD_SUBSPACE_CAP)
        per_chunk = max(1, _CHUNK_FLOATS // (datum.m * datum.dprime * k))
        while chunk := list(itertools.islice(index_sets, per_chunk)):
            # ranks[j, i] = dim L_j H_i, for H_i spanned by the coordinates chunk[i];
            # the SVDs run only on the maps that are not uniform
            ranks = np.full((datum.m, len(chunk)), min(k, datum.dprime))
            if len(ranked):
                ranks[~uniform] = np.linalg.matrix_rank(ranked[:, :, np.array(chunk)].swapaxes(1, 2),
                                                        rtol=RANK_RTOL)
            rhs = 0.0
            with np.errstate(over="ignore", invalid="ignore"):  # as Python floats: inf, nan
                for w, r in zip(datum.weights.tolist(), ranks):
                    rhs = rhs + w * r
            for i in np.flatnonzero(k > rhs + _SUBSPACE_SLACK).tolist():
                violations.append(
                    f"coordinate subspace {chunk[i]}: dim {k} > weighted image dims {rhs[i]:.6g}"
                )

    return ValidationReport(
        rank_ok, scaling_ok, residual, weight_range_ok, not violations, violations
    )


# --- generators ---------------------------------------------------------------


def gen_holder(d: int, m: int) -> BLDatum:
    """m identity maps on R^d with uniform weights 1/m."""
    if d < 1 or m < 1:
        raise InvalidShape("need d >= 1 and m >= 1")
    return BLDatum.from_maps([np.eye(d)] * m, np.full(m, 1.0 / m))


def gen_young() -> BLDatum:
    """The three coordinate/difference maps R^2 -> R with weights 2/3 each."""
    maps = [[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, -1.0]]]
    return BLDatum.from_maps(maps, [2.0 / 3.0] * 3)


def gen_random(d: int, dprime: int, m: int, seed: int) -> BLDatum:
    """Random datum with standard normal maps and uniform weights d/(m*dprime).

    Deterministic for a given seed, a nonnegative integer. Weights are chosen so
    the scaling condition holds exactly; any rank-deficient draw is regenerated.
    """
    if seed < 0:
        raise InvalidArgument(f"seed must be a nonnegative integer, got {seed}")
    if d < 1 or dprime < 1 or m < 1:
        raise InvalidShape("need d >= 1, dprime >= 1 and m >= 1")
    if dprime > d:
        raise InvalidShape(f"dprime={dprime} must not exceed d={d}")
    w = d / (m * dprime)
    if not 0.0 < w < 1.0:
        raise InvalidShape(f"uniform weight d/(m*dprime) = {w:g} is outside (0, 1)")
    rng = np.random.default_rng(seed)
    maps = []
    for _ in range(m):
        while True:
            L = rng.standard_normal((dprime, d))
            if np.linalg.matrix_rank(L, rtol=RANK_RTOL) == dprime:
                break
        maps.append(L)
    return BLDatum.from_maps(maps, np.full(m, w))


# --- subdeterminant constant ----------------------------------------------------


def critical_c(datum: BLDatum, limit: int = 10**6) -> float:
    """min over maps of the largest |det| over all dprime x dprime column minors.

    Pure brute force over column index sets, one batched det per chunk of them;
    guarded by comb(d, dprime) <= limit.
    """
    n_sets = math.comb(datum.d, datum.dprime)
    if n_sets > limit:
        raise TooLarge(f"comb({datum.d},{datum.dprime}) = {n_sets} exceeds limit {limit}")
    per_chunk = max(1, _CHUNK_FLOATS // datum.dprime**2)
    best_per_map = []
    for L in datum.maps:
        best, index_sets = 0.0, itertools.combinations(range(datum.d), datum.dprime)
        while chunk := list(itertools.islice(index_sets, per_chunk)):
            dets = np.abs(np.linalg.det(L[:, np.array(chunk)].swapaxes(0, 1)))
            best = max(best, float(np.fmax.reduce(dets)))  # a NaN minor is skipped, as by max()
        best_per_map.append(best)
    return min(best_per_map)


# --- JSON persistence -----------------------------------------------------------
#
# {"d": int, "dprime": int, "m": int, "weights": [...], "maps": [[[row]...]...]}


def datum_to_json_obj(datum: BLDatum) -> dict:
    return {
        "d": datum.d,
        "dprime": datum.dprime,
        "m": datum.m,
        "weights": [float(w) for w in datum.weights],
        "maps": [[[float(v) for v in row] for row in L] for L in datum.maps],
    }


def datum_from_json_obj(obj) -> BLDatum:
    if not isinstance(obj, dict):
        raise ParseError("datum file must contain a JSON object")
    for key in ("d", "dprime", "m", "weights", "maps"):
        if key not in obj:
            raise ParseError(f'missing field "{key}"')
    d, dprime, m = obj["d"], obj["dprime"], obj["m"]
    for key, val in (("d", d), ("dprime", dprime), ("m", m)):
        if not isinstance(val, int) or val < 1:
            raise ParseError(f'field "{key}" must be a positive integer')
    if not isinstance(obj["maps"], list) or len(obj["maps"]) != m:
        raise ShapeMismatch(f'field "maps" must list {m} matrices')
    if not isinstance(obj["weights"], list) or len(obj["weights"]) != m:
        raise ShapeMismatch(f'field "weights" must list {m} numbers')
    datum = BLDatum.from_maps(obj["maps"], obj["weights"])
    if datum.d != d or datum.dprime != dprime:
        raise ShapeMismatch(
            f"declared shape ({dprime}x{d}) does not match maps "
            f"({datum.dprime}x{datum.d})"
        )
    return datum


def save_datum(datum: BLDatum, path: str) -> None:
    atomic_write_text(path, json.dumps(datum_to_json_obj(datum), allow_nan=False) + "\n")


def load_datum(path: str) -> BLDatum:
    return read_json(path, datum_from_json_obj)
