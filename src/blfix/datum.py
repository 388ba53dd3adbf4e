"""Problem data: m surjective linear maps of shape d'xd plus a weight vector.

Covers construction and validation, generators for the closed-form instances
and for random instances, JSON persistence, and the brute-force subdeterminant
constant.

Storage convention: the maps are one read-only (m, d', d) array of the d'xd
matrices L_j acting on column vectors, and every quadratic form downstream
uses the pushforward T_j(X) = L_j X L_j^T of a dxd matrix X to a d'xd' matrix.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, InvalidShape, ParseError, ShapeMismatch, TooLarge, atomic_write_text, read_json

RANK_RTOL = 1e-10  # of L_j and of its images L_j H, singular values up to RANK_RTOL * |L_j|_2 count as zero
SCALING_TOL = 1e-10
_MINOR_ENTRIES = 1 << 22  # critical_c's bound on its minors' entries: 32 MiB, about 0.1 s on a 2-core Xeon VM


@dataclass(frozen=True, eq=False)
class BLDatum:
    """m linear maps of shape dprime x d, copied into one read-only (m, dprime, d) array, with weights."""

    d: int
    dprime: int
    m: int
    maps: np.ndarray
    weights: np.ndarray

    @classmethod
    def from_maps(cls, maps, weights) -> "BLDatum":
        mats = []
        for j, raw in enumerate(maps):
            a = np.asarray(raw, dtype=float)
            if a.ndim != 2:
                raise ShapeMismatch(f"map {j} is not a matrix")
            if not np.isfinite(a).all():
                raise ShapeMismatch(f"map {j} has non-finite entries")
            mats.append(a)
        if not mats or 0 in mats[0].shape:  # every map has map 0's shape, checked below
            raise ShapeMismatch("a datum needs at least one map, with dprime >= 1 rows and d >= 1 columns")
        dprime, d = mats[0].shape
        for j, a in enumerate(mats):
            if a.shape != (dprime, d):
                raise ShapeMismatch(f"map {j} has shape {a.shape}, expected {(dprime, d)}")
        w = np.array(weights, dtype=float)
        if w.ndim != 1 or w.shape[0] != len(mats):
            raise ShapeMismatch(f"expected {len(mats)} weights, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ShapeMismatch("weights must be finite")
        stack = np.stack(mats)  # a copy: the caller's arrays stay theirs
        stack.setflags(write=False)
        w.setflags(write=False)
        return cls(d=d, dprime=dprime, m=len(mats), maps=stack, weights=w)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BLDatum)
            and np.array_equal(self.weights, other.weights)
            and np.array_equal(self.maps, other.maps)
        )

    def __repr__(self) -> str:
        return f"BLDatum(d={self.d}, dprime={self.dprime}, m={self.m})"


@dataclass
class ValidationReport:
    """Outcome of validate(); a datum is solvable iff the hard checks pass."""

    rank_ok: list
    scaling_ok: bool
    scaling_residual: float
    weight_range_ok: bool

    @property
    def accepted(self) -> bool:
        return bool(all(self.rank_ok) and self.scaling_ok and self.weight_range_ok)


def _prescaled(datum: BLDatum) -> tuple[np.ndarray, np.ndarray]:
    """Each L_j divided by 2^e_j, e_j the binary exponent of its largest entry, and the e_j."""
    exps = np.frexp(np.abs(datum.maps).max(axis=(1, 2)))[1]
    return np.ldexp(datum.maps, -exps[:, None, None]), exps


def validate(datum: BLDatum) -> ValidationReport:
    """The hard checks, which gate solving: every map has full row rank (one
    stacked np.linalg.matrix_rank at rtol=RANK_RTOL of the _prescaled maps),
    weights lie in (0, 1], and sum_j w_j * dprime = d within SCALING_TOL.
    """
    rank_ok = (np.linalg.matrix_rank(_prescaled(datum)[0], rtol=RANK_RTOL) == datum.dprime).tolist()
    weight_range_ok = bool(np.all(datum.weights > 0.0) and np.all(datum.weights <= 1.0))
    with np.errstate(over="ignore"):  # weights near the double limit sum to inf and fail
        residual = abs(float(np.sum(datum.weights) * datum.dprime) - datum.d)
    return ValidationReport(rank_ok, residual <= SCALING_TOL, residual, weight_range_ok)


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
    while len(maps) < m:
        L = rng.standard_normal((dprime, d))
        if np.linalg.matrix_rank(L, rtol=RANK_RTOL) == dprime:
            maps.append(L)
    return BLDatum.from_maps(maps, np.full(m, w))


# --- subdeterminant constant ----------------------------------------------------


def critical_c(datum: BLDatum) -> float:
    """min over maps of the largest |det| over all dprime x dprime column minors.

    Pure brute force by one batched det; raises TooLarge, before it forms a
    minor, where the minors' comb(d, dprime) * m * dprime**2 entries exceed
    _MINOR_ENTRIES. A NaN minor is skipped, as max() skips it; dprime > d gives 0.0.
    """
    entries = math.comb(datum.d, datum.dprime) * datum.m * datum.dprime**2
    if entries > _MINOR_ENTRIES:
        raise TooLarge(f"critical_c's minors have {entries} entries, beyond {_MINOR_ENTRIES}")
    index_sets = np.fromiter(itertools.combinations(range(datum.d), datum.dprime), (np.intp, datum.dprime))
    minors = datum.maps[:, :, index_sets].swapaxes(1, 2)  # (m, comb(d, dprime), dprime, dprime)
    with np.errstate(over="ignore"):  # a minor beyond the double range is inf, its correctly rounded |det|
        return float(np.fmax.reduce(np.abs(np.linalg.det(minors)), axis=1, initial=0.0).min())


# --- JSON persistence -----------------------------------------------------------
#
# {"d": int, "dprime": int, "m": int, "weights": [...], "maps": [[[row]...]...]}


def datum_to_json_obj(datum: BLDatum) -> dict:
    return {
        "d": datum.d,
        "dprime": datum.dprime,
        "m": datum.m,
        "weights": datum.weights.tolist(),
        "maps": datum.maps.tolist(),
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
    return read_json(path, datum_from_json_obj)[0]
