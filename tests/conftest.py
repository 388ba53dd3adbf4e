import itertools
import math

import numpy as np
import scipy.linalg.lapack

from blfix.datum import BLDatum, gen_random, gen_young
from blfix.matcore import SpdMatrix

# (d, dprime, m) triples for which generic maps with uniform weights sit
# strictly inside the feasibility constraints (checked against the sampled
# subspace heuristic during development).
FEASIBLE_SHAPES = [
    (2, 1, 3),
    (2, 1, 4),
    (3, 2, 4),
    (4, 2, 4),
    (4, 2, 5),
    (4, 3, 5),
    (5, 2, 6),
    (5, 3, 4),
    (6, 3, 4),
    (6, 3, 5),
    (6, 4, 5),
    (7, 3, 5),
    (8, 4, 6),
    (8, 2, 10),
]

# subset with d <= 2*dprime, where the weights sum to at most 2
LOW_RATIO_SHAPES = [s for s in FEASIBLE_SHAPES if s[0] <= 2 * s[1]]


def feasible_datum(i: int) -> BLDatum:
    d, dp, m = FEASIBLE_SHAPES[i % len(FEASIBLE_SHAPES)]
    return gen_random(d, dp, m, seed=i)


def low_ratio_datum(i: int) -> BLDatum:
    d, dp, m = LOW_RATIO_SHAPES[i % len(LOW_RATIO_SHAPES)]
    return gen_random(d, dp, m, seed=i)


def rand_spd(rng, n: int, shift: float = 0.1) -> SpdMatrix:
    a = rng.standard_normal((n, n))
    return SpdMatrix(a @ a.T / n + shift * np.eye(n))


def rand_spd_box(rng, n: int, lo: float, hi: float) -> SpdMatrix:
    """Random SPD matrix with eigenvalues drawn uniformly from [lo, hi]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    ev = rng.uniform(lo, hi, n)
    return SpdMatrix((q * ev) @ q.T)


def rand_sym(rng, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) * scale
    return a + a.T


def dsyevd_failing_on(call: int):
    """LAPACK's dsyevd, except that its `call`-th call reports info = 1."""
    calls = itertools.count(1)

    def dsyevd(a, compute_v, lower):
        vals, vecs, info = scipy.linalg.lapack.dsyevd(a, compute_v=compute_v, lower=lower)
        return vals, vecs, 1 if next(calls) == call else info

    return dsyevd


def orthogonal(rng, n: int) -> np.ndarray:
    """A random orthogonal n x n matrix, from the QR factors of a Gaussian one."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def rotated(datum: BLDatum, seed: int) -> BLDatum:
    """The datum (U_j L_j A) for orthogonal U_j and A drawn with the seed. It has
    the same constant, and it is feasible exactly when the datum is."""
    rng = np.random.default_rng(seed)
    a = orthogonal(rng, datum.d)
    return BLDatum.from_maps([orthogonal(rng, datum.dprime) @ L @ a for L in datum.maps], datum.weights)


def young_family(weights, copies: int = 1, seed: int = 0) -> BLDatum:
    """Young's maps x, y and x - y at weights (a, b, c), a + b + c = 2, as the
    direct sum of `copies` of them, in coordinates drawn with the seed."""
    maps = [np.kron(np.eye(copies), L) for L in gen_young().maps]
    return rotated(BLDatum.from_maps(maps, weights), seed)


def young_family_constant(weights) -> float:
    """The sharp Young constant A(1/a) A(1/b) A(1/c), where A(p)^2 = p^(1/p) / p'^(1/p'),
    p' = p / (p - 1), and A(1) = 1 (Beckner 1975)."""
    def a(p):
        if p == 1.0:
            return 1.0
        q = p / (p - 1.0)
        return math.sqrt(p ** (1.0 / p) / q ** (1.0 / q))

    return math.prod(a(1.0 / w) for w in weights)
