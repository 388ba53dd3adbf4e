import numpy as np

from blfix.datum import BLDatum, gen_random
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
