"""The numpy identities the whitened kernel's bits rest on, checked on the
installed numpy: `blfix.solve` and `blfix.baseline` call np.dot for 2-D
products, multiply by row weights stored at full shape and sum with
np.add.reduce, where the reference forms are `@`, a broadcast multiply and
ndarray.sum. Each pair must agree bit for bit on the operand layouts the
kernel passes: C-ordered arrays, transposed views of them (LAPACK's factors and
eigenvectors come back F-ordered), and w.T with w, numpy's syrk case.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

DIMS = st.integers(1, 60)
SEEDS = st.integers(0, 2**32 - 1)


def _operand(rng, rows: int, cols: int, transposed: bool) -> np.ndarray:
    """A rows x cols matrix, C-ordered or as the transposed view of one."""
    return rng.standard_normal((cols, rows)).T if transposed else rng.standard_normal((rows, cols))


@settings(max_examples=200, deadline=None)
@given(n=DIMS, k=DIMS, p=DIMS, a_t=st.booleans(), b_t=st.booleans(), seed=SEEDS)
def test_dot_is_matmul(n, k, p, a_t, b_t, seed):
    rng = np.random.default_rng(seed)
    a, b = _operand(rng, n, k, a_t), _operand(rng, k, p, b_t)
    assert np.dot(a, b).tobytes() == (a @ b).tobytes()


@settings(max_examples=200, deadline=None)
@given(n=DIMS, d=DIMS, transposed=st.booleans(), seed=SEEDS)
def test_dot_is_matmul_on_the_gram_product(n, d, transposed, seed):
    w = _operand(np.random.default_rng(seed), n, d, transposed)
    assert np.dot(w.T, w).tobytes() == (w.T @ w).tobytes()


@settings(max_examples=200, deadline=None)
@given(n=DIMS, seed=SEEDS)
def test_dot_is_matmul_on_vectors(n, seed):
    u, v = np.random.default_rng(seed).standard_normal((2, n))
    assert np.dot(u, v).tobytes() == (u @ v).tobytes()


@settings(max_examples=200, deadline=None)
@given(n=DIMS, d=DIMS, transposed=st.booleans(), seed=SEEDS)
def test_full_shape_weights_are_the_broadcast(n, d, transposed, seed):
    rng = np.random.default_rng(seed)
    sqrt_w, m = np.sqrt(rng.uniform(0.0, 2.0, n))[:, None], _operand(rng, n, d, transposed)
    assert (np.repeat(sqrt_w, d, 1) * m).tobytes() == (sqrt_w * m).tobytes()


@settings(max_examples=200, deadline=None)
@given(n=DIMS, seed=SEEDS)
def test_add_reduce_is_sum(n, seed):
    v = np.random.default_rng(seed).standard_normal(n)
    assert np.add.reduce(v).tobytes() == v.sum().tobytes()
