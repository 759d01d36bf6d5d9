import numpy as np
import pytest

from agmceliece import GF
from agmceliece import matrix as mx
from agmceliece.errors import DimensionError

from conftest import random_matrix


def test_rref_identity():
    F = GF(5)
    M = np.eye(4, dtype=np.int64)
    R, rank, piv = mx.rref(F, M)
    assert rank == 4 and piv == [0, 1, 2, 3] and (R == M).all()


def test_rref_zero():
    F = GF(5)
    R, rank, piv = mx.rref(F, np.zeros((3, 3), dtype=np.int64))
    assert rank == 0 and piv == [] and R.shape == (0, 3)


def test_rref_gf7_dependent_rows():
    F = GF(7)
    R, rank, _ = mx.rref(F, np.array([[2, 4], [3, 6]]))
    assert rank == 1 and R.tolist() == [[1, 2]]


def test_rref_idempotent_and_canonical(rng):
    F = GF(9)
    for _ in range(40):
        M = random_matrix(F, rng.randrange(1, 7), rng.randrange(1, 7), rng)
        R, rank, piv = mx.rref(F, M)
        R2, rank2, piv2 = mx.rref(F, R)
        assert rank == rank2 and piv == piv2 and (R == R2).all()
        # scrambling rows by an invertible matrix leaves the RREF unchanged
        k = M.shape[0]
        while True:
            S = random_matrix(F, k, k, rng)
            if mx.rref(F, S)[1] == k:
                break
        R3, rank3, _ = mx.rref(F, F.matmul(S, M))
        assert rank3 == rank and (R3 == R).all()


def test_fast_rref_cross_check(rng):
    # a tall matrix of combinations of a few rows must reduce exactly like
    # the rows themselves: same rank, pivots and canonical form
    F = GF(9)
    for _ in range(10):
        base = random_matrix(F, rng.randrange(1, 12), 16, rng)
        tall = F.matmul(random_matrix(F, 500, base.shape[0], rng), base)
        Rt, rank_t, piv_t = mx.rref(F, tall)
        R, rank, piv = mx.rref(F, base)
        assert rank_t == rank and piv_t == piv and (Rt == R).all()
    # 290 combinations of 32 rows, then 8 independent rows; after 32 pivots
    # the combinations are dead, rref drops them and eliminates on
    base = random_matrix(F, 40, 48, rng)
    R, rank, piv = mx.rref(F, base)
    assert rank >= 33
    tall = np.vstack([F.matmul(random_matrix(F, 290, 32, rng), base[:32]), base[32:]])
    Rt, rank_t, piv_t = mx.rref(F, tall)
    assert rank_t == rank and piv_t == piv and (Rt == R).all()


def test_kernel_identity_and_zero():
    F = GF(4)
    assert mx.kernel(F, np.eye(3, dtype=np.int64)).shape == (0, 3)
    K = mx.kernel(F, np.zeros((3, 3), dtype=np.int64))
    assert mx.rref(F, K)[1] == 3


def test_kernel_orthogonality_random(rng):
    F = GF(9)
    for _ in range(100):
        M = random_matrix(F, rng.randrange(1, 8), rng.randrange(1, 8), rng)
        K = mx.kernel(F, M)
        assert K.shape[0] == M.shape[1] - mx.rref(F, M)[1]  # rank-nullity
        if K.shape[0]:
            assert not F.matmul(M, K.T).any()


def test_solve_identity_and_inconsistent():
    F = GF(7)
    b = np.array([3, 1, 6])
    x = mx.solve(F, np.eye(3, dtype=np.int64), b)
    assert (x == b).all()
    assert mx.solve(F, np.zeros((2, 3), dtype=np.int64), np.array([1, 0])) is None
    with pytest.raises(DimensionError):
        mx.solve(F, np.eye(2, dtype=np.int64), np.array([1, 2, 3]))


def test_solve_consistent_random(rng):
    F = GF(8)
    for _ in range(100):
        M = random_matrix(F, rng.randrange(1, 8), rng.randrange(1, 8), rng)
        x0 = np.array([F.random_rep(rng) for _ in range(M.shape[1])])
        b = F.matmul(M, x0[:, None]).ravel()
        x = mx.solve(F, M, b)
        assert x is not None
        assert (F.matmul(M, x[:, None]).ravel() == b).all()


def test_contains():
    F = GF(2)
    A = np.array([[1, 0, 1, 0], [0, 1, 1, 0]])
    for row in A:
        assert mx.contains(F, A, row)
    assert mx.contains(F, A, np.zeros(4, dtype=np.int64))
    assert not mx.contains(F, A, np.array([0, 0, 0, 1]))
    with pytest.raises(DimensionError):
        mx.contains(F, A, np.array([1, 0]))


def test_contains_exhaustive_subspace_gf2():
    # proper subspace of GF(2)^8: membership matches explicit span listing
    F = GF(2)
    A = np.array(
        [[1, 0, 0, 1, 1, 0, 0, 1], [0, 1, 0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 0, 1, 1]]
    )
    span = set()
    for bits in range(8):
        v = np.zeros(8, dtype=np.int64)
        for j in range(3):
            if bits >> j & 1:
                v ^= A[j]
        span.add(tuple(v))
    for val in range(256):
        v = np.array([(val >> i) & 1 for i in range(8)], dtype=np.int64)
        assert mx.contains(F, A, v) == (tuple(v) in span)

