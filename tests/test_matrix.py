import numpy as np
from hypothesis import assume, given, settings, strategies as st

from agmceliece import GF
from agmceliece import matrix as mx

from conftest import random_matrix, rep_matrices


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


def test_tall_rref_cross_check(rng):
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
    # the combinations are zero and the last rows still find their pivots
    base = random_matrix(F, 40, 48, rng)
    R, rank, piv = mx.rref(F, base)
    assert rank >= 33
    tall = np.vstack([F.matmul(random_matrix(F, 290, 32, rng), base[:32]), base[32:]])
    Rt, rank_t, piv_t = mx.rref(F, tall)
    assert rank_t == rank and piv_t == piv and (Rt == R).all()


def _gauss_jordan(F, M):
    """Textbook Gauss-Jordan on Python ints: leftmost pivot, first nonzero
    row, every other row cleared in the pivot column."""
    A = [[int(v) for v in row] for row in M]
    pivots = []
    for c in range(len(A[0]) if A else 0):
        r = len(pivots)
        i = next((i for i in range(r, len(A)) if A[i][c]), None)
        if i is None:
            continue
        A[r], A[i] = A[i], A[r]
        inv = int(F.inv(A[r][c]))
        A[r] = [int(F.mul(v, inv)) for v in A[r]]
        for j in range(len(A)):
            if j != r and A[j][c]:
                f = A[j][c]
                A[j] = [int(F.sub(a, F.mul(f, b))) for a, b in zip(A[j], A[r])]
        pivots.append(c)
    return A[: len(pivots)], pivots


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rref_matches_plain_gauss_jordan(data):
    # tall and rank-deficient (P Q through an inner dimension s), with whole
    # columns zeroed; GF(2^9) has no lookup tables and takes the log route
    F = data.draw(st.sampled_from([GF(2), GF(7), GF(9), GF(49), GF(2**9)]))
    c = data.draw(st.integers(1, 8))
    r = data.draw(st.integers(c, 3 * c + 2))
    s = data.draw(st.integers(0, c))
    M = F.matmul(data.draw(rep_matrices(F, r, s)), data.draw(rep_matrices(F, s, c))) \
        if s else np.zeros((r, c), dtype=np.int64)
    M[:, data.draw(st.lists(st.integers(0, c - 1), max_size=c))] = 0
    R, rank, piv = mx.rref(F, M)
    expected, expected_piv = _gauss_jordan(F, M)
    assert rank == len(expected) and piv == expected_piv
    assert R.shape == (rank, c) and R.tolist() == expected


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


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rref_invariant_under_invertible_row_operations(data):
    # RREF is canonical: rref(T M) == rref(M) for every invertible T, also
    # when M is rank-deficient (built as P Q through an inner dimension s)
    F = data.draw(st.sampled_from([GF(4), GF(9)]))
    r, s, c = (data.draw(st.integers(1, 6)) for _ in range(3))
    M = F.matmul(data.draw(rep_matrices(F, r, s)), data.draw(rep_matrices(F, s, c)))
    T = data.draw(rep_matrices(F, r, r))
    assume(mx.rref(F, T)[1] == r)
    R, rank, piv = mx.rref(F, M)
    R2, rank2, piv2 = mx.rref(F, F.matmul(T, M))
    assert rank2 == rank and piv2 == piv and np.array_equal(R2, R)
