import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agmceliece import GF, Decoder, EcpPair, LinearCode, ecp_decode
from agmceliece.code import conductor
from agmceliece.errors import DecodeFailureError, DimensionError, InstanceTooLargeError

from conftest import is_subcode, rep_matrices, random_code, random_matrix


def full_code(F, n) -> LinearCode:
    return LinearCode(F, n, np.eye(n, dtype=np.int64))


def zero_code(F, n) -> LinearCode:
    return LinearCode(F, n, np.zeros((0, n), dtype=np.int64))


def all_ones_code(F, n) -> LinearCode:
    return LinearCode(F, n, np.ones((1, n), dtype=np.int64))


def test_dual_of_full_space_is_zero():
    F = GF(5)
    assert full_code(F, 4).dual().k == 0
    assert zero_code(F, 4).dual() == full_code(F, 4)


def test_dual_involution_random(rng):
    for F in (GF(4), GF(9)):
        for k in [0, 7] + [rng.randrange(1, 7) for _ in range(50)]:
            C = random_code(F, 7, k, rng)
            assert C.dual().dual() == C


def test_repetition_dual_is_sum_zero():
    F = GF(3)
    D = LinearCode(F, 3, [[1, 1, 1]]).dual()
    assert D.k == 2
    for row in D.gen:
        assert int(row.sum()) % 3 == 0


def test_schur_identity_element(rng):
    F = GF(9)
    ones = all_ones_code(F, 6)
    for _ in range(20):
        A = random_code(F, 6, rng.randrange(1, 5), rng)
        assert A.schur_product(ones) == A
        assert A.schur_product(zero_code(F, 6)).k == 0


def test_schur_commutative_and_monotone(rng):
    F = GF(4)
    for _ in range(30):
        A = random_code(F, 6, rng.randrange(1, 4), rng)
        B = random_code(F, 6, rng.randrange(1, 4), rng)
        assert A.schur_product(B) == B.schur_product(A)
        # enlarge A by one random row: product can only grow
        A2 = LinearCode(F, 6, np.vstack([A.gen, random_code(F, 6, 1, rng).gen]))
        assert is_subcode(A.schur_product(B), A2.schur_product(B))


def test_schur_adjunction(rng):
    # (A*B) ⊥ C  <=>  B*C ⊆ A^⊥  <=>  A*C ⊆ B^⊥
    F = GF(4)
    for _ in range(40):
        A = random_code(F, 6, rng.randrange(1, 4), rng)
        B = random_code(F, 6, rng.randrange(1, 4), rng)
        C = random_code(F, 6, rng.randrange(1, 4), rng)
        lhs = is_subcode(A.schur_product(B), C.dual())
        mid = is_subcode(B.schur_product(C), A.dual())
        rhs = is_subcode(A.schur_product(C), B.dual())
        assert lhs == mid == rhs


def test_schur_square_all_ones():
    F = GF(9)
    ones = all_ones_code(F, 5)
    assert ones.schur_square() == ones


def test_schur_square_dimension_bound(rng):
    F = GF(9)
    for _ in range(100):
        C = random_code(F, 8, rng.randrange(0, 6), rng)
        k = C.k
        assert C.schur_square().k <= min(8, k * (k + 1) // 2)


def test_shorten_gf2_sum_zero():
    F = GF(2)
    C = LinearCode(F, 3, [[1, 1, 0], [0, 1, 1]])
    S = C.shorten([0])
    assert S.n == 3 and S.k == 1 and S.gen.tolist() == [[0, 1, 1]]


def test_shorten_dimension_drop(rng):
    F = GF(9)
    for k in [0, 7] + [rng.randrange(1, 6) for _ in range(30)]:
        C = random_code(F, 7, k, rng)
        S = C.shorten([0])
        degenerate = 0 in C.zero_coordinates()
        assert S.k == (C.k if degenerate else C.k - 1)
        assert C.shorten([]) == C
    with pytest.raises(DimensionError):
        C.shorten([9])


def test_shorten_puncture_duality(rng):
    # puncture(C^⊥, J) = (shorten(C, J) with the J columns removed)^⊥
    def puncture(C, J):
        keep = [c for c in range(C.n) if c not in J]
        return LinearCode(C.field, len(keep), C.gen[:, keep])

    F = GF(4)
    for _ in range(50):
        C = random_code(F, 7, rng.randrange(1, 6), rng)
        J = sorted(rng.sample(range(7), rng.randrange(0, 3)))
        assert puncture(C.dual(), J) == puncture(C.shorten(J), J).dual()


def test_minimum_distance_trivia():
    F = GF(3)
    assert LinearCode(F, 5, [[1, 1, 1, 1, 1]]).minimum_distance() == 5
    assert full_code(F, 4).minimum_distance() == 1


def test_minimum_distance_guard():
    C = full_code(GF(256), 8)
    with pytest.raises(InstanceTooLargeError):
        C.minimum_distance()


def test_bounded_weight_matches_enumeration(rng):
    # w past n - k takes the Singleton bound, w = 0 has no nonzero word
    F, n = GF(4), 8
    for _ in range(30):
        C = random_code(F, n, rng.randrange(1, n + 1), rng)
        dmin = C.minimum_distance()
        for w in range(n + 2):
            assert C.has_word_of_weight_at_most(w) == (dmin <= w)


def test_degeneracy_set():
    F = GF(4)
    assert full_code(F, 5).zero_coordinates() == []
    C = LinearCode(F, 4, [[0, 1, 2, 0], [0, 2, 1, 0]])
    assert C.zero_coordinates() == [0, 3]


def _zero_error_decoder(C: LinearCode) -> Decoder:
    # (all-ones, C^perp) is a 0-error-correcting pair for C
    pair = EcpPair(all_ones_code(C.field, C.n), C.dual(), C, 0)
    return Decoder(pair, C.gen)


def _two_step_info_set(F, g):
    """(rank, I, G[:, I]^-1) by rref(G), then rref([G[:, I] | 1]) = [1 | G[:, I]^-1]."""
    from agmceliece import matrix as mx

    k = g.shape[0]
    _, rank, piv = mx.rref(F, g)
    if rank != k:
        return rank, None, None
    R, _, _ = mx.rref(F, np.hstack([g[:, piv], np.eye(k, dtype=np.int64)]))
    return rank, np.array(piv, dtype=np.int64), R[:, k:]


@pytest.mark.parametrize("q", [4, 9, 49, 2**9])
def test_decoder_info_set_matches_two_step_reference(q, rng):
    F, n = GF(q), 7
    dependent = random_matrix(F, 4, n, rng)
    dependent[1] = dependent[0]
    cases = [np.zeros((0, n), dtype=np.int64), dependent, np.zeros((2, n), dtype=np.int64)]
    cases += [random_matrix(F, k, n, rng) for k in (1, 3, 5, n) for _ in range(5)]
    full = 0
    for g in cases:
        k = g.shape[0]
        C = LinearCode(F, n, g)
        pair = EcpPair(all_ones_code(F, n), C.dual(), C, 0)
        rank, info_set, info_inv = _two_step_info_set(F, g)
        if rank < k:
            with pytest.raises(DimensionError, match=f"generator has rank {rank}, expected {k}$"):
                Decoder(pair, g)
            continue
        full += 1
        dec = Decoder(pair, g)
        assert dec.info_set.dtype == info_set.dtype and (dec.info_set == info_set).all()
        assert dec.info_inv.shape == info_inv.shape == (k, k)
        got = dec.info_inv.matrix
        assert got.dtype == info_inv.dtype and (got == info_inv).all()
        # what the decoder holds is read-only and its own
        assert not any(a.flags.writeable for a in (dec.g.matrix, dec.info_set, got))
        assert not np.shares_memory(dec.g.matrix, g)
    assert full >= 15  # k = 0 and most random draws have full rank


def test_encode_unencode_round_trip(rng):
    F = GF(9)
    for _ in range(100):
        C = random_code(F, 7, 3, rng)
        m = np.array([F.random_rep(rng) for _ in range(3)])
        c = F.matmul(m, C.gen).ravel()
        assert C.contains(c)
        assert (_zero_error_decoder(C).decode(c) == m).all()


def test_unencode_rejects_non_codeword():
    F = GF(2)
    C = LinearCode(F, 4, [[1, 1, 0, 0]])
    assert not C.contains(np.array([1, 0, 0, 0]))
    with pytest.raises(DecodeFailureError):
        _zero_error_decoder(C).decode(np.array([1, 0, 0, 0]))
    # with B the zero code the all-ones locator survives, and its empty
    # erasure system refuses the nonzero syndrome
    pair = EcpPair(all_ones_code(F, 4), zero_code(F, 4), C, 0)
    with pytest.raises(DecodeFailureError, match="no locator of 1 candidates"):
        ecp_decode(pair, np.array([1, 0, 0, 0]))


def test_contains():
    F = GF(2)
    C = LinearCode(F, 4, [[1, 0, 1, 0], [0, 1, 1, 0]])
    for row in ([1, 0, 1, 0], [0, 1, 1, 0], [1, 1, 0, 0]):
        assert C.contains(np.array(row))
    assert C.contains(np.zeros(4, dtype=np.int64))
    assert not C.contains(np.array([0, 0, 0, 1]))
    assert zero_code(F, 4).contains(np.zeros(4, dtype=np.int64))
    assert not zero_code(F, 4).contains(np.array([0, 1, 0, 0]))
    with pytest.raises(DimensionError):
        C.contains(np.array([1, 0]))


def test_contains_exhaustive_subspace_gf2():
    # proper subspace of GF(2)^8 given by non-canonical rows: membership
    # matches explicit span listing
    F = GF(2)
    A = np.array(
        [[1, 0, 0, 1, 1, 0, 0, 1], [0, 1, 0, 1, 0, 1, 0, 1], [0, 0, 1, 1, 0, 0, 1, 1]]
    )
    C = LinearCode(F, 8, A[::-1])
    span = set()
    for bits in range(8):
        v = np.zeros(8, dtype=np.int64)
        for j in range(3):
            if bits >> j & 1:
                v ^= A[j]
        span.add(tuple(v))
    for val in range(256):
        v = np.array([(val >> i) & 1 for i in range(8)], dtype=np.int64)
        assert C.contains(v) == (tuple(v) in span)


def test_contains_matches_rank_test_gf9(rng):
    # over an extension field: v is in C iff appending v keeps the rank
    from agmceliece import matrix as mx

    F = GF(9)
    for _ in range(40):
        C = random_code(F, 9, rng.randrange(1, 8), rng)
        inside = F.matmul(
            np.array([[F.random_rep(rng) for _ in range(C.k)]]), C.gen
        ).ravel()
        outside = np.array([F.random_rep(rng) for _ in range(9)])
        assert C.contains(inside)
        rank = mx.rref(F, np.vstack([C.gen, outside]))[1]
        assert C.contains(outside) == (rank == C.k)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_conductor_matches_its_definition(data):
    # brute force over row(X): z belongs iff H (z*y)^T = 0 for every row y of Y
    F = data.draw(st.sampled_from([GF(4), GF(9)]))
    n = data.draw(st.integers(1, 5))
    X, Y, H = (data.draw(rep_matrices(F, st.integers(0, 3), n)) for _ in range(3))
    out = conductor(F, X, Y, H)
    assert out.shape[1] == n
    expected = {
        tuple(z) for z in LinearCode(F, n, X).codewords()
        if not F.matmul(H, F.mul(Y, z[None, :]).T).any()
    }
    assert {tuple(z) for z in LinearCode(F, n, out).codewords()} == expected
    if LinearCode(F, n, X).k == X.shape[0]:
        assert LinearCode(F, n, out).k == out.shape[0]


@pytest.mark.parametrize("empty", ["X", "Y", "H"])
def test_conductor_with_no_rows(empty, rng):
    # no row in Y or in H means no constraint, so the answer is row(X); no
    # row in X leaves nothing to constrain
    F, n = GF(9), 6
    mats = {name: random_matrix(F, 3, n, rng) for name in "XYH"}
    mats[empty] = np.zeros((0, n), dtype=np.int64)
    out = conductor(F, mats["X"], mats["Y"], mats["H"])
    assert out.shape == (0 if empty == "X" else 3, n)
    assert LinearCode(F, n, out) == LinearCode(F, n, mats["X"])
