
import itertools
import random

import numpy as np
import pytest

from agmceliece import Field, GF, LinearCode
from agmceliece.errors import FieldMismatchError, ParameterError

from conftest import random_matrix


def test_gf4_char2_addition():
    F = GF(4)
    w = 2  # rep of x
    assert F.add(w, w) == 0


def test_gf4_modulus_forces_square():
    # canonical modulus for GF(4) is x^2 + x + 1, so w * w = w + 1
    F = GF(4)
    assert F.modulus == (1, 1, 1)
    w = 2  # rep of x
    assert F.mul(w, w) == 3
    assert F.inv(w) == 3  # w * (w+1) = 1


def test_gf9_canonical_modulus():
    F = GF(9)
    assert F.modulus == (2, 1, 1)  # x^2 + x + 2
    x = 3  # rep of x: digits (0, 1)
    assert F.add(x, x) == 6  # coefficientwise mod 3
    assert F.mul(x, x) == 7  # x^2 = -x - 2 = 2x + 1, digits (1, 2)


def test_identities_random(rng):
    F = GF(49)
    for _ in range(20):
        a = F.random_rep(rng)
        assert F.add(a, 0) == a
        assert F.sub(a, a) == 0
        assert F.mul(a, 1) == a
        assert F.mul(a, 0) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_inverse_exhaustive_gf32():
    F = GF(32)
    for a in range(1, 32):
        assert F.mul(a, F.inv(a)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF(8).inv(0)


def test_pow_basics():
    F = GF(8)
    for a in range(8):
        assert F.pow(a, 0) == 1
    for a in range(1, 8):
        assert F.pow(a, 7) == 1
    assert GF(9).pow(3, 2) == 7
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_frobenius_additive_gf81(rng):
    F = GF(81)
    for _ in range(50):
        a, b = F.random_rep(rng), F.random_rep(rng)
        assert F.pow(F.add(a, b), F.p) == F.add(F.pow(a, F.p), F.pow(b, F.p))


def test_frobenius_fixed_field_gf4():
    F = GF(4)
    fixed = [a for a in range(F.q) if F.pow(a, F.p) == a]
    assert fixed == [0, 1]


def test_frobenius_power_identity_gf32():
    F = GF(32)
    for a in range(F.q):
        b = a
        for _ in range(5):
            b = F.pow(b, F.p)
        assert b == a


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 49, 64])
def test_field_axioms_exhaustive_small(q):
    # all q^3 triples at once via broadcasting
    F = GF(q)
    a = np.arange(q).reshape(q, 1, 1)
    b = np.arange(q).reshape(1, q, 1)
    c = np.arange(q).reshape(1, 1, q)
    assert (F.add(a, b) == F.add(b, a)).all()
    assert (F.mul(a, b) == F.mul(b, a)).all()
    assert (F.add(F.add(a, b), c) == F.add(a, F.add(b, c))).all()
    assert (F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))).all()
    assert (F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))).all()


@pytest.mark.parametrize("q", [81, 128, 343, 1024])
def test_field_axioms_random_larger(q):
    F = GF(q)
    rng = random.Random(q)
    n = 1500
    a = np.array([F.random_rep(rng) for _ in range(n)])
    b = np.array([F.random_rep(rng) for _ in range(n)])
    c = np.array([F.random_rep(rng) for _ in range(n)])
    assert (F.add(a, b) == F.add(b, a)).all()
    assert (F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))).all()
    assert (F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))).all()


def test_exp_log_consistency():
    for q in (9, 32, 81, 256):
        F = GF(q)
        for a in range(1, q):
            assert F._exp[F._log[a]] == a


def test_characteristic_sum():
    for q in (9, 25, 49):
        F = GF(q)
        for a in (1, 2, q - 1):
            s = 0
            for _ in range(F.p):
                s = F.add(s, a)
            assert s == 0


def test_field_description_mismatch_rejected():
    a = LinearCode(GF(4), 3, [[1, 0, 1]])
    b = LinearCode(GF(9), 3, [[1, 0, 1]])
    with pytest.raises(FieldMismatchError):
        a.schur_product(b)


def test_modulus_validation():
    with pytest.raises(ParameterError):
        Field(4, 1)  # not prime
    with pytest.raises(ParameterError):
        Field.from_dict({"p": 2, "k": 2, "modulus": [0, 0, 1]})  # x^2 reducible
    with pytest.raises(ParameterError):
        Field(2, 17)  # beyond 2^16
    # a huge prime characteristic is refused before the trial division
    with pytest.raises(ParameterError):
        Field.from_dict({"p": 2**61 - 1, "k": 1, "modulus": [0, 1]})


# the canonical modulus of every field a curve can build (Hermitian r <= 9, Suzuki q0 <= 4)
_CANONICAL_MODULI = {
    4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (2, 1, 1), 16: (1, 1, 0, 0, 1), 25: (2, 1, 1),
    32: (1, 0, 1, 0, 0, 1), 49: (3, 1, 1), 64: (1, 1, 0, 0, 0, 0, 1), 81: (2, 1, 0, 0, 1),
}


@pytest.mark.parametrize("q", sorted(_CANONICAL_MODULI))
def test_canonical_modulus_is_the_only_one_read(q):
    F = GF(q)
    assert F.modulus == _CANONICAL_MODULI[q]
    assert Field.from_dict(F.to_dict()) is F
    if q > 9:
        return  # every other monic modulus is tried on GF(4), GF(8) and GF(9) only
    for tail in itertools.product(range(F.p), repeat=F.k):
        if tail + (1,) != F.modulus:
            with pytest.raises(ParameterError):
                Field.from_dict({"p": F.p, "k": F.k, "modulus": [*tail, 1]})


def test_serialization_round_trip():
    for q in (9, 32):
        F = GF(q)
        G = Field.from_dict(F.to_dict())
        assert F == G and hash(F) == hash(G)


def test_matmul_matches_scalar_reference(rng):
    # (rows, inner, cols): A smaller than B, A larger, one row, one column, no inner
    shapes = [(4, 6, 5), (2, 3, 7), (7, 3, 2), (1, 6, 5), (4, 6, 1), (3, 0, 4)]
    for q in (2, 4, 7, 8, 9, 16, 25, 32, 49, 81, 257, 2**9):
        F = GF(q)
        for rows, inner, cols in shapes:
            A = np.array([F.random_rep(rng) for _ in range(rows * inner)]).reshape(rows, inner)
            B = np.array([F.random_rep(rng) for _ in range(inner * cols)]).reshape(inner, cols)
            C = F.matmul(A, B)
            assert C.shape == (rows, cols)
            # a prepared operand on either side, or both, twice: bit for bit the same
            for a, b in ((F.prepare(A), B), (A, F.prepare(B)), (F.prepare(A), F.prepare(B))):
                for _ in range(2):
                    got = F.matmul(a, b)
                    assert got.dtype == C.dtype and np.array_equal(got, C)
            for i in range(rows):
                for j in range(cols):
                    s = 0
                    for l in range(inner):
                        s = F.add(s, F.mul(int(A[i, l]), int(B[l, j])))
                    assert s == C[i, j]


def test_array_ops_match_scalar_ops(rng):
    for q in (7, 8, 9, 49, 257, 512):
        F = GF(q)
        a = np.array([F.random_rep(rng) for _ in range(64)])
        b = np.array([F.random_rep(rng) for _ in range(64)])
        for i in range(64):
            assert F.add(a, b)[i] == F.add(int(a[i]), int(b[i]))
            assert F.mul(a, b)[i] == F.mul(int(a[i]), int(b[i]))
            assert F.sub(a, b)[i] == F.sub(int(a[i]), int(b[i]))
            assert F.neg(a)[i] == F.neg(int(a[i]))


def test_sub_outer_matches_scalar_formula(rng):
    # GF(49) gathers rows of its table of -s * v; GF(3^6) has no tables and
    # multiplies through exp/log (in odd characteristic, so a lost sign shows).
    # Zero coefficients and no targets included.
    for q in (49, 3**6):
        F = GF(q)
        v = random_matrix(F, 1, 11, rng)[0]
        for targets in (0, 1, 9):
            X = random_matrix(F, targets, 11, rng).reshape(targets, 11)
            a = random_matrix(F, 1, targets, rng)[0]
            a[::3] = 0
            got = F.sub_outer(X, a, v)
            assert got.dtype == np.int64 and got.shape == (targets, 11)
            assert got.tolist() == [
                [F.sub(int(x), F.mul(int(a[i]), int(vj))) for x, vj in zip(X[i], v)]
                for i in range(targets)
            ]


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 49, 64, 81, 243, 256, 257, 2**16])
def test_random_reps_is_a_randrange_loop(q):
    # the same values as count calls of randrange(q), and the generator left
    # where that loop leaves it; 39 204 is the n=343 scramble's k^2
    F = GF(q)
    for count in (0, 1, 7, 1000, 39204):
        batch, loop = random.Random(count), random.Random(count)
        got = F.random_reps(batch, count)
        assert got.dtype == np.int64
        assert got.tolist() == [loop.randrange(q) for _ in range(count)]
        assert batch.getstate() == loop.getstate()


def test_matmul_large_prime_field():
    # inner * (p-2)^2 > 2^53 and the sum is odd, so float64 cannot hold it and
    # the int64 fallback must engage.  (p-1 entries would not test it: (p-1)^2
    # is a multiple of 2^8, so float64 sums them exactly up to 2^61.)
    p = 65521
    F = GF(p)
    inner = 2_100_001
    A = np.full((1, inner), p - 2)
    got = int(F.matmul(A, A.T)[0, 0])
    assert inner * (p - 2) ** 2 > 2**53
    assert got == inner * (p - 2) ** 2 % p
    # through prepared operands: M on the left, and M^T as the larger right side
    assert int(F.matmul(F.prepare(A), A.T)[0, 0]) == got
    wide = F.prepare(np.full((inner, 2), p - 2))
    assert F.matmul(A, wide).tolist() == [[got, got]]
    assert F.matmul(F.prepare(A), wide).tolist() == [[got, got]]


def test_prepared_operand_is_a_frozen_copy(rng):
    F = GF(49)
    A, B = random_matrix(F, 6, 5, rng), random_matrix(F, 5, 3, rng)
    A0 = A.copy()
    op = F.prepare(A)
    assert not op.matrix.flags.writeable and not np.shares_memory(op.matrix, A)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1
    # a frozen matrix that owns its data is shared; a frozen view of a
    # writeable matrix is not, since a write to its base would reach it
    frozen = A.copy()
    frozen.setflags(write=False)
    assert F.prepare(frozen).matrix is frozen
    view = A[:]
    view.setflags(write=False)
    assert not np.shares_memory(F.prepare(view).matrix, A)
    F.matmul(op, B)  # builds op's digits while the source is unchanged
    A[:] = F.add(A, 1)
    # op on the left (digits kept from before), on the right of a larger side
    # (expanded into blocks), and on the right of a smaller one (digits of
    # op^T, built only now): none of them sees the write
    wide, row = random_matrix(F, 9, 6, rng), random_matrix(F, 1, 6, rng)
    assert np.array_equal(F.matmul(op, B), F.matmul(A0, B))
    assert np.array_equal(F.matmul(wide, op), F.matmul(wide, A0))
    assert np.array_equal(F.matmul(row, op), F.matmul(row, A0))
    with pytest.raises(ValueError, match="prepared over GF"):
        GF(7).matmul(op, B)
