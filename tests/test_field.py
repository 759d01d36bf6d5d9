
import random

import numpy as np
import pytest

from agmceliece import Field, GF, LinearCode
from agmceliece.errors import FieldMismatchError, ParameterError


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


def test_gf9_explicit_modulus_x2_plus_1():
    F = Field(3, 2, [1, 0, 1])
    x = 3  # rep of x: digits (0, 1)
    assert F.add(x, x) == 6  # coefficientwise mod 3
    assert F.mul(x, x) == 2  # x^2 = -1 = 2


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
    F9 = Field(3, 2, [1, 0, 1])
    assert F9.pow(3, 2) == 2
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_enumerate_orders():
    assert list(GF(2).elements()) == [0, 1]
    assert list(GF(4).elements()) == [0, 1, 2, 3]
    assert len(list(GF(49).elements())) == 49


def test_frobenius_additive_gf81(rng):
    F = GF(81)
    for _ in range(50):
        a, b = F.random_rep(rng), F.random_rep(rng)
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))


def test_frobenius_fixed_field_gf4():
    F = GF(4)
    fixed = [a for a in F.elements() if F.frobenius(a) == a]
    assert fixed == [0, 1]


def test_frobenius_power_identity_gf32():
    F = GF(32)
    for a in F.elements():
        b = a
        for _ in range(5):
            b = F.frobenius(b)
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
        Field(2, 2, [0, 0, 1])  # x^2 reducible
    with pytest.raises(ParameterError):
        Field(2, 17)  # beyond 2^16


def test_serialization_round_trip():
    for q in (9, 32):
        F = GF(q)
        G = Field.from_dict(F.to_dict())
        assert F == G and hash(F) == hash(G)


def test_matmul_matches_scalar_reference(rng):
    for q in (2, 9, 25, 32, 49, 81, 257):
        F = GF(q)
        A = np.array([[F.random_rep(rng) for _ in range(6)] for _ in range(4)])
        B = np.array([[F.random_rep(rng) for _ in range(5)] for _ in range(6)])
        C = F.matmul(A, B)
        for i in range(4):
            for j in range(5):
                s = 0
                for l in range(6):
                    s = F.add(s, F.mul(int(A[i, l]), int(B[l, j])))
                assert s == C[i, j]


def test_array_ops_match_scalar_ops(rng):
    for q in (8, 9, 49, 512):
        F = GF(q)
        a = np.array([F.random_rep(rng) for _ in range(64)])
        b = np.array([F.random_rep(rng) for _ in range(64)])
        for i in range(64):
            assert F.add(a, b)[i] == F.add(int(a[i]), int(b[i]))
            assert F.mul(a, b)[i] == F.mul(int(a[i]), int(b[i]))
            assert F.sub(a, b)[i] == F.sub(int(a[i]), int(b[i]))
            assert F.neg(a)[i] == F.neg(int(a[i]))


def test_matmul_large_prime_field(rng):
    # near the top of the supported order range the float64 route would be
    # unsafe for long inner dimensions; the int64 fallback must engage
    F = GF(65521)
    inner = 1200
    A = np.array([[F.random_rep(rng) for _ in range(inner)]])
    B = np.array([[F.random_rep(rng)] for _ in range(inner)])
    got = int(F.matmul(A, B)[0, 0])
    want = sum(int(a) * int(b) for a, b in zip(A[0], B[:, 0])) % 65521
    assert got == want
