import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from agmceliece import (
    GF,
    LinearCode,
    EcpPair,
    ecp_decode,
    keygen,
    legitimate_pair,
    verify_ecp,
    designed_bounds,
)
from agmceliece.code import conductor
from agmceliece.errors import DecodeFailureError, DimensionError, FieldMismatchError
from agmceliece.mceliece import random_error

from conftest import checkout_env, is_subcode, rep_matrices


@pytest.fixture(scope="module")
def desk3(herm3):
    pk, sk = keygen(herm3, 13, seed=42)
    return pk, sk, legitimate_pair(sk)


@pytest.fixture(scope="module")
def desk2(herm2):
    pk, sk = keygen(herm2, 4, seed=9)
    return pk, sk, legitimate_pair(sk)


def test_legitimate_pair_exact_verification(desk3):
    _, _, pair = desk3
    report = verify_ecp(pair)
    assert report.mode == "exact" and report.all_pass


def test_legitimate_pair_designed_verification(desk3):
    _, sk, pair = desk3
    report = verify_ecp(pair, designed=designed_bounds(13, 3, 27))
    assert report.mode == "designed" and report.all_pass


def test_locator_dim_fails_with_inflated_t(desk3):
    _, _, pair = desk3
    bad = EcpPair(pair.a, pair.b, pair.c, pair.a.k)  # t = k(A) violates E.2
    assert not verify_ecp(bad, designed=designed_bounds(13, 3, 27)).locator_dim


def test_all_ones_pair_product_orthogonality():
    F = GF(4)
    ones = LinearCode(F, 6, np.ones((1, 6), dtype=np.int64))
    pair = EcpPair(ones, ones, ones.dual(), 0)
    assert verify_ecp(pair, designed=(6, 1, 1)).product_orthogonal
    # B over another field, or of another length, makes no pair
    with pytest.raises(FieldMismatchError):
        EcpPair(ones, LinearCode(GF(9), 6, np.ones((1, 6), dtype=np.int64)), ones.dual(), 0)
    with pytest.raises(DimensionError):
        EcpPair(ones, LinearCode(F, 5, np.ones((1, 5), dtype=np.int64)), ones.dual(), 0)


def test_k_a_is_t_plus_1(desk3):
    pk, _, pair = desk3
    assert pair.a.k == pk.t + 1


def test_decode_zero_error(desk3, rng):
    pk, _, pair = desk3
    msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
    y = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
    c, e = ecp_decode(pair, y)
    assert (c == y).all() and not e.any()


def test_decode_all_single_errors_desk3(desk3, rng):
    pk, _, pair = desk3
    msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
    cword = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
    q, n = pk.field.q, pk.n
    for pos in range(n):
        for val in range(1, q):
            y = cword.copy()
            y[pos] = pk.field.add(int(y[pos]), val)
            c, e = ecp_decode(pair, y)
            assert (c == cword).all()
            assert e[pos] == val and np.count_nonzero(e) == 1


def test_decode_500_random_weight_t(desk3):
    pk, _, pair = desk3
    rng = random.Random(1234)
    for _ in range(500):
        msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
        cword = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
        e = random_error(pk.field, pk.n, pk.t, rng)
        y = pk.field.add(cword, e)
        c, e_hat = ecp_decode(pair, y)
        assert (c == cword).all() and (e_hat == e).all()


def test_decode_exhaustive_all_weight_le_t_small(desk2):
    # n = 8, t = 1: every pattern of weight <= 1 on several codewords
    pk, _, pair = desk2
    rng = random.Random(5)
    q, n = pk.field.q, pk.n
    for _ in range(10):
        msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
        cword = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
        c, e = ecp_decode(pair, cword)
        assert (c == cword).all()
        for pos in range(n):
            for val in range(1, q):
                y = cword.copy()
                y[pos] = pk.field.add(int(y[pos]), val)
                c, e = ecp_decode(pair, y)
                assert (c == cword).all()


def test_locator_zero_set_contains_error_support(desk3):
    pk, _, pair = desk3
    rng = random.Random(7)
    for _ in range(50):
        msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
        cword = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
        e = random_error(pk.field, pk.n, pk.t, rng)
        y = pk.field.add(cword, e)
        locators = conductor(pk.field, pair.a.gen, y[None, :], pair.b.gen)
        assert locators.shape[0] > 0
        supp = set(np.nonzero(e)[0])
        for a in locators:
            assert supp <= set(np.nonzero(a == 0)[0])


def test_decode_weight_overflow_fails_or_flags(desk3):
    # t+g errors: never a silent wrong answer
    pk, sk, pair = desk3
    rng = random.Random(99)
    wrong = 0
    for _ in range(60):
        msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
        cword = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
        e = random_error(pk.field, pk.n, pk.t + 3, rng)
        y = pk.field.add(cword, e)
        try:
            c, e_hat = ecp_decode(pair, y)
            # decoding may land on a different codeword within radius t;
            # soundness means y = c + e_hat with wt <= t, never a bad split
            assert (pk.field.add(c, e_hat) == y).all()
            assert np.count_nonzero(e_hat) <= pk.t
            wrong += int((c == cword).all())
        except DecodeFailureError:
            pass
    assert wrong == 0  # the true codeword is unreachable at weight t+3


def test_decode_rejects_wrong_length(desk3):
    _, _, pair = desk3
    with pytest.raises(DimensionError):
        ecp_decode(pair, np.zeros(5, dtype=np.int64))


def test_decode_rejects_reps_outside_the_field(desk3):
    pk, _, pair = desk3
    for rep in (-1, -2, pk.field.q):
        y = np.zeros(pk.n, dtype=np.int64)
        y[0] = rep
        with pytest.raises(ValueError, match="outside"):
            ecp_decode(pair, y)
        with pytest.raises(ValueError, match="vector: entries outside"):
            pair.c.contains(y)
    # contains read -1 through the tables' last row, as rep 8
    with pytest.raises(ValueError, match="outside"):
        LinearCode(GF(9), 4, [[1, 0, 1, 2], [0, 1, 1, 1]]).contains([-1, 3, 2, 7])
    # floats and bools were truncated: 1.7 read as 1, True as 1
    with pytest.raises(ValueError, match="vector: entries must be 64-bit integers"):
        LinearCode(GF(9), 4, [[1, 0, 1, 2]]).contains([True, False, True, 2])
    with pytest.raises(ValueError, match="generator: entries must be 64-bit integers"):
        LinearCode(GF(9), 4, [[1.7, 0, 1, 2]])
    with pytest.raises(ValueError, match="received word: entries must be 64-bit integers"):
        ecp_decode(pair, np.zeros(pk.n))
    for rows in ([[1, 0, 1, -1]], [[1, 0, 1, 9]]):
        with pytest.raises(ValueError, match="generator: entries outside"):
            LinearCode(GF(9), 4, rows)
    for rows in ([1, 0, 1, 2], [[1, 0, 1]]):
        with pytest.raises(DimensionError, match="generator: shape"):
            LinearCode(GF(9), 4, rows)
    for shape in ((1, pk.n), (pk.n, 1)):
        with pytest.raises(DimensionError, match="shape"):
            ecp_decode(pair, np.zeros(shape, dtype=np.int64))
        with pytest.raises(DimensionError, match="vector: shape"):
            pair.c.contains(np.zeros(shape, dtype=np.int64))


def test_soundness_check_survives_python_O():
    # under -O asserts are stripped; invalid inputs must still be refused and
    # a decoded non-codeword must still raise
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from agmceliece import (LinearCode, PublicKey, SecretKey, ag_code, decrypt,
                                encrypt, hermitian_curve, keygen)
        from agmceliece.errors import DecodeFailureError, DimensionError

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        curve = hermitian_curve(3)
        pk, sk = keygen(curve, 13, seed=42)
        S = sk.scramble.copy()
        S[0, 0] = -8
        for make in (lambda: encrypt(pk, [0.9] * pk.k, seed=1),
                     lambda: LinearCode(pk.field, 4, [[1.7, 0, 1, 2]]),
                     lambda: PublicKey(pk.field, pk.n, 0, pk.g_pub),
                     lambda: SecretKey(curve, 13, S, sk.permutation, 42),
                     lambda: SecretKey(curve, 13, S[1:, 1:], sk.permutation, 42),
                     lambda: SecretKey(curve, 13, sk.scramble, [0] * pk.n, 42),
                     lambda: ag_code(curve, 13).pivots.__setitem__(0, 1)):
            try:
                make()
            except (ValueError, DimensionError):
                continue
            sys.exit("accepted an invalid input under -O")
        ct = encrypt(pk, np.ones(pk.k, dtype=np.int64), seed=1)
        LinearCode.contains = lambda self, v: False
        try:
            decrypt(sk, ct)
        except DecodeFailureError as exc:
            print(f"raised: {exc}")
            sys.exit(0)
        sys.exit(1)
    """)
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env=checkout_env())
    assert out.returncode == 0, out.stderr
    assert "soundness check failed" in out.stdout


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_e1_conductor_form_matches_product_form(data):
    # E.1 is checked as A within Cond(B, C^perp); compare with (A*B) within C^perp.
    # Half the draws take C inside (A*B')^perp for B' spanned by some of B's
    # rows, where E.1 holds iff the rest of B adds nothing outside C^perp.
    F = GF(9)
    n = data.draw(st.integers(1, 6))
    A, B = (LinearCode(F, n, data.draw(rep_matrices(F, st.integers(0, 3), n)))
            for _ in range(2))
    C = LinearCode(F, n, data.draw(rep_matrices(F, st.integers(0, 4), n)))
    if data.draw(st.booleans()):
        B_part = LinearCode(F, n, B.gen[: data.draw(st.integers(0, B.k))])
        perp = A.schur_product(B_part).dual().gen
        C = LinearCode(F, n, perp[: data.draw(st.integers(0, perp.shape[0]))])
    expected = is_subcode(A.schur_product(B), C.dual())
    assert verify_ecp(EcpPair(A, B, C, 0), designed=(n, 1, 1)).product_orthogonal == expected
