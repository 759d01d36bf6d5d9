import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

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
from agmceliece.errors import DecodeFailureError, DimensionError
from agmceliece.mceliece import random_error


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
    ones = LinearCode.all_ones(F, 6)
    pair = EcpPair(ones, ones, ones.dual(), 0)
    assert verify_ecp(pair, designed=(6, 1, 1)).product_orthogonal


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
        _, _, locators = ecp_decode(pair, y, collect_locators=True)
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


def test_pair_serialization_round_trip(desk3):
    _, _, pair = desk3
    again = EcpPair.from_dict(pair.to_dict())
    assert again.a == pair.a and again.b == pair.b and again.c == pair.c and again.t == pair.t


def test_soundness_check_survives_python_O():
    # under -O asserts are stripped; a decoded non-codeword must still raise
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from agmceliece import LinearCode, decrypt, encrypt, hermitian_curve, keygen
        from agmceliece.errors import DecodeFailureError

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        pk, sk = keygen(hermitian_curve(3), 13, seed=42)
        ct = encrypt(pk, np.ones(pk.k, dtype=np.int64), seed=1)
        LinearCode.contains = lambda self, v: False
        try:
            decrypt(sk, ct)
        except DecodeFailureError as exc:
            print(f"raised: {exc}")
            sys.exit(0)
        sys.exit(1)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert "soundness check failed" in out.stdout
