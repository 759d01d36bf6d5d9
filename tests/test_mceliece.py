import json
import random

import numpy as np
import pytest

from agmceliece import (
    Ciphertext,
    PublicKey,
    SecretKey,
    LinearCode,
    ag_code,
    decrypt,
    encrypt,
    hermitian_curve,
    keygen,
    legitimate_pair,
    suzuki_curve,
    scheme_t,
    verify_ecp,
    designed_bounds,
)
from agmceliece.errors import DecodeFailureError, DimensionError, ParameterError
from agmceliece.mceliece import random_error


@pytest.fixture(scope="module")
def desk3(herm3):
    return keygen(herm3, 13, seed=42)


def test_error_budget_formula():
    assert scheme_t(13, 3) == 2
    assert scheme_t(4, 1) == 1
    assert scheme_t(30, 6) == 6
    assert scheme_t(170, 21) == 54  # Hermitian r=7 table row
    assert scheme_t(500, 124) == 64  # Suzuki q0=4 table row


def test_keygen_desk_dimensions(desk3):
    pk, sk = desk3
    assert pk.t == 2 and pk.k == 16 and pk.n == 27
    assert sk.m == 13


def test_keygen_r7_table_row():
    H7 = hermitian_curve(7)
    pk, _ = keygen(H7, 170, seed=0)
    assert pk.t == 54 and pk.k == 193


def test_keygen_guards(herm3):
    with pytest.raises(ParameterError):
        keygen(herm3, 8, seed=0)  # m <= 3g - 1
    with pytest.raises(ParameterError):
        keygen(herm3, 27, seed=0)  # m >= n
    with pytest.raises(ParameterError):
        keygen(herm3, 9, seed=0)  # t would be 0


def test_public_rowspace_matches_canonical(herm3, desk3):
    pk, sk = desk3
    canonical = ag_code(herm3, 13).dual()
    perm = sk.permutation
    unshuffled = np.empty_like(pk.g_pub)
    unshuffled[:, :] = pk.g_pub[:, perm]
    assert LinearCode(pk.field, pk.n, unshuffled) == canonical
    # scrambled generator itself is not canonical
    assert (pk.g_pub != canonical.gen).any()


def test_scramble_is_invertible(desk3):
    from agmceliece import matrix as mx

    pk, sk = desk3
    assert mx.rref(pk.field, sk.scramble)[1] == pk.k


def test_encrypt_weight_and_determinism(desk3, rng):
    pk, _ = desk3
    msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
    ct1 = encrypt(pk, msg, seed=7)
    ct2 = encrypt(pk, msg, seed=7)
    assert (ct1.y == ct2.y).all()
    base = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
    diff = np.count_nonzero(pk.field.sub(ct1.y, base))
    assert diff == pk.t
    ct0 = encrypt(pk, msg, seed=7, weight=0)
    assert (ct0.y == base).all()
    with pytest.raises(ParameterError):
        encrypt(pk, msg, seed=7, weight=pk.t + 1)


def test_encrypt_length_check(desk3):
    pk, _ = desk3
    with pytest.raises(DimensionError):
        encrypt(pk, np.zeros(pk.k + 1, dtype=np.int64), seed=0)


def test_encrypt_refuses_reps_outside_the_field(desk3):
    # -1 was read as q - 1, so the message decrypted with q - 1 in its place;
    # a key built directly read G_pub's entries the same way
    pk, _ = desk3
    for rep in (-1, pk.field.q):
        msg = np.zeros(pk.k, dtype=np.int64)
        msg[0] = rep
        with pytest.raises(ValueError, match="outside"):
            encrypt(pk, msg, seed=0)
        g_pub = pk.g_pub.copy()
        g_pub[0, 0] = rep
        with pytest.raises(ValueError, match="g_pub: entries outside"):
            PublicKey(pk.field, pk.n, pk.t, g_pub)
    # a float or bool was truncated: [0.9] * k encrypted the zero message
    for msg in ([0.9] * pk.k, [True] * pk.k):
        with pytest.raises(ValueError, match="message: entries must be 64-bit integers"):
            encrypt(pk, msg, seed=0)
    with pytest.raises(ValueError, match="g_pub: entries must be 64-bit integers"):
        PublicKey(pk.field, pk.n, pk.t, pk.g_pub + 0.0)
    with pytest.raises(DimensionError, match="message: shape"):
        encrypt(pk, np.zeros((1, pk.k), dtype=np.int64), seed=0)
    for g_pub in (pk.g_pub[:, 1:], pk.g_pub[0]):
        with pytest.raises(DimensionError, match="g_pub: shape"):
            PublicKey(pk.field, pk.n, pk.t, g_pub)


def test_key_constructors_check_their_invariants(desk3):
    # a key built directly took any t, and read a scramble entry -8 as rep 1
    # and a permutation entry -19 as position 8
    pk, sk = desk3
    for t in (0, pk.n - pk.k + 1, 99):
        with pytest.raises(ValueError, match="error budget"):
            PublicKey(pk.field, pk.n, t, pk.g_pub)
    S = sk.scramble.copy()
    S[0, 0] = -8
    negative, repeated = list(sk.permutation), list(sk.permutation)
    negative[0] = -19
    repeated[1] = repeated[0]
    fields = dict(curve=sk.curve, m=sk.m, scramble=sk.scramble,
                  permutation=sk.permutation, seed=sk.seed)
    for change, error, match in [
        ({"m": 9}, ParameterError, "need n > m > 3g"),
        ({"scramble": S}, ValueError, "scramble: entries outside"),
        ({"scramble": sk.scramble + 0.5}, ValueError, "scramble: entries must be"),
        ({"scramble": sk.scramble[1:, 1:]}, DimensionError, "scramble matrix has shape"),
        ({"scramble": sk.scramble[1:]}, DimensionError, "scramble matrix has shape"),
        ({"permutation": negative}, ValueError, "permutation: entries outside"),
        ({"permutation": repeated}, ValueError, "not a bijection"),
        ({"permutation": sk.permutation[1:]}, DimensionError, "permutation: shape"),
    ]:
        with pytest.raises(error, match=match):
            SecretKey(**dict(fields, **change))


@pytest.mark.parametrize("make, param, m", [(hermitian_curve, 3, 13), (hermitian_curve, 4, 25),
                                            (suzuki_curve, 2, 45)])
def test_keys_on_one_curve_match_keys_on_fresh_curves(make, param, m):
    # keygen reads the code and dual the curve keeps; a fresh curve builds both anew
    shared = make(param)
    for seed in range(1, 6):
        pk, sk = keygen(shared, m, seed)
        pk_fresh, sk_fresh = keygen(make(param), m, seed)
        assert pk.to_dict() == pk_fresh.to_dict() and sk.to_dict() == sk_fresh.to_dict()
        if seed == 2:
            msg = np.arange(pk.k) % pk.field.q
            assert (decrypt(sk, encrypt(pk, msg, seed=seed)) == msg).all()


def test_decrypt_round_trip_many(desk3):
    pk, sk = desk3
    rng = random.Random(20)
    for trial in range(1000):
        msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
        ct = encrypt(pk, msg, seed=10_000 + trial)
        assert (decrypt(sk, ct) == msg).all()



def test_encrypt_prepares_g_pub_once(herm3):
    pk, _ = keygen(herm3, 13, seed=44)
    assert "_prepared" not in vars(pk)  # keygen prepares nothing
    assert not pk.g_pub.flags.writeable
    msg = np.arange(pk.k) % pk.field.q
    ct = encrypt(pk, msg, seed=1)
    prepared = pk._prepared
    assert np.array_equal(encrypt(pk, msg, seed=1).y, ct.y) and pk._prepared is prepared
    e = pk.field.sub(ct.y, pk.field.matmul(msg, pk.g_pub).ravel())
    assert np.count_nonzero(e) == pk.t


def test_decrypt_prepares_the_decoder_once(herm3, monkeypatch):
    from agmceliece import mceliece as mc

    pk, sk = keygen(herm3, 13, seed=43)
    calls = {"ag_code": 0, "dual": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mc, "ag_code", counted("ag_code", mc.ag_code))
    monkeypatch.setattr(LinearCode, "dual", counted("dual", LinearCode.dual))
    rng = random.Random(21)
    for trial in range(10):
        msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
        ct = encrypt(pk, msg, seed=20_000 + trial)
        assert (decrypt(sk, ct) == msg).all()
        if trial == 0:
            first = dict(calls)
    # one build: A, B and C's ag_codes, C dualised once for the pair and
    # G_pub, and once more for C's parity check; nothing after it
    assert first == {"ag_code": 3, "dual": 2}
    assert calls == first
    assert "decoder" not in json.dumps(sk.to_dict())


def test_decrypt_zero_message_zero_error(desk3):
    pk, sk = desk3
    ct = encrypt(pk, np.zeros(pk.k, dtype=np.int64), seed=3, weight=0)
    assert not decrypt(sk, ct).any()


def test_tampered_ciphertext_never_silently_wrong(desk3):
    pk, sk = desk3
    g = 3
    rng = random.Random(50)
    for trial in range(100):
        msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
        base = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
        e = random_error(pk.field, pk.n, pk.t + g, rng)
        y = pk.field.add(base, e)
        try:
            out = decrypt(sk, Ciphertext(y))
            # if it decodes, it is a valid radius-t split, which cannot
            # reproduce msg since wt(e) = t + g > t
            assert not (out == msg).all()
        except DecodeFailureError:
            pass


def test_legitimate_pair_conditions(desk3, herm3):
    pk, sk = desk3
    pair = legitimate_pair(sk)
    assert pair.a.k == pk.t + 1
    assert verify_ecp(pair).all_pass
    assert verify_ecp(pair, designed=designed_bounds(13, herm3.genus, 27)).all_pass


def test_minimal_e_degree_boundary(herm4):
    # deg E = t+g is the minimal choice: one less (with deg E still > 2g-2,
    # so the dimension formula is exact) gives k(A) = t and E.2 fails
    from agmceliece import EcpPair

    m, g = 30, herm4.genus
    t = scheme_t(m, g)
    deg_e = t + g - 1
    assert deg_e > 2 * g - 2
    A = ag_code(herm4, deg_e)
    B = ag_code(herm4, m - deg_e)
    C = ag_code(herm4, m).dual()
    assert A.k == t
    report = verify_ecp(
        EcpPair(A, B, C, t),
        designed=(herm4.n - deg_e, (m - deg_e) - 2 * g + 2, m - 2 * g + 2),
    )
    assert not report.locator_dim
    # while the legitimate choice deg E = t+g certifies
    good = EcpPair(ag_code(herm4, deg_e + 1), ag_code(herm4, m - deg_e - 1), C, t)
    assert verify_ecp(
        good, designed=designed_bounds(m, g, herm4.n)
    ).all_pass


def test_secret_key_keeps_its_curve(herm3, desk3):
    _, sk = desk3
    assert keygen(herm3, 13, seed=42)[1].curve is herm3
    assert SecretKey.from_dict(sk.to_dict()).to_dict() == sk.to_dict()


def test_serialization_round_trips(desk3, tmp_path):
    pk, sk = desk3
    pk2 = PublicKey.from_dict(pk.to_dict())
    assert (pk2.g_pub == pk.g_pub).all() and pk2.t == pk.t
    sk2 = SecretKey.from_dict(sk.to_dict())
    assert sk2.m == sk.m and sk2.permutation == sk.permutation
    assert (sk2.scramble == sk.scramble).all()
    ct = encrypt(pk, np.zeros(pk.k, dtype=np.int64), seed=1)
    assert (Ciphertext.from_dict(ct.to_dict(), pk.field, pk.n).y == ct.y).all()
    # rebuilt secret key still decrypts
    rng = random.Random(4)
    msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
    ct = encrypt(pk, msg, seed=77)
    assert (decrypt(sk2, ct) == msg).all()


def test_artifacts_compare_by_identity(desk3):
    # the generated __eq__ compared numpy fields and raised on any two keys
    pk, sk = desk3
    ct = encrypt(pk, np.zeros(pk.k, dtype=np.int64), seed=1)
    pairs = [(pk, PublicKey.from_dict(pk.to_dict())),
             (sk, SecretKey.from_dict(sk.to_dict())),
             (ct, Ciphertext.from_dict(ct.to_dict(), pk.field, pk.n))]
    for a, b in pairs:
        assert a == a and a != b
