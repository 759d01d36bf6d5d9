import math
import random

import numpy as np
import pytest

from agmceliece import (
    GF,
    Ciphertext,
    ag_code,
    attack_decrypt,
    attack_pipeline,
    build_ecp,
    encrypt,
    extended_filtration,
    filtration_step,
    filtration_step_doubling,
    hermitian_curve,
    init_filtration,
    keygen,
    decrypt,
    oracle_filtration,
    recover_params,
    repair_degenerate,
    run_algorithm_1,
    run_algorithm_2,
    scheme_t,
    verify_ecp,
)
from agmceliece.attack import (
    choose_p_index,
    guard_algorithm_1,
    guard_algorithm_2,
    sliding_window_subsets,
)
from agmceliece.errors import (
    AttackError,
    FiltrationError,
    ParameterError,
    SquareSaturatedError,
)

from conftest import is_subcode, random_code


@pytest.fixture(scope="module")
def desk3(herm3):
    return keygen(herm3, 13, seed=42)


@pytest.fixture(scope="module")
def desk4(herm4):
    return keygen(herm4, 30, seed=11)


# -- parameter recovery ---------------------------------------------------------

def test_recover_params_desk_values(desk3, desk4):
    pk3, _ = desk3
    c = pk3.code().dual()
    assert (c.k, c.schur_square().k) == (11, 24)
    assert recover_params(pk3.code()) == (13, 3)
    pk4, _ = desk4
    c4 = pk4.code().dual()
    assert (c4.k, c4.schur_square().k) == (25, 55)
    assert recover_params(pk4.code()) == (30, 6)


def test_recover_params_many_instances():
    # >= 20 (curve, m) pairs within the 2g+1 <= m < n/2 hypothesis
    count = 0
    for r in (3, 4, 5):
        curve = hermitian_curve(r)
        g, n = curve.genus, curve.n
        lo = max(2 * g + 1, 3 * g)
        for m in range(lo, (n - 1) // 2 + 1):
            if scheme_t(m, g) < 1:
                continue
            pk, _ = keygen(curve, m, seed=1000 + m)
            assert recover_params(pk.code()) == (m, g), (r, m)
            count += 1
            if count >= 22 and r == 5:
                break
    assert count >= 20


def test_recover_params_random_codes_error_path(rng):
    F = GF(9)
    saturated = 0
    for _ in range(20):
        c_pub = random_code(F, 60, 40, rng)  # dual has k = 20, square saturates
        try:
            recover_params(c_pub)
        except SquareSaturatedError:
            saturated += 1
    assert saturated >= 19


# -- filtration ----------------------------------------------------------------

def test_init_filtration(herm3):
    C = ag_code(herm3, 13)
    B0, B1 = init_filtration(C, 0)
    assert B0 == C and B1.k == C.k - 1 and is_subcode(B1, B0)
    assert B1 == oracle_filtration(herm3, 13, 0, 1)


def test_init_filtration_rejects_degenerate_position(herm3):
    B1 = ag_code(herm3, 13).shorten([0])  # degenerate at 0
    with pytest.raises(ParameterError):
        init_filtration(B1, 0)


def test_choose_p_skips_degenerate(herm3):
    B1 = ag_code(herm3, 13).shorten([0])
    assert choose_p_index(B1) == 1


def test_filtration_step_desk(herm3):
    C = ag_code(herm3, 13)
    B0, B1 = init_filtration(C, 0)
    B2 = filtration_step(B1, B0)
    assert B2.k == 9
    assert B2 == oracle_filtration(herm3, 13, 0, 2)
    assert is_subcode(B2, B1) and B2.k == B1.k - 1


def test_filtration_step_oracle_sweep_r4(herm4):
    m = 30
    t, g = scheme_t(m, herm4.genus), herm4.genus
    filt, _ = run_algorithm_1(*init_filtration(ag_code(herm4, m), 0), target=t + g)
    for s in range(t + g + 1):
        assert filt[s] == oracle_filtration(herm4, m, 0, s), s


def test_doubling_agrees_with_single_step(herm3):
    C = ag_code(herm3, 13)
    B0, B1 = init_filtration(C, 0)
    B2 = filtration_step(B1, B0)
    B2d = filtration_step_doubling(B1, B1, B0)
    assert B2 == B2d
    B3 = filtration_step(B2, B1)
    B3d = filtration_step_doubling(B2, B1, B0)
    assert B3 == B3d


def test_doubling_deep_index_r4(herm4):
    m = 30
    filt, _ = run_algorithm_1(*init_filtration(ag_code(herm4, m), 0), target=5)
    B5 = filtration_step_doubling(filt[3], filt[2], filt[0])
    assert B5 == oracle_filtration(herm4, m, 0, 5)


def test_doubling_fixed_point_s1(herm3):
    C = ag_code(herm3, 13)
    B0, B1 = init_filtration(C, 0)
    assert filtration_step_doubling(B1, B0, B0) == B1


# -- drivers --------------------------------------------------------------------

def test_algorithm_1_desk(herm3):
    t, g = 2, 3
    filt, solves = run_algorithm_1(*init_filtration(ag_code(herm3, 13), 0), target=t + g + 1)
    assert sorted(filt) == list(range(t + g + 2))
    assert solves == t + g  # λ = t+g systems for indices 2..t+g+1
    for s, B in filt.items():
        assert B == oracle_filtration(herm3, 13, 0, s)


def test_algorithm_2_desk_lambda(herm3):
    t, g = 2, 3
    filt, solves = run_algorithm_2(*init_filtration(ag_code(herm3, 13), 0), target=t + g + 1)
    assert solves == 2 * math.ceil(math.log2(t + g)) + 2 == 8
    assert {t + g, t + g + 1} <= set(filt)
    for s, B in filt.items():
        assert B == oracle_filtration(herm3, 13, 0, s)


def test_algorithms_agree_r4(herm4):
    t, g = 6, 6
    B0, B1 = init_filtration(ag_code(herm4, 30), 0)
    f1, s1 = run_algorithm_1(B0, B1, t + g + 1)
    f2, s2 = run_algorithm_2(B0, B1, t + g + 1)
    assert s1 == t + g == 12 and s2 == 2 * math.ceil(math.log2(t + g)) + 2 == 10
    for s in f2:
        assert f2[s] == f1[s]


def test_algorithm_guards():
    # r=2 m=4: Algorithm 1 refused below 3g+t+1
    with pytest.raises(ParameterError, match="3g\\+t\\+1"):
        guard_algorithm_1(8, 1, 4, 1)
    # direct route refused at m >= n/2 (2m = n): documented filtration validity guard
    with pytest.raises(ParameterError, match="n/2"):
        guard_algorithm_2(8, 1, 4, 1)
    # in range: fine
    guard_algorithm_1(27, 3, 13, 2)
    guard_algorithm_2(27, 3, 13, 2)
    with pytest.raises(ParameterError, match="5g\\+t"):
        guard_algorithm_2(27, 3, 8, 1)


def test_direct_route_stalls_beyond_half_n(herm3):
    # at 2m >= n the first solve provably cannot drop dimension: the guard
    # exists because of this (kept as a regression witness)
    C = ag_code(herm3, 14)
    B0, B1 = init_filtration(C, 0)
    with pytest.raises(FiltrationError):
        filtration_step(B1, B0)


def test_filtration_step_refuses_saturated_product(rng):
    # a random [27, 16] code squares onto the whole space: no constraint is left
    B = random_code(GF(9), 27, 16, rng)
    with pytest.raises(FiltrationError, match="saturates"):
        filtration_step(B, B)


# -- repair and pair building ------------------------------------------------------

def test_repair_desk(herm3):
    t, g = 2, 3
    filt, _ = run_algorithm_1(*init_filtration(ag_code(herm3, 13), 0), target=t + g + 1)
    b_hat = repair_degenerate(filt[t + g], filt[t + g + 1], 0)
    assert b_hat.k == filt[t + g].k
    assert 0 not in b_hat.zero_coordinates()
    with pytest.raises(ParameterError):
        repair_degenerate(filt[t + g], filt[t + g], 0)  # not codimension 1
    with pytest.raises(ParameterError):
        repair_degenerate(filt[0], filt[1], 0)  # not degenerate at P


def test_build_ecp_desk(desk3):
    pk, _ = desk3
    t, g = 2, 3
    c_pub = pk.code()
    filt, _ = run_algorithm_1(*init_filtration(c_pub.dual(), 0), target=t + g + 1)
    b_hat = repair_degenerate(filt[t + g], filt[t + g + 1], 0)
    pair = build_ecp(b_hat, c_pub, t)
    assert pair.a.k >= t + 1 == 3
    assert is_subcode(pair.a.schur_product(pair.b), c_pub.dual())  # E.1
    assert verify_ecp(pair).all_pass  # exact on desk size
    with pytest.raises(AttackError):
        build_ecp(b_hat, c_pub, pair.a.k)  # t too large for the locator space


# -- full pipeline ----------------------------------------------------------------

def test_pipeline_r3_hundred_ciphertexts(desk3):
    pk, _ = desk3
    tr = attack_pipeline(pk)
    assert (tr.recovered_m, tr.recovered_g) == (13, 3)
    rng = random.Random(77)
    for i in range(100):
        msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
        ct = encrypt(pk, msg, seed=50_000 + i)
        assert (attack_decrypt(tr, pk, ct.y) == msg).all()


def test_pipeline_matches_legitimate_decrypt(desk3):
    pk, sk = desk3
    tr = attack_pipeline(pk)
    rng = random.Random(31)
    for i in range(200):
        msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
        ct = encrypt(pk, msg, seed=90_000 + i)
        assert (attack_decrypt(tr, pk, ct.y) == decrypt(sk, ct)).all()


def test_pipeline_zero_error_ciphertext(desk3, rng):
    pk, _ = desk3
    tr = attack_pipeline(pk)
    msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
    y = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
    assert (attack_decrypt(tr, pk, y) == msg).all()


def test_pipeline_overweight_ciphertext_no_silent_wrong_answer(desk3):
    from agmceliece.errors import DecodeFailureError
    from agmceliece.mceliece import random_error

    pk, _ = desk3
    tr = attack_pipeline(pk)
    rng = random.Random(8)
    for _ in range(50):
        msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
        base = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
        y = pk.field.add(base, random_error(pk.field, pk.n, pk.t + 3, rng))
        try:
            out = attack_decrypt(tr, pk, y)
            assert not (out == msg).all()
        except (DecodeFailureError, AttackError):
            pass


def test_pipeline_algorithm_flag(desk4):
    pk, _ = desk4
    t1 = attack_pipeline(pk, algorithm=1)
    t2 = attack_pipeline(pk, algorithm=2)
    assert t1.algorithm_used == 1 and t2.algorithm_used == 2
    assert t1.pair.a == t2.pair.a and t1.pair.b == t2.pair.b


def test_pipeline_suzuki_q02_refused(suz2):
    # no admissible m: t >= 1 needs m >= 43 > n/2 = 32
    g, n = suz2.genus, suz2.n
    for m in range(3 * g, n):
        if scheme_t(m, g) < 1:
            continue
        pk, _ = keygen(suz2, m, seed=5)
        with pytest.raises(AttackError):
            attack_pipeline(pk)
        break
    else:
        pytest.fail("expected at least one keygen-admissible m")


def test_pipeline_never_reads_secret(desk3):
    import inspect
    from agmceliece import attack as attack_mod

    src = inspect.getsource(attack_mod)
    assert "SecretKey" not in src and "legitimate_pair" not in src


def test_transcript_serialization(desk3):
    pk, _ = desk3
    tr = attack_pipeline(pk)
    d = tr.to_dict()
    assert d["m"] == 13 and d["g"] == 3 and d["lambda"] == 8 and d["algorithm"] == 2


def test_scramble_permutation_invariance(herm3):
    # 20 re-scramblings of one desk key: identical (m, g) and 100% decode
    results = []
    for seed in range(20):
        pk, _ = keygen(herm3, 13, seed=seed)
        tr = attack_pipeline(pk)
        rng = random.Random(seed)
        good = 0
        for i in range(20):
            msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
            ct = encrypt(pk, msg, seed=777_000 + 100 * seed + i)
            good += int((attack_decrypt(tr, pk, ct.y) == msg).all())
        results.append((tr.recovered_m, tr.recovered_g, good))
    assert all(res == (13, 3, 20) for res in results)



# -- prepared decoders ---------------------------------------------------------------

@pytest.mark.parametrize("desk", ["desk3", "desk4"])
def test_both_receivers_decode_every_weight(desk, request):
    # weights 0..t through one prepared decoder per receiver
    pk, sk = request.getfixturevalue(desk)
    tr = attack_pipeline(pk)
    rng = random.Random(61)
    for w in range(pk.t + 1):
        for i in range(3):
            msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
            ct = encrypt(pk, msg, seed=123_000 + 10 * w + i, weight=w)
            assert (decrypt(sk, ct) == msg).all()
            assert (attack_decrypt(tr, pk, ct.y) == msg).all()
            if w == i == 0:
                legit, attacker = sk.decoder, tr._decoder
    assert sk.decoder is legit and tr._decoder is attacker


def test_word_outside_row_space_raises(desk3, monkeypatch):
    from agmceliece import PublicKey
    from agmceliece import ecp as ecp_mod
    from agmceliece.errors import DimensionError

    pk, sk = desk3
    tr = attack_pipeline(pk)
    rng = random.Random(62)
    msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
    y = pk.field.matmul(msg[None, :], pk.g_pub).ravel()
    # a public generator of another code: the decoded word is not in its span
    other = pk.g_pub.copy()
    other[0] = [pk.field.random_rep(rng) for _ in range(pk.n)]
    with pytest.raises(AttackError):
        attack_decrypt(tr, PublicKey(pk.field, pk.n, pk.t, other), y)
    # a public generator that repeats a row cannot be solved against
    repeated = pk.g_pub.copy()
    repeated[1] = repeated[0]
    with pytest.raises(AttackError) as exc:
        attack_decrypt(tr, PublicKey(pk.field, pk.n, pk.t, repeated), y)
    assert exc.value.stage == "attack-decrypt"
    # a pair that hands back a word outside C
    y[0] = pk.field.add(int(y[0]), 1)
    monkeypatch.setattr(ecp_mod, "ecp_decode", lambda pair, word: (word, 0 * word))
    with pytest.raises(DimensionError):
        decrypt(sk, Ciphertext(y))
    with pytest.raises(AttackError):
        attack_decrypt(tr, pk, y)


def test_transcript_decoder_follows_the_public_key(desk3):
    # a re-scrambled G_pub spans the same code: one transcript serves both
    # keys, and its decoder is prepared again whenever G_pub changes
    from agmceliece import PublicKey
    from agmceliece.mceliece import _random_invertible

    pk, _ = desk3
    S = _random_invertible(pk.field, pk.k, random.Random(63))
    pk2 = PublicKey(pk.field, pk.n, pk.t, pk.field.matmul(S, pk.g_pub))
    tr = attack_pipeline(pk)
    rng = random.Random(64)
    for i in range(6):
        key = (pk, pk2)[i % 2]
        msg = np.array([key.field.random_rep(rng) for _ in range(key.k)])
        ct = encrypt(key, msg, seed=124_000 + i)
        assert (attack_decrypt(tr, key, ct.y) == msg).all()
        assert np.array_equal(tr._decoder.g, key.g_pub)


# -- extended attack ---------------------------------------------------------------

def test_extended_filtration_cross_check(herm4):
    C = ag_code(herm4, 30)
    t, g = 6, 6
    for target in (t + g, t + g + 1):
        direct = oracle_filtration(herm4, 30, 0, target)
        ext = extended_filtration(C, 0, [[1, 2], [3, 4]], target)
        assert ext == direct


def test_extended_filtration_guards(herm4):
    C = ag_code(herm4, 30)
    with pytest.raises(ParameterError):
        extended_filtration(C, 0, [[1, 2], [2, 3]], 5)  # common coordinate
    with pytest.raises(ParameterError):
        extended_filtration(C, 0, [[1, 2], [1, 2]], 5)  # not pairwise different
    with pytest.raises(ParameterError):
        extended_filtration(C, 0, [[0, 1], [2, 3]], 5)  # subset touches P
    with pytest.raises(ParameterError):
        extended_filtration(C, 0, [], 5)


def test_extended_single_empty_subset_is_direct(herm4):
    C = ag_code(herm4, 30)
    assert extended_filtration(C, 0, [[]], 12) == oracle_filtration(herm4, 30, 0, 12)


def test_sliding_window_subsets(herm4):
    subs = sliding_window_subsets(herm4.n, 2, 3, p_index=0)
    assert subs == [[1, 2], [3, 4], [5, 6]]
    assert not set(subs[0]) & set(subs[1]) & set(subs[2])
    C = ag_code(herm4, 30)
    assert extended_filtration(C, 0, subs, 12) == oracle_filtration(herm4, 30, 0, 12)
    with pytest.raises(ParameterError):
        sliding_window_subsets(10, 3, 1)


@pytest.mark.parametrize("curve, m, count", [("herm3", 14, 3), ("herm4", 32, 2)])
def test_extended_filtration_where_direct_route_refuses(request, curve, m, count):
    # 2m >= n, so the direct attack is guarded out; windows of 2m - n + 1
    # coordinates still reach B_(t+g+1)
    cur = request.getfixturevalue(curve)
    g, t = cur.genus, scheme_t(m, cur.genus)
    with pytest.raises(ParameterError):
        guard_algorithm_2(cur.n, g, m, t)
    target = t + g + 1
    subs = sliding_window_subsets(cur.n, 2 * m - cur.n + 1, count, p_index=0)
    assert extended_filtration(ag_code(cur, m), 0, subs, target) == \
        oracle_filtration(cur, m, 0, target)


def test_filtration_degenerate_exactly_at_p(herm3):
    # attack-computed B_s (s >= 1) vanish exactly at the distinguished point
    C = ag_code(herm3, 13)
    filt, _ = run_algorithm_1(*init_filtration(C, 0), target=6)
    for s in range(1, 7):
        assert filt[s].zero_coordinates() == [0]
