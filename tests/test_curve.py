import numpy as np
import pytest

from agmceliece import ag_code, hermitian_curve, oracle_filtration, suzuki_curve
from agmceliece.curve import OnePointCurve, curve_from_descriptor, ser_mul, ser_pow
from agmceliece.errors import ParameterError

from conftest import is_subcode


def test_hermitian_small_instances(herm2, herm3, herm4):
    for curve, n, g, q in [(herm2, 8, 1, 4), (herm3, 27, 3, 9), (herm4, 64, 6, 16)]:
        assert curve.n == n and curve.genus == g and curve.field.q == q


def test_hermitian_table_rows():
    H7 = hermitian_curve(7)
    assert (H7.field.q, H7.n, H7.genus) == (49, 343, 21)
    H9 = hermitian_curve(9)
    assert (H9.field.q, H9.n, H9.genus) == (81, 729, 36)


def test_hermitian_points_on_curve(herm3):
    F = herm3.field
    r = 3
    for a, b in herm3.points:
        assert F.add(F.pow(int(b), r), int(b)) == F.pow(int(a), r + 1)
    # points pairwise distinct and lex sorted
    pts = [tuple(p) for p in herm3.points]
    assert len(set(pts)) == len(pts) == 27
    assert pts == sorted(pts)


def test_hermitian_invalid_r():
    with pytest.raises(ParameterError):
        hermitian_curve(6)  # not a prime power
    with pytest.raises(ParameterError):
        hermitian_curve(1)
    # refused before any trial division, which would spin on this value
    with pytest.raises(ParameterError):
        hermitian_curve(10**18 + 3)


def test_suzuki_instances(suz2):
    assert (suz2.field.q, suz2.n, suz2.genus) == (8, 64, 14)
    S4 = suzuki_curve(4)
    assert (S4.field.q, S4.n, S4.genus) == (32, 1024, 124)


def test_suzuki_invalid_q0():
    with pytest.raises(ParameterError):
        suzuki_curve(3)


def test_suzuki_big_pole_basis_count():
    # dim L(500 Pinf) = 500 - 124 + 1 on the q0=4 curve
    S4 = suzuki_curve(4)
    assert len(S4.pole_basis(500)) == 377


def test_pole_orders_distinct(herm3, suz2):
    for curve, m in [(herm3, 20), (suz2, 50)]:
        orders = [o for _, o in curve.pole_basis(m)]
        assert len(set(orders)) == len(orders)
        assert orders == sorted(orders)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_riemann_roch_dimensions_hermitian(r):
    curve = hermitian_curve(r)
    g = curve.genus
    for m in range(2 * g - 1, curve.n):
        assert ag_code(curve, m).k == m - g + 1


def test_riemann_roch_dimensions_suzuki(suz2):
    g = suz2.genus
    for m in range(2 * g - 1, suz2.n):
        assert ag_code(suz2, m).k == m - g + 1


def test_riemann_roch_edge_m_equals_2g_minus_1(herm3):
    # dimension formula still applies at the lower edge m = 2g-1
    g = herm3.genus
    assert ag_code(herm3, 2 * g - 1).k == g


def test_desk_code_dimensions(herm3):
    C = ag_code(herm3, 13)
    assert C.k == 11
    assert ag_code(herm3, 13).dual().k == 16


def test_table_row_dimensions_r7():
    H7 = hermitian_curve(7)
    assert ag_code(H7, 170).k == 150
    assert ag_code(H7, 170).dual().k == 193


def test_weight_lower_bound_exhaustive_r2(herm2):
    # every nonzero codeword of C_L(m Pinf) has weight >= n - m (r=2 sizes allow
    # full enumeration)
    for m in (3, 4, 5):
        C = ag_code(herm2, m)
        for w in C.codewords():
            wt = int(np.count_nonzero(w))
            assert wt == 0 or wt >= herm2.n - m


def test_weight_lower_bound_sampled(herm3, rng):
    C = ag_code(herm3, 13)
    for _ in range(300):
        msg = np.array([C.field.random_rep(rng) for _ in range(C.k)])
        w = C.field.matmul(msg, C.gen).ravel()
        wt = int(np.count_nonzero(w))
        assert wt == 0 or wt >= herm3.n - 13


def test_oracle_filtration_dimensions(herm3):
    for s in range(0, 7):
        B = oracle_filtration(herm3, 13, 0, s)
        assert B.k == 13 - s - herm3.genus + 1
        if s >= 1:
            assert 0 in B.zero_coordinates()


def test_oracle_filtration_s0_s1(herm3):
    C = ag_code(herm3, 13)
    assert oracle_filtration(herm3, 13, 0, 0) == C
    assert oracle_filtration(herm3, 13, 0, 1) == C.shorten([0])


def test_ag_code_is_built_once_per_curve(herm3):
    # every key on a curve shares its code and the code's dual, so both are read-only
    C = ag_code(herm3, 13)
    assert ag_code(herm3, 13) is C
    assert C.dual() is C.dual()
    for arr in (C.gen, C.pivots, C.dual().gen, C.dual().pivots):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    fresh = hermitian_curve(3)
    assert ag_code(fresh, 13) == C and ag_code(fresh, 13) is not C
    # shifted codes are built per call
    for s in range(1, 4):
        B = oracle_filtration(herm3, 13, 0, s)
        assert B is not oracle_filtration(herm3, 13, 0, s)
        assert B == oracle_filtration(fresh, 13, 0, s)
        assert B.k == 13 - s - herm3.genus + 1 and is_subcode(B, C)


def test_oracle_filtration_chain_nested(herm4):
    prev = None
    for s in range(0, 8):
        B = oracle_filtration(herm4, 30, 5, s)
        if prev is not None:
            assert is_subcode(B, prev) and B.k == prev.k - 1
        prev = B


def test_multipoint_shifts(herm3):
    g = herm3.genus
    B = ag_code(herm3, 13, shifts=[(0, 1), (3, 2)])
    assert B.k == 13 - 3 - g + 1
    assert set(B.zero_coordinates()) >= {0, 3}
    # a point named twice carries the sum of its multiplicities
    for m in (6, 13):
        assert ag_code(herm3, m, shifts=[(0, 1), (0, 1)]) == oracle_filtration(herm3, m, 0, 2)


def test_descriptor_round_trip(herm3, suz2):
    for curve in (herm3, suz2):
        rebuilt = curve_from_descriptor(curve.descriptor())
        assert rebuilt.n == curve.n and rebuilt.genus == curve.genus
        assert (rebuilt.points == curve.points).all()


def test_custom_curve_bad_genus_rejected(herm3):
    with pytest.raises(ParameterError):
        OnePointCurve(
            "hermitian",
            herm3.field,
            herm3.genus + 1,
            herm3.points,
            list(herm3.gen_orders),
            [v.copy() for v in herm3.gen_values],
            list(herm3.exp_bounds),
            {"r": 3},
        )


@pytest.mark.slow
def test_suzuki_q04_full_keypair_round_trip():
    # Table-2 row at full size: n=1024, m=500, t=64 (basis verification and
    # evaluation rank run at scale); one encrypt/decrypt round trip
    import random

    import numpy as np

    from agmceliece import keygen, encrypt, decrypt

    curve = suzuki_curve(4)
    pk, sk = keygen(curve, 500, seed=77)
    assert pk.t == 64 and pk.k == 647
    rng = random.Random(1)
    msg = np.array([pk.field.random_rep(rng) for _ in range(pk.k)])
    ct = encrypt(pk, msg, seed=2)
    assert (decrypt(sk, ct) == msg).all()


def test_oracle_filtration_hand_computed_r2(herm2):
    # independent check from explicit valuations at P = (0,0):
    # L(4 Pinf) = <1, x, y, x^2> with v_P = 0, 1, 3, 2, so the shifted spaces
    # are B_1 = <x, y, x^2>, B_2 = <x^2, y>, B_3 = <y>
    import numpy as np

    from agmceliece import LinearCode

    F = herm2.field
    assert tuple(herm2.points[0]) == (0, 0)
    X = herm2.gen_values[0]
    Y = herm2.gen_values[1]
    X2 = F.mul(X, X)
    expected = {
        1: LinearCode(F, 8, np.vstack([X, Y, X2])),
        2: LinearCode(F, 8, np.vstack([X2, Y])),
        3: LinearCode(F, 8, Y[None, :]),
    }
    for s, code in expected.items():
        assert oracle_filtration(herm2, 4, 0, s) == code


def test_suzuki_oracle_filtration(suz2):
    # local expansions on the Suzuki curve: dimension drops and shorten
    # agreement mirror the Hermitian behaviour
    g = suz2.genus
    m = 45
    C = ag_code(suz2, m)
    assert oracle_filtration(suz2, m, 0, 1) == C.shorten([0])
    for s in range(0, 5):
        B = oracle_filtration(suz2, m, 0, s)
        assert B.k == m - s - g + 1
        if s >= 1:
            assert 0 in B.zero_coordinates()


@pytest.mark.parametrize("name", ["herm2", "herm3", "herm4", "suz2"])
def test_generator_series_satisfy_curve_equation(name, request):
    # L = 30 passes i = 3q = 24 on Suzuki q0=2: at i = q the Frobenius term and
    # h_q cancel, so a recurrence that drops both first goes wrong at 3q
    curve, L = request.getfixturevalue(name), 30
    F = curve.field

    def spow(a, e):
        return ser_pow(F, a, e, L)

    if curve.kind == "hermitian":
        r = curve.params["r"]
        Q, h = r, lambda x: spow(x, r + 1)
    else:
        q0 = curve.params["q0"]
        Q, h = F.q, lambda x: ser_mul(F, spow(x, q0), F.add(spow(x, F.q), x), L)
    for pi in range(0, curve.n, max(1, curve.n // 9)):
        a = int(curve.points[pi][0])
        gens = curve.generator_series(pi, L)
        x, y = gens[:2]
        assert x.tolist() == [a, 1] + [0] * (L - 2)
        assert (F.add(spow(y, Q), y) == h(x)).all()  # y^Q + y = h(x)
        assert [int(s[0]) for s in gens] == [int(v[pi]) for v in curve.gen_values]
        if curve.kind == "suzuki":
            z, w = gens[2:]
            assert (z == F.add(spow(x, 2 * q0 + 1), spow(y, 2 * q0))).all()
            assert (w == F.add(ser_mul(F, x, spow(y, 2 * q0), L), spow(z, 2 * q0))).all()
