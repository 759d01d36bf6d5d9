"""Schur-product structure of one-point codes: the distinguisher the attack rests on."""

import random

import pytest

from agmceliece import ag_code, hermitian_curve

from conftest import is_subcode, random_code


def test_product_identity_specific(herm3):
    # hypothesis-respecting instance: deg F = 6 >= 2g, deg G = 7 >= 2g+1
    assert ag_code(herm3, 6).schur_product(ag_code(herm3, 7)) == ag_code(herm3, 13)


def test_product_below_hypothesis_is_strict(herm3):
    # deg F = 5 < 2g = 6: the product misses pole order 12 and is a strict subcode
    P = ag_code(herm3, 5).schur_product(ag_code(herm3, 7))
    C = ag_code(herm3, 12)
    assert is_subcode(P, C) and P.k == C.k - 1


@pytest.mark.parametrize("r", [2, 3, 4])
def test_product_identity_random_pairs(r):
    curve = hermitian_curve(r)
    g, n = curve.genus, curve.n
    rng = random.Random(100 + r)
    done = 0
    while done < 20:
        dF = rng.randrange(2 * g, n // 2)
        dG = rng.randrange(2 * g + 1, n // 2)
        if dF + dG >= n:
            continue
        assert ag_code(curve, dF).schur_product(ag_code(curve, dG)) == ag_code(
            curve, dF + dG
        )
        done += 1


@pytest.mark.parametrize("r,m", [(3, 13), (4, 30)])
def test_square_dimension_formula(r, m):
    # k(C^2) = 2m - g + 1 for 2g+1 <= m < n/2
    curve = hermitian_curve(r)
    C = ag_code(curve, m)
    assert C.schur_square().k == 2 * m - curve.genus + 1


def test_desk_square_value(herm3):
    C = ag_code(herm3, 13)
    assert C.k == 11 and C.schur_square().k == 24


def test_random_codes_square_to_full_space(rng):
    # rate-1/3 random codes saturate with overwhelming probability
    from agmceliece import GF

    F = GF(9)
    saturated = 0
    for _ in range(20):
        C = random_code(F, 60, 20, rng)
        if C.schur_square().k == 60:
            saturated += 1
    assert saturated >= 19
