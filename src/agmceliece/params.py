"""Closed-form parameter and work-factor calculators.

Reproduces the derivable columns of the comparison tables (dimension, error
budget, key size) exactly, and evaluates the big-O work factors with
constant 1: the printed w1/w2 table columns are loose anchors, not targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from .errors import ParameterError
from .field import prime_power

# each family: the descriptor key of its parameter, and (q, g, n) from that parameter
_CURVES = {
    "hermitian": ("r", lambda r: (r * r, r * (r - 1) // 2, r ** 3)),
    "suzuki": ("q0", lambda q0: (2 * q0 * q0, q0 * (2 * q0 * q0 - 1), (2 * q0 * q0) ** 2)),
}


def scheme_t(m: int, g: int) -> int:
    """Error budget: t = floor((d* - g - 1) / 2) with d* = m - 2g + 2."""
    return (m - 3 * g + 1) // 2


def _systems_solved(t: int, g: int, algorithm: int) -> int:
    """lambda, the filtration systems solved to reach B_(t+g+1): t+g for
    Algorithm 1, 2*ceil(log2(t+g)) + 2 for Algorithm 2."""
    if algorithm == 1:
        return t + g
    if algorithm == 2:
        return 2 * math.ceil(math.log2(t + g)) + 2 if t + g >= 2 else 2
    raise ParameterError(f"unknown algorithm {algorithm}")


def curve_key(kind: str) -> str:
    """The descriptor key ("r" or "q0") naming the family's parameter."""
    if kind not in _CURVES:
        raise ParameterError(f"unknown curve kind {kind!r}")
    return _CURVES[kind][0]


def curve_numbers(kind: str, param: int) -> tuple[int, int, int]:
    """(q, g, n) for the named curve family.

    Refuses a parameter that names no curve: r must be a prime power and q0
    a power of 2, both within the field bound.
    """
    key = curve_key(kind)  # refuses an unknown kind
    p, _ = prime_power(param)
    if kind == "suzuki" and p != 2:
        raise ParameterError(f"suzuki parameter {key}={param} is not a power of 2")
    return _CURVES[kind][1](param)


def check_degree(m: int, g: int, n: int):
    """The scheme's range for the divisor degree: 3g < m < n.

    m > 3g is exactly t = (m - 3g + 1) // 2 >= 1, and m < n keeps the code
    proper; keygen, scheme_params and SecretKey all use this range.
    """
    if not n > m > 3 * g:
        raise ParameterError(f"need n > m > 3g = {3 * g}, got m = {m} (n = {n})")


@dataclass
class ParamReport:
    curve: str
    param: int
    q: int
    g: int
    n: int
    m: int
    k_pub: int
    d_star: int
    t: int
    key_size_bytes: int
    key_size_kb: int
    isd_bits: float
    attack_bits_alg1: float
    attack_bits_alg2: float
    lambda_alg1: int
    lambda_alg2: int

    def to_dict(self) -> dict:
        return asdict(self)


def scheme_params(kind: str, param: int, m: int) -> ParamReport:
    q, g, n = curve_numbers(kind, param)
    check_degree(m, g, n)
    t = scheme_t(m, g)
    k_pub = n - m + g - 1
    key_bytes = round(n * k_pub * math.log2(q) / 8)
    return ParamReport(
        curve=kind,
        param=param,
        q=q,
        g=g,
        n=n,
        m=m,
        k_pub=k_pub,
        d_star=m - 2 * g + 2,
        t=t,
        key_size_bytes=key_bytes,
        key_size_kb=round(key_bytes / 1000),
        isd_bits=isd_workfactor(n, k_pub, t, q),
        attack_bits_alg1=attack_workfactor(n, q, t, g, algorithm=1),
        attack_bits_alg2=attack_workfactor(n, q, t, g, algorithm=2),
        lambda_alg1=_systems_solved(t, g, 1),
        lambda_alg2=_systems_solved(t, g, 2),
    )


def isd_workfactor(n: int, k: int, t: int, q: int) -> float:
    """log2 of k^2 n (C(n,t)/C(n-k,t)) log2(q)^2, exact binomials."""
    if not 0 <= t <= n - k:
        raise ParameterError(f"need 0 <= t <= n-k, got t = {t}, n-k = {n - k}")
    ratio_bits = _log2_int(math.comb(n, t)) - _log2_int(math.comb(n - k, t))
    return math.log2(k * k * n) + ratio_bits + 2 * math.log2(math.log2(q))


def attack_workfactor(n: int, q: int, t: int, g: int, algorithm: int = 2) -> float:
    """log2 of (lambda + 1) n^4 log2(q)^2 for the chosen filtration driver."""
    lam = _systems_solved(t, g, algorithm)
    return math.log2(lam + 1) + 4 * math.log2(n) + 2 * math.log2(math.log2(q))


def _log2_int(v: int) -> float:
    if v <= 0:
        raise ParameterError("log2 of a nonpositive integer")
    if v.bit_length() <= 900:
        return math.log2(v)
    shift = v.bit_length() - 64
    return math.log2(v >> shift) + shift
