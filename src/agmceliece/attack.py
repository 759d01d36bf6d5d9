"""Key-recovery attack: from (G_pub, t) alone, rebuild a t-error-correcting
pair and decrypt.

Pipeline: recover (m, g) from the Schur square of the dual, compute the
P-filtration B_s = C_L(F - s*P) down to s = t+g+1 as conductors,
B_{s+1} = B_s ∩ Cond(B_{s-1}, B_s^(2)), repair the forced zero coordinate,
and take A0 = (B_hat * C_pub)^perp.  Everything uses only the public row space.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .code import LinearCode, conductor
from .ecp import Decoder, EcpPair
from .errors import (
    AttackError,
    DimensionError,
    FiltrationError,
    ParameterError,
    SquareSaturatedError,
)


# -- Step 1: parameter recovery -------------------------------------------------

def recover_params(c_pub: LinearCode) -> tuple[int, int]:
    """(m, g) = (k2 - k1, k2 - 2*k1 + 1) from C = dual(C_pub) and its square.

    Exact when the hidden parameters satisfy 2g+1 <= m < n/2; a saturated
    square (k2 = n, the generic behaviour of random codes) raises
    SquareSaturatedError.
    """
    C = c_pub.dual()
    k1 = C.k
    k2 = C.schur_square().k
    if k2 >= c_pub.n:
        raise SquareSaturatedError(
            f"Schur square saturates (k2 = {k2} = n); code too large or unstructured"
        )
    m = k2 - k1
    g = k2 - 2 * k1 + 1
    if g < 0 or m <= 0:
        raise ParameterError(f"recovered (m, g) = ({m}, {g}) inconsistent")
    return m, g


# -- Steps 2-3: the P-filtration --------------------------------------------------

def choose_p_index(C: LinearCode) -> int:
    """First coordinate at which C is non-degenerate."""
    usable = np.flatnonzero(C.gen.any(axis=0))
    if not usable.size:
        raise ParameterError("code is identically zero; no usable coordinate")
    return int(usable[0])


def init_filtration(C: LinearCode, p_index: int) -> tuple[LinearCode, LinearCode]:
    """(B_0, B_1) = (C, C shortened at P), both at full length."""
    if p_index in C.zero_coordinates():
        raise ParameterError(f"coordinate {p_index} is degenerate; choose another P")
    B1 = C.shorten([p_index])
    if B1.k != C.k - 1:
        raise FiltrationError(f"shortening dropped dimension by {C.k - B1.k}, expected 1")
    return C, B1


def filtration_step_doubling(B_hi: LinearCode, B_lo: LinearCode, B_0: LinearCode) -> LinearCode:
    """B_σ = B_hi ∩ Cond(B_0, B_lo * B_hi), σ = hi + lo - (index of B_0): the
    z in B_hi with z * B_0 inside B_lo * B_hi.  Each filtration index costs one
    dimension, so the result has k(B_hi) + k(B_lo) - k(B_0)."""
    product = B_lo.schur_product(B_hi)
    if product.k >= B_hi.n:
        raise FiltrationError(
            "product space saturates the ambient space; constraints are vacuous "
            "(parameters outside the guaranteed regime)"
        )
    F = B_hi.field
    out = LinearCode(F, B_hi.n, conductor(F, B_hi.gen, B_0.gen, product.parity_check()))
    expected = B_hi.k + B_lo.k - B_0.k
    if out.k != expected:
        raise FiltrationError(
            f"filtration step: dimension {B_hi.k} -> {out.k}, expected {expected}"
        )
    return out


def _run_chain(
    B0: LinearCode, B1: LinearCode, steps: list[tuple[int, int, int]]
) -> tuple[dict[int, LinearCode], int]:
    """Solve B_{hi+lo-base} from (B_hi, B_lo, B_base) for each step in order.
    An index solved twice must agree with itself.  Returns (map, systems solved)."""
    filt = {0: B0, 1: B1}
    for hi, lo, base in steps:
        sigma = hi + lo - base
        code = filtration_step_doubling(filt[hi], filt[lo], filt[base])
        if filt.setdefault(sigma, code) != code:
            raise FiltrationError(f"filtration chain disagrees with itself at index {sigma}")
    return filt, len(steps)


def run_algorithm_1(
    B0: LinearCode, B1: LinearCode, target: int
) -> tuple[dict[int, LinearCode], int]:
    """Repeated single steps: B_2, ..., B_target.  Returns (map, systems solved)."""
    return _run_chain(B0, B1, [(s - 1, s - 1, s - 2) for s in range(2, target + 1)])


def run_algorithm_2(
    B0: LinearCode, B1: LinearCode, target: int
) -> tuple[dict[int, LinearCode], int]:
    """Dyadic chain: B_2, B_3 by single steps, then consecutive pairs
    (B_i, B_{i+1}) for i = floor(T / 2^s), s descending, where T = target - 1.

    The level count is ceil(log2 T), so the number of systems solved is
    exactly 2*ceil(log2 T) + 2; indices recomputed at shallow levels are
    cross-checked against the map instead of skipped.
    """
    T = target - 1
    if T < 2:
        raise ParameterError(f"target {target} too small for the dyadic chain")
    # ceil(sigma/2) and floor(sigma/2) lie in {T >> (s+1), (T >> (s+1)) + 1}:
    # the level above solved both, or they are among B_0..B_3
    steps = [(1, 1, 0), (2, 2, 1)] + [
        ((sigma + 1) // 2, sigma // 2, 0)
        for s in range(math.ceil(math.log2(T)) - 1, -1, -1)
        for sigma in (T >> s, (T >> s) + 1)
    ]
    return _run_chain(B0, B1, steps)


# -- Steps 4-5: repair and pair synthesis ---------------------------------------------

def repair_degenerate(
    B_tg: LinearCode, B_tg1: LinearCode, p_index: int
) -> LinearCode:
    """Replace the forced zero at P by 1 on one new generator.

    Picks c in B_{t+g} outside B_{t+g+1}, sets its P entry to 1, and spans
    with B_{t+g+1}; the result is an evaluation code of an equivalent divisor
    with support off the evaluation points.
    """
    if B_tg.k != B_tg1.k + 1:
        raise ParameterError(
            f"repair expects a codimension-1 pair, got k = {B_tg.k}, {B_tg1.k}"
        )
    if p_index not in B_tg.zero_coordinates():
        raise ParameterError(f"coordinate {p_index} is not degenerate in B_(t+g)")
    new_row = next((row.copy() for row in B_tg.gen if not B_tg1.contains(row)), None)
    if new_row is None:
        raise ParameterError("no generator of B_(t+g) lies outside B_(t+g+1)")
    new_row[p_index] = 1
    rows = np.vstack([new_row[None, :], B_tg1.gen])
    out = LinearCode(B_tg.field, B_tg.n, rows)
    if out.k != B_tg.k:
        raise FiltrationError("repaired code lost rank")
    return out


def build_ecp(b_hat: LinearCode, c_pub: LinearCode, t: int) -> EcpPair:
    """A0 = (B_hat * C_pub)^perp; (A0, B_hat) is the recovered t-ECP."""
    a0 = b_hat.schur_product(c_pub).dual()
    if a0.k <= t:
        raise AttackError(
            "build-ecp", f"k(A0) = {a0.k} <= t = {t}; attack unsuccessful"
        )
    return EcpPair(a0, b_hat, c_pub, t)


# -- the driver ---------------------------------------------------------------------

@dataclass
class AttackTranscript:
    recovered_m: int
    recovered_g: int
    p_index: int
    filtration: dict[int, LinearCode]
    b_hat: LinearCode
    pair: EcpPair
    algorithm_used: int
    systems_solved: int
    stage_seconds: dict[str, float] = dc_field(default_factory=dict)
    # the decoder attack_decrypt prepared for the last G_pub it saw
    _decoder: Decoder | None = dc_field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "m": self.recovered_m,
            "g": self.recovered_g,
            "p_index": self.p_index,
            "t": self.pair.t,
            "algorithm": self.algorithm_used,
            "lambda": self.systems_solved,
            "b_hat": self.b_hat.to_dict(),
            "a0": self.pair.a.to_dict(),
            "stage_seconds": self.stage_seconds,
        }


def _guard_direct_route(n: int, m: int):
    # the solution-space characterization needs a trivial evaluation kernel on
    # L(2F - P): at 2m >= n the function vanishing simply at every evaluation
    # point corrects any valuation-1 discrepancy and the first step stalls
    # (verified empirically at r=3 m=14 and r=4 m=32: no dimension drop)
    if not 2 * m < n:
        raise ParameterError(
            f"direct route needs m < n/2 = {n / 2}, got m = {m}; "
            "use the extended attack with subsets of size > 2m - n"
        )


def guard_algorithm_1(n: int, g: int, m: int, t: int):
    if not m >= 3 * g + t + 1:
        raise ParameterError(
            f"Algorithm 1 needs m >= 3g+t+1 = {3 * g + t + 1}, got m = {m}; "
            "try Algorithm 2 or the extended attack"
        )
    _guard_direct_route(n, m)


def guard_algorithm_2(n: int, g: int, m: int, t: int):
    if not 2 * m >= 5 * g + t + 2:
        raise ParameterError(
            f"Algorithm 2 needs m >= (5g+t)/2+1 = {(5 * g + t) / 2 + 1}, got m = {m}; "
            "try the extended attack"
        )
    _guard_direct_route(n, m)


# algorithm -> (guard, filtration schedule)
_ALGORITHMS = {
    1: (guard_algorithm_1, run_algorithm_1),
    2: (guard_algorithm_2, run_algorithm_2),
}


@contextlib.contextmanager
def _stage(seconds: dict[str, float], name: str):
    """Time the block into seconds[name]; a refusal inside it is an
    AttackError of that stage (SquareSaturatedError is a ParameterError)."""
    t0 = time.perf_counter()
    try:
        yield
    except (ParameterError, FiltrationError) as exc:
        raise AttackError(name, str(exc)) from exc
    seconds[name] = time.perf_counter() - t0


def attack_pipeline(pk, algorithm: int = 2) -> AttackTranscript:
    """Run the five attack steps, each a `_stage`, against a public key;
    (m, g) are recovered from the public code alone."""
    seconds: dict[str, float] = {}
    c_pub = pk.code()
    t = pk.t
    with _stage(seconds, "recover-params"):
        m, g = recover_params(c_pub)
    with _stage(seconds, "guards"):
        if algorithm not in _ALGORITHMS:
            raise ParameterError(f"unknown algorithm {algorithm}")
        guard, run = _ALGORITHMS[algorithm]
        guard(c_pub.n, g, m, t)
    with _stage(seconds, "filtration"):
        C = c_pub.dual()
        pi = choose_p_index(C)
        filt, solves = run(*init_filtration(C, pi), t + g + 1)
    with _stage(seconds, "repair"):
        b_hat = repair_degenerate(filt[t + g], filt[t + g + 1], pi)
    with _stage(seconds, "build-ecp"):
        pair = build_ecp(b_hat, c_pub, t)
    return AttackTranscript(
        recovered_m=m,
        recovered_g=g,
        p_index=pi,
        filtration=filt,
        b_hat=b_hat,
        pair=pair,
        algorithm_used=algorithm,
        systems_solved=solves,
        stage_seconds=seconds,
    )


def attack_decrypt(transcript: AttackTranscript, pk, y) -> np.ndarray:
    """Decode a ciphertext with the recovered pair and unencode against G_pub.

    The decoder is prepared on the first call and again only when a
    different G_pub arrives.
    """
    decoder = transcript._decoder
    if decoder is None or not np.array_equal(decoder.g.matrix, pk.g_pub):
        try:
            decoder = Decoder(transcript.pair, pk.g_pub)
        except DimensionError as exc:
            raise AttackError("attack-decrypt", f"public generator: {exc}") from exc
        transcript._decoder = decoder
    msg = decoder.decode(y)
    if msg is None:
        raise AttackError("attack-decrypt", "decoded word not in the public row space")
    return msg


# -- extension beyond the direct guard ----------------------------------------------

def extended_filtration(
    C: LinearCode,
    p_index: int,
    subsets: list[list[int]],
    target: int,
) -> LinearCode:
    """B_target as a sum of subset-shortened filtrations (the high-m route).

    Each subset I_j spawns the chain that `init_filtration` starts on
    shorten(C, I_j) at P; the returned code is the row-space sum of the
    depth-`target` members.  Subset admissibility follows the stated
    conditions literally: empty common intersection, and per-j
    k(C(F - P)) - |I_j| >= |intersection tail at j+1| - |intersection tail at j|.
    """
    if not subsets:
        raise ParameterError("need at least one subset")
    sets = [set(int(i) for i in s) for s in subsets]
    if len(sets) != len({frozenset(s) for s in sets}):
        raise ParameterError("subsets must be pairwise different")
    for s in sets:
        if p_index in s:
            raise ParameterError("subsets must avoid the distinguished coordinate P")
    common = set.intersection(*sets)
    if common:
        raise ParameterError(f"subsets share common coordinates {sorted(common)}")
    k_c1 = C.shorten([p_index]).k
    # |I_j ∩ ... ∩ I_last| for each j, and 0 past the last subset
    tails = [len(set.intersection(*sets[j:])) for j in range(len(sets))] + [0]
    for j, s in enumerate(sets):
        if not k_c1 - len(s) >= tails[j + 1] - tails[j]:
            raise ParameterError(
                f"subset {j} violates the dimension condition "
                f"(k - |I| = {k_c1 - len(s)} < {tails[j + 1] - tails[j]})"
            )
    pieces = [
        run_algorithm_2(*init_filtration(C.shorten(sorted(s)), p_index), target)[0][target].gen
        for s in sets
    ]
    return LinearCode(C.field, C.n, np.vstack(pieces))
