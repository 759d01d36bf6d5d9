"""Key-recovery attack: from (G_pub, t) alone, rebuild a t-error-correcting
pair and decrypt.

Pipeline: recover (m, g) from the Schur square of the dual, compute the
P-filtration B_s = C_L(F - s*P) down to s = t+g+1 by solving the two
characterizing linear problems, repair the forced zero coordinate, and take
A0 = (B_hat * C_pub)^perp.  Everything uses only the public row space.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .code import LinearCode
from .ecp import EcpPair, ecp_decode
from .errors import (
    AttackError,
    FiltrationError,
    ParameterError,
    SquareSaturatedError,
)
from . import matrix as mx


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
    degenerate = set(C.zero_coordinates())
    for i in range(C.n):
        if i not in degenerate:
            return i
    raise ParameterError("code is identically zero; no usable coordinate")


def init_filtration(C: LinearCode, p_index: int) -> tuple[LinearCode, LinearCode]:
    """(B_0, B_1) = (C, C shortened at P), both at full length."""
    if p_index in C.zero_coordinates():
        raise ParameterError(f"coordinate {p_index} is degenerate; choose another P")
    B1 = C.shorten([p_index])
    if B1.k != C.k - 1:
        raise FiltrationError(f"shortening dropped dimension by {C.k - B1.k}, expected 1")
    return C, B1


def _solution_space(
    candidate: LinearCode, partner: LinearCode, product_space: LinearCode
) -> LinearCode:
    """Solve  z in candidate  and  z * partner  contained in  product_space.

    Returns the solution space, canonical.  One block of linear constraints
    per basis vector of `partner`, unknowns = coefficients over `candidate`.
    """
    F = candidate.field
    n = candidate.n
    if product_space.k >= n:
        raise FiltrationError(
            "product space saturates the ambient space; constraints are vacuous "
            "(parameters outside the guaranteed regime)"
        )
    H = product_space.parity_check()          # (n - kS) x n
    G = candidate.gen                          # kc x n
    kc = G.shape[0]
    blocks = []
    for b in partner.gen:
        # rows: H @ (G * b)^T  -> (n - kS) x kc
        blocks.append(F.matmul(H, F.mul(G, b[None, :]).T))
    M = np.vstack(blocks) if blocks else np.zeros((0, kc), dtype=np.int64)
    coeff = mx.kernel(F, M)
    rows = (
        F.matmul(coeff, G) if coeff.shape[0] else np.zeros((0, n), dtype=np.int64)
    )
    return LinearCode(F, n, rows)


def filtration_step(
    B_s: LinearCode, B_sm1: LinearCode, expect_drop: bool = True
) -> LinearCode:
    """B_{s+1} = { z in B_s : z * B_{s-1} within (B_s)^2 }."""
    out = _solution_space(B_s, B_sm1, B_s.schur_square())
    if expect_drop and out.k != B_s.k - 1:
        raise FiltrationError(
            f"filtration step: dimension {B_s.k} -> {out.k}, expected drop of exactly 1"
        )
    return out


def filtration_step_doubling(
    B_hi: LinearCode, B_lo: LinearCode, B_0: LinearCode, expected_dim: int | None = None
) -> LinearCode:
    """B_s from B_hi = B_floor((s+1)/2) and B_lo = B_floor(s/2):
    z in B_hi  and  z * B_0  within  B_lo * B_hi."""
    out = _solution_space(B_hi, B_0, B_lo.schur_product(B_hi))
    if expected_dim is not None and out.k != expected_dim:
        raise FiltrationError(
            f"doubling step: dimension {out.k}, expected {expected_dim}"
        )
    return out


def run_algorithm_1(
    B0: LinearCode, B1: LinearCode, target: int
) -> tuple[dict[int, LinearCode], int]:
    """Repeated single steps: B_2, ..., B_target.  Returns (map, systems solved)."""
    filt = {0: B0, 1: B1}
    solves = 0
    for s in range(2, target + 1):
        filt[s] = filtration_step(filt[s - 1], filt[s - 2])
        solves += 1
    return filt, solves


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
    filt = {0: B0, 1: B1}
    solves = 0

    def put(s: int, code: LinearCode):
        if s in filt:
            if filt[s] != code:
                raise FiltrationError(f"dyadic chain disagrees with itself at index {s}")
        else:
            filt[s] = code

    put(2, filtration_step(filt[1], filt[0]))
    solves += 1
    put(3, filtration_step(filt[2], filt[1]))
    solves += 1
    levels = math.ceil(math.log2(T))
    for s in range(levels - 1, -1, -1):
        i = T >> s
        for sigma in (i, i + 1):
            hi = (sigma + 1) // 2
            lo = sigma // 2
            if hi not in filt or lo not in filt:
                raise FiltrationError(
                    f"dyadic chain needs B_{hi}, B_{lo} for sigma={sigma}; missing"
                )
            expected = filt[0].k - sigma if sigma <= T + 1 else None
            code = filtration_step_doubling(filt[hi], filt[lo], filt[0], expected)
            solves += 1
            put(sigma, code)
    return filt, solves


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
    new_row = None
    for row in B_tg.gen:
        if not B_tg1.contains(row):
            new_row = row.copy()
            break
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
    c: LinearCode
    p_index: int
    filtration: dict[int, LinearCode]
    b_hat: LinearCode
    pair: EcpPair
    algorithm_used: int
    systems_solved: int
    stage_seconds: dict[str, float] = dc_field(default_factory=dict)

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


def attack_pipeline(pk, algorithm: int = 2, p_index: int | None = None) -> AttackTranscript:
    """Run the five attack steps against a public key.

    (m, g) are recovered from the public code alone.
    """
    stage_seconds: dict[str, float] = {}
    c_pub = pk.code()
    t = pk.t

    t0 = time.perf_counter()
    try:
        m, g = recover_params(c_pub)
    except (ParameterError, SquareSaturatedError) as exc:
        raise AttackError("recover-params", str(exc)) from exc
    stage_seconds["recover_params"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    C = c_pub.dual()
    stage_seconds["dualize"] = time.perf_counter() - t0

    try:
        if algorithm == 1:
            guard_algorithm_1(c_pub.n, g, m, t)
        elif algorithm == 2:
            guard_algorithm_2(c_pub.n, g, m, t)
        else:
            raise ParameterError(f"unknown algorithm {algorithm}")
    except ParameterError as exc:
        raise AttackError("guards", str(exc)) from exc

    t0 = time.perf_counter()
    try:
        pi = choose_p_index(C) if p_index is None else p_index
        B0, B1 = init_filtration(C, pi)
        target = t + g + 1
        if algorithm == 1:
            filt, solves = run_algorithm_1(B0, B1, target)
        else:
            filt, solves = run_algorithm_2(B0, B1, target)
    except (ParameterError, FiltrationError) as exc:
        raise AttackError("filtration", str(exc)) from exc
    stage_seconds["filtration"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        b_hat = repair_degenerate(filt[t + g], filt[t + g + 1], pi)
    except (ParameterError, FiltrationError) as exc:
        raise AttackError("repair", str(exc)) from exc
    stage_seconds["repair"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    pair = build_ecp(b_hat, c_pub, t)
    stage_seconds["build_ecp"] = time.perf_counter() - t0

    return AttackTranscript(
        recovered_m=m,
        recovered_g=g,
        c=C,
        p_index=pi,
        filtration=filt,
        b_hat=b_hat,
        pair=pair,
        algorithm_used=algorithm,
        systems_solved=solves,
        stage_seconds=stage_seconds,
    )


def attack_decrypt(transcript: AttackTranscript, pk, y) -> np.ndarray:
    """Decode a ciphertext with the recovered pair and unencode against G_pub."""
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    c, _e = ecp_decode(transcript.pair, y)
    msg = mx.solve(pk.field, pk.g_pub.T, c)
    if msg is None:
        raise AttackError("attack-decrypt", "decoded word not in the public row space")
    return msg


# -- extension beyond the direct guard ----------------------------------------------

def sliding_window_subsets(n: int, size: int, count: int, p_index: int = 0) -> list[list[int]]:
    """Default subset strategy: `count` windows of `size` coordinates slid
    across the non-P positions so that the common intersection is empty."""
    positions = [i for i in range(n) if i != p_index]
    if size * 1 > len(positions) or count < 1:
        raise ParameterError("not enough coordinates for the requested windows")
    if count == 1 and size > 0:
        raise ParameterError("a single nonempty window cannot have empty intersection")
    step = max(1, size)  # disjoint consecutive windows
    subsets = []
    for j in range(count):
        start = j * step
        if start + size > len(positions):
            raise ParameterError("windows run past the coordinate range")
        subsets.append(positions[start : start + size])
    return subsets


def extended_filtration(
    C: LinearCode,
    p_index: int,
    subsets: list[list[int]],
    target: int,
    algorithm: int = 2,
) -> LinearCode:
    """B_target as a sum of subset-shortened filtrations (the high-m route).

    Each subset I_j spawns the chain started from (shorten(C, I_j),
    shorten(C, {P} u I_j)); the returned code is the row-space sum of the
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
    common = set.intersection(*sets) if sets else set()
    if len(sets) > 1 and common:
        raise ParameterError(f"subsets share common coordinates {sorted(common)}")
    if len(sets) == 1 and sets[0]:
        raise ParameterError("a single nonempty subset cannot have empty intersection")
    k_c1 = C.shorten([p_index]).k
    tails = []
    for j in range(len(sets) + 1):
        tail = sets[j:]
        tails.append(set.intersection(*tail) if tail else None)
    for j, s in enumerate(sets):
        upper = len(tails[j + 1]) if tails[j + 1] is not None else 0
        lower = len(tails[j]) if tails[j] is not None else 0
        if not k_c1 - len(s) >= upper - lower:
            raise ParameterError(
                f"subset {j} violates the dimension condition "
                f"(k - |I| = {k_c1 - len(s)} < {upper - lower})"
            )
    total = None
    for s in sets:
        B0j = C.shorten(sorted(s))
        B1j = C.shorten(sorted(s | {p_index}))
        if B1j.k != B0j.k - 1:
            raise FiltrationError("subset chain start is not codimension 1")
        runner = run_algorithm_1 if algorithm == 1 else run_algorithm_2
        filt, _ = runner(B0j, B1j, target)
        piece = filt[target]
        total = piece if total is None else LinearCode(
            C.field, C.n, np.vstack([total.gen, piece.gen])
        )
    return total
