"""Decoding with a t-error-correcting pair (A, B) for a code C.

The decoder is the standard kernel/erasure realization: find a nonzero
locator a in M(y) = A ∩ Cond(<y>, B^perp), i.e. with (a * y) orthogonal to
B, read the candidate error support off a's zero set, then solve the
erasure system from C's parity checks.  Every returned codeword is checked
against C unconditionally, also under `python -O`.  A `Decoder` prepares a
pair and a generator matrix of C once, for receivers that decode many words
into messages: every fixed matrix a decode multiplies by is a prepared
`Field.matmul` operand, expanded into float digits by the first decode only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .code import LinearCode, conductor
from .errors import DecodeFailureError, DimensionError
from .field import Operand, _bounded
from . import matrix as mx


@dataclass(frozen=True)
class EcpPair:
    """A t-error-correcting pair (A, B) for the code C."""

    a: LinearCode
    b: LinearCode
    c: LinearCode
    t: int

    def __post_init__(self):
        self.c._check_peer(self.a)
        self.c._check_peer(self.b)

    @cached_property
    def parity_check(self) -> Operand:
        """C's parity-check matrix, computed and prepared once per pair."""
        return self.c.field.prepare(self.c.parity_check())


@dataclass
class EcpReport:
    """Outcome of verify_ecp: one flag per defining condition."""

    product_orthogonal: bool        # E.1  (A*B) ⊥ C
    locator_dim: bool               # E.2  k(A) > t
    dual_b_distance: bool           # E.3  d(B^⊥) > t
    distance_sum: bool              # E.4  d(A) + d(C) > n
    mode: str = "exact"

    @property
    def all_pass(self) -> bool:
        return (
            self.product_orthogonal
            and self.locator_dim
            and self.dual_b_distance
            and self.distance_sum
        )


def verify_ecp(pair: EcpPair, designed: tuple[int, int, int] | None = None) -> EcpReport:
    """Check E.1-E.4.

    With `designed = (d_A, d_Bdual, d_C)` the distance conditions use the
    supplied lower bounds.  Without it the conditions are decided exactly:
    d(A) by enumeration (A is small by design), and the two threshold
    conditions by bounded-weight codeword search, both size-guarded.
    """
    A, B, C, t = pair.a, pair.b, pair.c, pair.t
    n = C.n
    # E.1: A within Cond(B, C^perp); C's generator is a parity check of C^perp
    e1 = conductor(A.field, A.gen, B.gen, C.gen).shape[0] == A.k
    e2 = A.k > t
    if designed is not None:
        d_a, d_bdual, d_c = designed
        return EcpReport(e1, e2, d_bdual > t, d_a + d_c > n, mode="designed")
    # exact: d(B^⊥) > t  <=>  B^⊥ has no nonzero word of weight <= t
    e3 = not B.dual().has_word_of_weight_at_most(t)
    w = n - A.minimum_distance()
    if w <= 0:
        e4 = C.k > 0  # d(C) >= 1 suffices
    else:
        e4 = not C.has_word_of_weight_at_most(w)
    return EcpReport(e1, e2, e3, e4)


def ecp_decode(pair: EcpPair, y):
    """Split y = c + e with c in C and wt(e) <= t, or raise DecodeFailureError.

    Locator candidates are tried in canonical basis order; an inconsistent or
    non-unique erasure system moves on to the next candidate rather than
    guessing.
    """
    F = pair.c.field
    n = pair.c.n
    y = _bounded(y, "received word", (n,), F.q)
    H = pair.parity_check
    syndrome = F.matmul(H, y[:, None]).ravel()
    # M(y) = A ∩ Cond(<y>, B^perp); B's generator is a parity check of B^perp
    locators = conductor(F, pair.a.prepared, y[None, :], pair.b.gen)
    if locators.shape[0] == 0:
        raise DecodeFailureError("pair cannot locate: M(y) = 0")
    tried = 0
    for a in locators:
        tried += 1
        J = np.nonzero(a == 0)[0]
        R, rank, piv = mx.rref(F, np.hstack([H.matrix[:, J], syndrome[:, None]]))
        if J.size in piv:
            continue  # inconsistent erasure system
        if rank < J.size:
            continue  # non-unique erasure fill-in
        e = np.zeros(n, dtype=np.int64)
        e[J] = R[: J.size, -1]
        wt = int(np.count_nonzero(e))
        if wt > pair.t:
            continue
        c = F.sub(y, e)
        if not pair.c.contains(c):
            raise DecodeFailureError("soundness check failed: decoded word is not in C")
        return c, e
    raise DecodeFailureError(
        f"no locator of {tried} candidates produced a consistent weight-<={pair.t} error"
    )


class Decoder:
    """An error-correcting pair prepared to decode many words into messages.

    Built once from the pair and a k x n generator matrix G of C with
    independent rows.  It keeps C's parity check (on the pair), an
    information set I of G and G[:, I]^-1, both read off one elimination,
    so a decode is `ecp_decode` plus one matmul, msg = c[I] * G[:, I]^-1,
    and an exact check that msg * G = c.  G and G[:, I]^-1 are read-only
    prepared operands, as are the pair's parity check and the generators of
    A and C once a decode has used them.
    """

    __slots__ = ("pair", "g", "info_set", "info_inv")

    def __init__(self, pair: EcpPair, g):
        F, n = pair.c.field, pair.c.n
        g = _bounded(g, "generator", (None, n), F.q)
        k = g.shape[0]
        # rref([G | 1]) = [rref(G) | E] with E G = rref(G); when G has rank k,
        # all k pivots I lie among G's n columns and E = G[:, I]^-1
        R, _, piv = mx.rref(F, np.hstack([g, np.eye(k, dtype=np.int64)]))
        rank = sum(c < n for c in piv)
        if rank != k:
            raise DimensionError(f"generator has rank {rank}, expected {k}")
        pair.parity_check  # computed here once, not by the first decode
        self.pair = pair
        self.g = F.prepare(g)
        self.info_set = np.array(piv, dtype=np.int64)
        self.info_set.setflags(write=False)
        self.info_inv = F.prepare(R[:, n:])

    def decode(self, y) -> np.ndarray | None:
        """The message whose codeword is within t of y, or None when the
        decoded codeword lies outside the row space of G.

        Decoding failures of the pair raise DecodeFailureError, a word of the
        wrong shape DimensionError, a rep outside [0, q) ValueError.
        """
        F = self.pair.c.field
        c, _e = ecp_decode(self.pair, y)
        msg = F.matmul(c[self.info_set], self.info_inv).ravel()
        if not np.array_equal(F.matmul(msg, self.g).ravel(), c):
            return None
        return msg
