"""Decoding with a t-error-correcting pair (A, B) for a code C.

The decoder is the standard kernel/erasure realization: find a nonzero
locator a in A with (a * y) orthogonal to B, read the candidate error
support off a's zero set, then solve the erasure system from C's parity
checks.  Every returned codeword is checked against C unconditionally, also
under `python -O`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .code import LinearCode
from .errors import DecodeFailureError, DimensionError
from . import matrix as mx


@dataclass(frozen=True)
class EcpPair:
    """A t-error-correcting pair (A, B) for the code C."""

    a: LinearCode
    b: LinearCode
    c: LinearCode
    t: int

    def __post_init__(self):
        n = self.c.n
        if self.a.n != n or self.b.n != n:
            raise DimensionError("pair codes must share the length of C")

    def to_dict(self) -> dict:
        return {"A": self.a.to_dict(), "B": self.b.to_dict(), "t": self.t,
                "C": self.c.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "EcpPair":
        return cls(
            LinearCode.from_dict(d["A"]),
            LinearCode.from_dict(d["B"]),
            LinearCode.from_dict(d["C"]),
            int(d["t"]),
        )


@dataclass
class EcpReport:
    """Outcome of verify_ecp: one flag per defining condition."""

    product_orthogonal: bool        # E.1  (A*B) ⊥ C
    locator_dim: bool               # E.2  k(A) > t
    dual_b_distance: bool           # E.3  d(B^⊥) > t
    distance_sum: bool              # E.4  d(A) + d(C) > n
    mode: str = "exact"
    details: dict = dc_field(default_factory=dict)

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
    e1 = A.schur_product(B).is_subcode_of(C.dual())
    e2 = A.k > t
    details: dict = {}
    if designed is not None:
        d_a, d_bdual, d_c = designed
        e3 = d_bdual > t
        e4 = d_a + d_c > n
        details.update({"d_A": d_a, "d_Bdual": d_bdual, "d_C": d_c})
        return EcpReport(e1, e2, e3, e4, mode="designed", details=details)
    # exact: d(B^⊥) > t  <=>  B^⊥ has no nonzero word of weight <= t
    e3 = not B.dual().has_word_of_weight_at_most(t)
    d_a = A.minimum_distance()
    details["d_A"] = d_a
    w = n - d_a
    if w <= 0:
        e4 = C.k > 0  # d(C) >= 1 suffices
    else:
        e4 = not C.has_word_of_weight_at_most(w)
    return EcpReport(e1, e2, e3, e4, mode="exact", details=details)


def _locator_space(pair: EcpPair, y: np.ndarray) -> np.ndarray:
    """Basis of M(y) = {a in A : (a*y) . b = 0 for all b in B}, as rows."""
    F = pair.a.field
    GA = pair.a.gen
    GB = pair.b.gen
    # K[j, i] = (a_i * y) . b_j  ==>  K = GB @ (GA * y)^T; want K lambda^T = 0
    K = F.matmul(GB, F.mul(GA, y[None, :]).T)
    coeff = mx.kernel(F, K)  # rows: coefficient vectors over GA
    if coeff.shape[0] == 0:
        return np.zeros((0, pair.c.n), dtype=np.int64)
    return F.matmul(coeff, GA)


def ecp_decode(pair: EcpPair, y, collect_locators: bool = False):
    """Split y = c + e with c in C and wt(e) <= t, or raise DecodeFailureError.

    Locator candidates are tried in canonical basis order; an inconsistent or
    non-unique erasure system moves on to the next candidate rather than
    guessing.
    """
    F = pair.c.field
    n = pair.c.n
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    if y.size != n:
        raise DimensionError(f"received word has length {y.size}, expected {n}")
    H = pair.c.parity_check()
    syndrome = F.matmul(H, y[:, None]).ravel() if H.shape[0] else np.zeros(0, dtype=np.int64)
    locators = _locator_space(pair, y)
    if locators.shape[0] == 0:
        raise DecodeFailureError("pair cannot locate: M(y) = 0")
    tried = 0
    for a in locators:
        tried += 1
        J = np.nonzero(a == 0)[0]
        e = np.zeros(n, dtype=np.int64)
        if J.size:
            R, rank, piv = mx.rref(F, np.hstack([H[:, J], syndrome[:, None]]))
            if J.size in piv:
                continue  # inconsistent erasure system
            if rank < J.size:
                continue  # non-unique erasure fill-in
            e[J] = R[: J.size, -1]
        else:
            if syndrome.any():
                continue
        wt = int(np.count_nonzero(e))
        if wt > pair.t:
            continue
        c = F.sub(y, e)
        if not pair.c.contains(c):
            raise DecodeFailureError("soundness check failed: decoded word is not in C")
        if collect_locators:
            return c, e, locators
        return c, e
    raise DecodeFailureError(
        f"no locator of {tried} candidates produced a consistent weight-<={pair.t} error"
    )
