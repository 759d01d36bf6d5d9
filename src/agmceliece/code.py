"""Linear codes over GF(q) with the coordinatewise (Schur) product algebra.

A `LinearCode` always stores its generator in canonical RREF, so structural
equality is code equality.  Shortened codes keep full length n with forced
zero coordinates: the filtration of the attack mixes shortened codes into
Schur products, which needs one common ambient length.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionError, FieldMismatchError, InstanceTooLargeError
from .field import Field
from . import matrix as mx

# minimum-distance enumeration refuses beyond q^k of this size
_ENUM_GUARD = 1 << 24
# the low-weight search over parity-check columns refuses beyond this many ops
_WEIGHT_SEARCH_LIMIT = 20_000_000


class LinearCode:
    """Subspace of GF(q)^n, canonical generator rows."""

    __slots__ = ("field", "n", "gen", "pivots")

    def __init__(self, field: Field, n: int, gen_rows):
        self.field = field
        self.n = int(n)
        a = mx.as_rep_array(field, gen_rows, cols=self.n)
        if a.shape[1] != self.n:
            raise DimensionError(f"generator has {a.shape[1]} cols, expected {self.n}")
        R, rank, piv = mx.rref(field, a)
        g = R[:rank].copy() if rank else np.zeros((0, self.n), dtype=np.int64)
        g.setflags(write=False)
        self.gen = g
        self.pivots = np.array(piv, dtype=np.int64)

    # -- basics -------------------------------------------------------------------

    @property
    def k(self) -> int:
        return self.gen.shape[0]

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and self.field == other.field
            and self.n == other.n
            and self.gen.shape == other.gen.shape
            and bool((self.gen == other.gen).all())
        )

    def __hash__(self):
        return hash((self.field, self.n, self.gen.tobytes()))

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}]({self.field!r})"

    def _check_peer(self, other: "LinearCode"):
        if self.field != other.field:
            raise FieldMismatchError("codes over different fields")
        if self.n != other.n:
            raise DimensionError(f"code lengths differ: {self.n} vs {other.n}")

    @classmethod
    def zero(cls, field: Field, n: int) -> "LinearCode":
        return cls(field, n, np.zeros((0, n), dtype=np.int64))

    @classmethod
    def full(cls, field: Field, n: int) -> "LinearCode":
        return cls(field, n, np.eye(n, dtype=np.int64))

    @classmethod
    def all_ones(cls, field: Field, n: int) -> "LinearCode":
        return cls(field, n, np.ones((1, n), dtype=np.int64))

    def contains(self, v) -> bool:
        """Exact membership: gen is canonical, so v is a codeword iff
        v = v[pivots] * gen."""
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        if v.size != self.n:
            raise DimensionError(f"vector length {v.size} != n = {self.n}")
        return not self.field.sub(v, self.field.matmul(v[self.pivots], self.gen).ravel()).any()

    def is_subcode_of(self, other: "LinearCode") -> bool:
        self._check_peer(other)
        stacked = np.vstack([other.gen, self.gen])
        return mx.rref(self.field, stacked)[1] == other.k

    # -- duality ---------------------------------------------------------------

    def dual(self) -> "LinearCode":
        if self.k == 0:
            return LinearCode.full(self.field, self.n)
        return LinearCode(self.field, self.n, mx.kernel(self.field, self.gen))

    def parity_check(self) -> np.ndarray:
        """Generator of the dual, i.e. a parity-check matrix."""
        return self.dual().gen

    # -- Schur algebra ------------------------------------------------------------

    def schur_product(self, other: "LinearCode") -> "LinearCode":
        self._check_peer(other)
        if self.k == 0 or other.k == 0:
            return LinearCode.zero(self.field, self.n)
        if self is other or self == other:
            return self.schur_square()
        prods = self.field.mul(
            np.repeat(self.gen, other.k, axis=0), np.tile(other.gen, (self.k, 1))
        )
        return LinearCode(self.field, self.n, prods)

    def schur_square(self) -> "LinearCode":
        if self.k == 0:
            return LinearCode.zero(self.field, self.n)
        iu, ju = np.triu_indices(self.k)
        prods = self.field.mul(self.gen[iu], self.gen[ju])
        return LinearCode(self.field, self.n, prods)

    # -- coordinate surgery ----------------------------------------------------------

    def _check_positions(self, pos) -> list[int]:
        pos = sorted(set(int(i) for i in pos))
        if pos and (pos[0] < 0 or pos[-1] >= self.n):
            raise DimensionError(f"positions {pos} outside [0, {self.n})")
        return pos

    def puncture(self, pos) -> "LinearCode":
        """Delete the given coordinates (length shrinks)."""
        pos = self._check_positions(pos)
        keep = [c for c in range(self.n) if c not in set(pos)]
        return LinearCode(self.field, len(keep), self.gen[:, keep])

    def shorten(self, pos) -> "LinearCode":
        """Subcode vanishing on the given coordinates, kept at full length."""
        pos = self._check_positions(pos)
        if not pos or self.k == 0:
            return LinearCode(self.field, self.n, self.gen)
        cols = self.gen[:, pos]  # k x |pos|
        coeff = mx.kernel(self.field, cols.T)
        if coeff.shape[0] == 0:
            return LinearCode.zero(self.field, self.n)
        return LinearCode(self.field, self.n, self.field.matmul(coeff, self.gen))

    def zero_coordinates(self) -> list[int]:
        """Coordinates where every codeword vanishes (degeneracy set)."""
        if self.k == 0:
            return list(range(self.n))
        return [int(c) for c in np.nonzero(~self.gen.any(axis=0))[0]]

    # -- metrics -----------------------------------------------------------------

    def codewords(self):
        """Iterate all q^k codewords (guarded); message order is mixed-radix."""
        if self.field.q ** self.k > _ENUM_GUARD:
            raise InstanceTooLargeError(
                f"enumeration of q^k = {self.field.q}^{self.k} codewords refused"
            )
        if self.k == 0:
            yield np.zeros(self.n, dtype=np.int64)
            return
        batch = 4096
        total = self.field.q ** self.k
        radix = self.field.q
        for start in range(0, total, batch):
            count = min(batch, total - start)
            msgs = np.zeros((count, self.k), dtype=np.int64)
            idx = np.arange(start, start + count)
            for j in range(self.k):
                msgs[:, j] = idx % radix
                idx = idx // radix
            words = self.field.matmul(msgs, self.gen)
            for w in words:
                yield w

    def minimum_distance(self) -> int:
        """Exhaustive minimum weight over nonzero codewords."""
        if self.k == 0:
            raise DimensionError("zero code has no minimum distance")
        best = self.n + 1
        for w in self.codewords():
            wt = int(np.count_nonzero(w))
            if 0 < wt < best:
                best = wt
        return best

    def has_word_of_weight_at_most(self, w: int) -> bool:
        """Exact decision: does the code contain a nonzero word of weight <= w?

        Checked as a <=w-column dependency of a parity-check matrix, which
        stays feasible when w is small even if q^k is astronomically large.
        """
        if self.k == 0 or w <= 0:
            return False
        H = self.parity_check()
        if H.shape[0] == 0:
            return True  # full space
        total = sum(math.comb(self.n, size) * size * size for size in range(1, w + 1))
        if total > _WEIGHT_SEARCH_LIMIT:
            if self.field.q ** self.k <= _ENUM_GUARD:
                return any(
                    0 < int(np.count_nonzero(c)) <= w for c in self.codewords()
                )
            raise InstanceTooLargeError(
                f"weight-{w} search needs ~{total} ops (limit {_WEIGHT_SEARCH_LIMIT})"
            )
        for size in range(1, w + 1):
            for cols in itertools.combinations(range(self.n), size):
                sub = H[:, cols]
                if mx.rref(self.field, sub.T)[1] < size:
                    return True
        return False

    # -- encoding ---------------------------------------------------------------

    def encode(self, msg) -> np.ndarray:
        msg = np.asarray(msg, dtype=np.int64).reshape(-1)
        if msg.size != self.k:
            raise DimensionError(f"message length {msg.size} != k = {self.k}")
        if self.k == 0:
            return np.zeros(self.n, dtype=np.int64)
        return self.field.matmul(msg[None, :], self.gen).ravel()

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "n": self.n,
            "gen": [[int(x) for x in row] for row in self.gen],
        }


def conductor(field: Field, X: np.ndarray, Y: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Rows spanning {z in row(X) : H (z*y)^T = 0 for every row y of Y}.

    With H a parity check of S this is row(X) ∩ Cond(row(Y), S), where
    Cond(Y, S) = {z : z*Y within S} = (Y*S^perp)^perp is the conductor of Y
    into S.  The unknowns are coefficients over the rows of X, constrained by
    one block H (X*y)^T = (H*y) X^T per row y of Y, all built by one product.
    The rows are independent when X's are, but not canonical: wrap them in
    LinearCode for a canonical code.
    """
    M = field.matmul(field.mul(Y[:, None, :], H[None, :, :]).reshape(-1, X.shape[1]), X.T)
    coeff = mx.kernel(field, M)
    if coeff.shape[0] == 0:
        return np.zeros((0, X.shape[1]), dtype=np.int64)
    return field.matmul(coeff, X)
