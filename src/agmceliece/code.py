"""Linear codes over GF(q) with the coordinatewise (Schur) product algebra.

A `LinearCode` always stores its generator in canonical RREF, so structural
equality is code equality.  Shortened codes keep full length n with forced
zero coordinates: the filtration of the attack mixes shortened codes into
Schur products, which needs one common ambient length.  The zero code, an
empty position set and an empty kernel take the same path as any other
input: their generators are 0 x n arrays, which rref, kernel and matmul
handle.  Codes are compared with ==, and are not hashable.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DimensionError, FieldMismatchError, InstanceTooLargeError
from .field import Field, Operand, _bounded
from . import matrix as mx

# minimum-distance enumeration refuses beyond q^k of this size
_ENUM_GUARD = 1 << 24
# the low-weight search over parity-check columns refuses beyond this many ops
_WEIGHT_SEARCH_LIMIT = 20_000_000


class LinearCode:
    """Subspace of GF(q)^n, canonical generator rows.

    A code is immutable: gen and pivots are read-only, so the prepared
    generator and the dual it keeps once computed stay valid, and one code
    may be shared, as `ag_code` shares a curve's codes."""

    __slots__ = ("field", "n", "gen", "pivots", "_prepared", "_dual")

    def __init__(self, field: Field, n: int, gen_rows):
        self.field = field
        self.n = int(n)
        a = _bounded(gen_rows, "generator", (None, self.n), field.q)
        R, rank, piv = mx.rref(field, a)
        g = R[:rank].copy()
        g.setflags(write=False)
        self.gen = g
        self.pivots = np.array(piv, dtype=np.int64)
        self.pivots.setflags(write=False)
        self._prepared = None
        self._dual = None

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

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}]({self.field!r})"

    def _check_peer(self, other: "LinearCode"):
        if self.field != other.field:
            raise FieldMismatchError("codes over different fields")
        if self.n != other.n:
            raise DimensionError(f"code lengths differ: {self.n} vs {other.n}")

    @property
    def prepared(self) -> Operand:
        """The generator as a fixed `Field.matmul` operand, prepared on first use."""
        if self._prepared is None:
            self._prepared = self.field.prepare(self.gen)
        return self._prepared

    def contains(self, v) -> bool:
        """Exact membership: gen is canonical, so v is a codeword iff
        v = v[pivots] * gen."""
        v = _bounded(v, "vector", (self.n,), self.field.q)
        coded = self.field.matmul(v[self.pivots], self.prepared).ravel()
        return not self.field.sub(v, coded).any()

    # -- duality ---------------------------------------------------------------

    def dual(self) -> "LinearCode":
        """C^perp, computed on first use and kept; it does not point back to C."""
        if self._dual is None:
            self._dual = LinearCode(self.field, self.n, mx.kernel(self.field, self.gen))
        return self._dual

    def parity_check(self) -> np.ndarray:
        """Generator of the dual, i.e. a parity-check matrix."""
        return self.dual().gen

    # -- Schur algebra ------------------------------------------------------------

    def schur_product(self, other: "LinearCode") -> "LinearCode":
        self._check_peer(other)
        if self is other or self == other:
            return self.schur_square()
        prods = self.field.mul(self.gen[:, None, :], other.gen[None])
        return LinearCode(self.field, self.n, prods.reshape(-1, self.n))

    def schur_square(self) -> "LinearCode":
        iu, ju = np.triu_indices(self.k)
        prods = self.field.mul(self.gen[iu], self.gen[ju])
        return LinearCode(self.field, self.n, prods)

    # -- coordinate surgery ----------------------------------------------------------

    def _check_positions(self, pos) -> list[int]:
        pos = sorted(set(int(i) for i in pos))
        if pos and (pos[0] < 0 or pos[-1] >= self.n):
            raise DimensionError(f"positions {pos} outside [0, {self.n})")
        return pos

    def shorten(self, pos) -> "LinearCode":
        """Subcode vanishing on the given coordinates, kept at full length."""
        pos = self._check_positions(pos)
        coeff = mx.kernel(self.field, self.gen[:, pos].T)
        return LinearCode(self.field, self.n, self.field.matmul(coeff, self.gen))

    def zero_coordinates(self) -> list[int]:
        """Coordinates where every codeword vanishes (degeneracy set)."""
        return [int(c) for c in np.nonzero(~self.gen.any(axis=0))[0]]

    # -- metrics -----------------------------------------------------------------

    def codewords(self):
        """Iterate all q^k codewords (guarded); message order is mixed-radix."""
        if self.field.q ** self.k > _ENUM_GUARD:
            raise InstanceTooLargeError(
                f"enumeration of q^k = {self.field.q}^{self.k} codewords refused"
            )
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

        Checked as a dependency among w columns of a parity-check matrix,
        which stays feasible when w is small even if q^k is astronomically
        large.
        """
        if self.k == 0 or w <= 0:
            return False
        if w > self.n - self.k:
            return True  # Singleton: d <= n - k + 1
        total = math.comb(self.n, w) * w * w
        if total > _WEIGHT_SEARCH_LIMIT:
            if self.field.q ** self.k <= _ENUM_GUARD:
                return any(
                    0 < int(np.count_nonzero(c)) <= w for c in self.codewords()
                )
            raise InstanceTooLargeError(
                f"weight-{w} search needs ~{total} ops (limit {_WEIGHT_SEARCH_LIMIT})"
            )
        H = self.parity_check()
        # a dependent set of fewer columns extends to a dependent set of w
        for cols in itertools.combinations(range(self.n), w):
            if mx.rref(self.field, H[:, cols].T)[1] < w:
                return True
        return False

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "n": self.n,
            "gen": self.gen.tolist(),
        }


def conductor(field: Field, X: np.ndarray | Operand, Y: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Rows spanning {z in row(X) : H (z*y)^T = 0 for every row y of Y}.

    With H a parity check of S this is row(X) ∩ Cond(row(Y), S), where
    Cond(Y, S) = {z : z*Y within S} = (Y*S^perp)^perp is the conductor of Y
    into S.  The unknowns are coefficients over the rows of X, constrained by
    one block H (X*y)^T = (H*y) X^T per row y of Y, all built by one product.
    The rows are independent when X's are, but not canonical: wrap them in
    LinearCode for a canonical code.  X may be a prepared operand.
    """
    hy = field.mul(Y[:, None, :], H[None, :, :]).reshape(-1, Y.shape[1])
    # the constraint matrix (H*y) X^T, as (X (H*y)^T)^T so that X enters untransposed
    M = field.matmul(X, hy.T).T
    return field.matmul(mx.kernel(field, M), X)
