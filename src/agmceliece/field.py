"""Exact arithmetic in GF(p^k) for prime powers q = p^k <= 2^16.

Elements are represented by integer "reps" in [0, q): the base-p digit
vector of the polynomial residue, packed low-to-high.  There is one field
per (p, k), on its canonical modulus: it is the only modulus built, written
or read.  A `Field` carries that modulus and eagerly built exp/log tables;
all operations accept plain ints or numpy arrays of reps, which is what the
linear-algebra layer uses.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError

MAX_ORDER = 1 << 16

# q up to this bound gets full q x q add/mul lookup tables (fastest path)
_FULL_TABLE_LIMIT = 256


def _ints(data, what: str) -> np.ndarray:
    """JSON integers (a scalar or nested lists) as int64.

    Floats and bools are refused rather than truncated: 0.5 would otherwise
    read as 0 and a tampered artifact would pass for the original.
    """
    a = np.array(data, dtype=object)
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               and -(1 << 63) <= v < 1 << 63 for v in a.flat):
        raise ValueError(f"{what}: entries must be 64-bit integers")
    return a.astype(np.int64)


def _bounded(a, what: str, shape: tuple, bound: int) -> np.ndarray:
    """a as an int64 array of the given shape (None matches any extent) with
    every entry in [0, bound): the one check of an integer array the library
    takes in.  An array must have an integer dtype, and anything else (nested
    lists, JSON data) is read entry by entry by `_ints`, so a float or bool is
    refused, never truncated.  A defect raises ValueError (entries) or
    DimensionError (shape); a negative rep would index the tables from their end."""
    if not isinstance(a, np.ndarray):
        a = _ints(a, what)
    elif a.dtype.kind not in "iu":
        raise ValueError(f"{what}: entries must be 64-bit integers")
    a = a.astype(np.int64, copy=False)
    if a.ndim != len(shape) or any(s not in (None, e) for s, e in zip(shape, a.shape)):
        raise DimensionError(f"{what}: shape {a.shape}, expected {shape}")
    if a.size and (a.min() < 0 or a.max() >= bound):
        raise ValueError(f"{what}: entries outside [0, {bound})")
    return a


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with p prime and p^k = q, refused above MAX_ORDER before any division."""
    if 2 <= q <= MAX_ORDER:
        p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
        k = 1
        while p**k < q:
            k += 1
        if p**k == q:
            return p, k
    raise ParameterError(f"{q} is not a prime power in [2, {MAX_ORDER}]")


class Field:
    """GF(p^k) with its canonical modulus and precomputed tables.

    Immutable after construction; safe to share.  Every (p, k) has exactly one
    field here, built on its canonical modulus f: for k >= 2 the first monic f
    in packed-integer order in which x has order q - 1, and for k = 1 the first
    x - g in g = 1, 2, ... with that property, so g is the smallest primitive
    root.  A monic f with f(0) != 0 in which x has order q - 1 is irreducible
    and primitive (Lidl-Niederreiter, ch. 3), so the walk 1, x, x^2, ... mod f
    that finds the modulus is also the exp table.
    """

    def __init__(self, p: int, k: int = 1):
        if k < 1:
            raise ParameterError("extension degree must be >= 1")
        # k may come from an artifact: bound it before the power, which a huge
        # value would stall (prime_power bounds p itself)
        if k > MAX_ORDER.bit_length():
            raise ParameterError(f"field order {p}^{k} outside [2, {MAX_ORDER}]")
        if prime_power(p)[1] != 1:
            raise ParameterError(f"characteristic {p} is not prime")
        q = p ** k
        if not 2 <= q <= MAX_ORDER:
            raise ParameterError(f"field order {q} outside [2, {MAX_ORDER}]")
        self.p = p
        self.k = k
        self.q = q
        self._places = np.array([p ** i for i in range(k)], dtype=np.int64)
        reps = np.arange(q, dtype=np.int64)
        digits = reps[:, None] // self._places % p
        self._digit_table = digits
        self._digit_floats = digits.astype(np.float64)
        self._neg_table = ((p - digits) % p) @ self._places
        self._build_exp(digits)
        if q <= _FULL_TABLE_LIMIT:
            self._add_table = ((digits[:, None, :] + digits[None, :, :]) % p) @ self._places
            mul = np.zeros((q, q), dtype=np.int64)
            nz = reps[1:]
            mul[np.ix_(nz, nz)] = self._exp_ext[self._log[nz][:, None] + self._log[nz][None, :]]
            self._mul_table = mul
        else:
            self._add_table = None
            self._mul_table = None

    def _build_exp(self, digits: np.ndarray):
        """The canonical modulus and the exp/log tables, from one walk of x."""
        p, k, q = self.p, self.k, self.q
        for tail in range(q - 1, 0, -1) if k == 1 else range(q):
            if tail % p == 0:
                continue  # f(0) = 0: x is no unit
            # times x on digit rows, with f = x^k + tail: x^u -> x^(u+1), x^(k-1) -> -tail
            step = np.vstack([np.eye(k - 1, k, 1, dtype=np.int64), (p - digits[tail]) % p])
            # the walk doubles until it returns to 1, so a short walk stays short
            walk = np.eye(1, k, dtype=np.int64)
            while len(walk) < q and not (walk[1:] @ self._places == 1).any():
                walk, step = np.vstack([walk, walk @ step % p]), step @ step % p
            # x has order q - 1 exactly when its walk first returns to 1 at step q - 1
            returns = np.flatnonzero(walk @ self._places == 1)
            if returns.size > 1 and returns[1] == q - 1:
                break
        else:
            raise AssertionError(f"no primitive polynomial found for GF({p}^{k})")
        self.modulus = tuple(int(c) for c in digits[tail]) + (1,)
        exp = walk[: q - 1] @ self._places
        log = np.full(q, 2 * q + 1, dtype=np.int64)  # sentinel for log(0)
        log[exp] = np.arange(q - 1)
        self._exp = exp
        self._log = log
        # extended exp: legit log-sums reach 2(q-2); sentinel sums land past 2q
        ext = np.zeros(4 * q + 4, dtype=np.int64)
        idx = np.arange(2 * q - 3 if q > 2 else 1)
        ext[: idx.size] = exp[idx % (q - 1)]
        self._exp_ext = ext

    # -- identity / serialization --------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"GF({self.q})" if self.k == 1 else f"GF({self.p}^{self.k})"

    def to_dict(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    @staticmethod
    def from_dict(d: dict) -> "Field":
        """The cached GF(p^k) the artifact names; any modulus but its canonical one is refused."""
        field = GF(int(_ints(d["p"], "p")), int(_ints(d["k"], "k")))
        if _ints(d["modulus"], "modulus").tolist() != list(field.modulus):
            raise ParameterError(f"modulus is not the canonical modulus of {field!r}")
        return field

    # -- rep arithmetic (ints or numpy arrays of reps) -------------------------

    def add(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self._add_table is not None:
            return self._add_table[a, b]
        da = self._digit_table[a]
        db = self._digit_table[b]
        return ((da + db) % self.p) @ self._places

    def neg(self, a):
        return self._neg_table[a]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a, b]
        return self._exp_ext[self._log[a] + self._log[b]]

    def sub_outer(self, X, a, v):
        """X - a (x) v for a (T, W) array X, a length-T column a and a length-W row v.

        With full tables the q x W table of -s * v is built once, and its rows
        are gathered by coefficient: a row copy per target, not a lookup per
        product.  Larger fields multiply entry by entry through exp/log.
        """
        if self._mul_table is not None:
            return self.add(X, self._mul_table[self._neg_table[:, None], v].take(a, axis=0))
        return self.add(X, self.mul(self.neg(a[:, None]), v))

    def inv(self, a):
        if isinstance(a, np.ndarray):
            if (a == 0).any():
                raise ZeroDivisionError("inversion of zero element")
            return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]
        if a == 0:
            raise ZeroDivisionError("inversion of zero element")
        return int(self._exp[(self.q - 1 - int(self._log[a])) % (self.q - 1)])

    def pow(self, a, e: int):
        e = int(e)
        if isinstance(a, np.ndarray):
            if e == 0:
                return np.ones_like(a)
            if e < 0:
                a = self.inv(a)
                e = -e
            out = np.zeros_like(a)
            nz = a != 0
            out[nz] = self._exp[(self._log[a[nz]] * e) % (self.q - 1)]
            return out
        if e == 0:
            return 1
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("0 ** negative exponent")
            return 0
        if e < 0:
            a, e = self.inv(a), -e
        return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])

    def random_rep(self, rng) -> int:
        return rng.randrange(self.q)

    def random_reps(self, rng, count: int) -> np.ndarray:
        """The int64 reps of `count` calls of rng.randrange(q), leaving rng in
        the same state, drawn in batches.

        Each try of randrange(q) keeps the top q.bit_length() bits of one
        32-bit word and rejects a value >= q; getrandbits(32 * need) yields
        `need` such words, lowest first.  A batch of `need` tries accepts at
        most `need` values, so it never reads past the loop's last try.
        """
        shift = 32 - self.q.bit_length()
        batches = [np.zeros(0, dtype=np.int64)]
        need = count
        while need:
            words = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
            tries = np.frombuffer(words, dtype="<u4").astype(np.int64) >> shift
            batches.append(tries[tries < self.q])
            need -= batches[-1].size
        return np.concatenate(batches)

    def random_nonzero_rep(self, rng) -> int:
        return rng.randrange(1, self.q)

    # -- exact matrix product over the field -----------------------------------

    def prepare(self, M) -> "Operand":
        """M as a fixed `matmul` operand, whose float digits are built by its
        first product and reused by every later one.  M is held read-only: an
        int64 matrix that is already frozen and owns its data is shared, any
        other input is copied, so no later write can reach the operand."""
        m = np.atleast_2d(np.asarray(M, dtype=np.int64))
        if m.flags.writeable or not m.flags.owndata:
            m = m.copy()
            m.setflags(write=False)
        return Operand(self, m)

    def _operand(self, x) -> "Operand":
        """A prepared operand as it is; an array as an operand for one product."""
        if not isinstance(x, Operand):
            return Operand(self, np.atleast_2d(np.asarray(x, dtype=np.int64)))
        if x.field != self:
            raise ValueError(f"matmul over {self!r} of an operand prepared over {x.field!r}")
        return x

    def matmul(self, A, B) -> np.ndarray:
        """A @ B over GF(q), exact, as one mod-p float64 BLAS product.

        digits(a * b) = digits(a) @ M(b), where row u of the k x k matrix M(b)
        holds the digits of x^u * b.  So A @ B is A's (r, inner*k) digit matrix
        times B's (inner*k, c*k) block matrix of M(B[l, j]), reduced mod p and
        packed.  The smaller operand is the one expanded into blocks, through
        A @ B = (B^T @ A^T)^T.  Either side may be an `Operand` from `prepare`,
        which keeps its digits; a plain array is an operand for this one call.
        """
        A, B = self._operand(A), self._operand(B)
        if A.shape[1] != B.shape[0]:
            raise ValueError(f"matmul shapes {A.shape} x {B.shape}")
        swap = A.matrix.size < B.matrix.size
        left = B.digits(transposed=True) if swap else A.digits(transposed=False)
        blocked = A.matrix.T if swap else B.matrix
        (r, _), (inner, c), k, p = left.shape, blocked.shape, self.k, self.p
        # x^u has rep p^u, so row (l, u) of the block matrix is digits(x^u * blocked[l])
        right = self._digit_floats[self.mul(blocked[:, None, :], self._places[:, None])]
        right = right.reshape(inner * k, c * k)
        # float64 BLAS is exact while every sum of inner*k terms stays below 2^53
        if inner * k * (p - 1) ** 2 < (1 << 52):
            prod = (left @ right).astype(np.int64)
        else:
            prod = left.astype(np.int64) @ right.astype(np.int64)
        out = (prod.reshape(r, c, k) % p) @ self._places
        return out.T if swap else out


class Operand:
    """A matrix over a field as `Field.matmul` reads it.

    matmul expands one side into float digits, k float64s per entry: the left
    matrix M, or M^T when M stands on the right and is the larger side.  An
    operand keeps each expansion it is asked for, so a fixed matrix from
    `Field.prepare` is expanded once for all its products; the k x k blocks
    of the other side are built per product and never kept.
    """

    __slots__ = ("field", "matrix", "_digits")

    def __init__(self, field: Field, matrix: np.ndarray):
        self.field = field
        self.matrix = matrix
        self._digits: dict[bool, np.ndarray] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def digits(self, transposed: bool) -> np.ndarray:
        """The (rows, cols * k) float digits of M, or of M^T, built on first use."""
        if transposed not in self._digits:
            m = self.matrix.T if transposed else self.matrix
            rows, cols = m.shape
            digits = self.field._digit_floats[m]
            self._digits[transposed] = digits.reshape(rows, cols * self.field.k)
        return self._digits[transposed]


_FIELD_CACHE: dict = {}


def GF(q_or_p: int, k: int | None = None) -> Field:
    """Cached field constructor: GF(9), GF(3, 2) and GF(2**5) all work."""
    p, kk = (q_or_p, k) if k is not None else prime_power(q_or_p)
    key = (p, kk)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, kk)
    return _FIELD_CACHE[key]

