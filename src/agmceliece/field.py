"""Exact arithmetic in GF(p^k) for prime powers q = p^k <= 2^16.

Elements are represented by integer "reps" in [0, q): the base-p digit
vector of the polynomial residue, packed low-to-high.  A `Field` carries
the modulus and eagerly built exp/log tables; all operations accept plain
ints or numpy arrays of reps, which is what the linear-algebra layer uses.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

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


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over GF(p), coefficients low-to-high ------------------

def _poly_mod(p: int, f: list[int], g: list[int]) -> list[int]:
    """f mod g over GF(p); g need not be monic (leading coeff inverted)."""
    f = list(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and any(f):
        while f and f[-1] == 0:
            f.pop()
        if len(f) - 1 < dg:
            break
        coef = f[-1] * inv_lead % p
        shift = len(f) - 1 - dg
        for i, gi in enumerate(g):
            f[shift + i] = (f[shift + i] - coef * gi) % p
        while f and f[-1] == 0:
            f.pop()
    return f


def _monic_polys(p: int, deg: int):
    """All monic polynomials of the given degree over GF(p)."""
    for packed in range(p ** deg):
        coeffs = []
        v = packed
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        coeffs.append(1)
        yield coeffs


def is_irreducible(p: int, coeffs: list[int]) -> bool:
    """Brute-force irreducibility test (trial division), fine at q <= 2^16."""
    k = len(coeffs) - 1
    if k < 1 or coeffs[-1] % p == 0:
        return False
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        for g in _monic_polys(p, d):
            if not _poly_mod(p, coeffs, g):
                return False
    return True


def _smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in factors):
            return g
    raise AssertionError("no primitive root found")


class Field:
    """GF(p^k) together with its modulus and precomputed tables.

    Immutable after construction; safe to share.  The canonical modulus for
    (p, k) is the first monic irreducible AND primitive polynomial in the
    packed-integer order, so `x` itself generates the multiplicative group
    (for k = 1 the modulus is x - g with g the smallest primitive root).
    """

    def __init__(self, p: int, k: int = 1, modulus: list[int] | None = None):
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
        if modulus is None:
            modulus = _canonical_modulus(p, k)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ParameterError("modulus must be monic of degree k")
            if not is_irreducible(p, modulus):
                raise ParameterError("modulus is not irreducible over GF(p)")
        self.modulus = tuple(modulus)
        self._build_tables()

    # -- construction ---------------------------------------------------------

    def _digits_of(self, rep: int) -> list[int]:
        out = []
        for _ in range(self.k):
            out.append(rep % self.p)
            rep //= self.p
        return out

    def _pack(self, digits) -> int:
        rep = 0
        for d in reversed(digits):
            rep = rep * self.p + int(d) % self.p
        return rep

    def _raw_mul(self, a: int, b: int) -> int:
        """Table-free product, used only while building tables."""
        p, k = self.p, self.k
        da, db = self._digits_of(a), self._digits_of(b)
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
        # reduce degree >= k using x^k = -(modulus tail)
        for deg in range(2 * k - 2, k - 1, -1):
            c = conv[deg]
            if c:
                conv[deg] = 0
                for i in range(k):
                    conv[deg - k + i] = (conv[deg - k + i] - c * self.modulus[i]) % p
        return self._pack(conv[:k])

    def _raw_pow(self, a: int, e: int) -> int:
        """Table-free a^e by square-and-multiply, used only before tables exist."""
        acc = 1
        while e:
            if e & 1:
                acc = self._raw_mul(acc, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return acc

    def _element_order(self, a: int) -> int:
        order = self.q - 1
        for f in _prime_factors(self.q - 1):
            while order % f == 0 and self._raw_pow(a, order // f) == 1:
                order //= f
        return order

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        # generator: x when primitive, else smallest-rep generator
        gen = p if k > 1 else _smallest_primitive_root(p)
        if k > 1 and self._element_order(gen) != q - 1:
            gen = next(a for a in range(2, q) if self._element_order(a) == q - 1)
        self.generator = gen

        exp = np.zeros(q - 1, dtype=np.int64)
        log = np.full(q, 2 * q + 1, dtype=np.int64)  # sentinel for log(0)
        a = 1
        for i in range(q - 1):
            exp[i] = a
            log[a] = i
            a = self._raw_mul(a, gen)
        if a != 1:
            raise AssertionError("generator order mismatch while building tables")
        self._exp = exp
        self._log = log
        # extended exp: legit log-sums reach 2(q-2); sentinel sums land past 2q
        ext = np.zeros(4 * q + 4, dtype=np.int64)
        idx = np.arange(2 * q - 3 if q > 2 else 1)
        ext[: idx.size] = exp[idx % (q - 1)]
        self._exp_ext = ext

        digits = np.zeros((q, k), dtype=np.int64)
        for rep in range(q):
            digits[rep] = self._digits_of(rep)
        self._digit_table = digits
        self._digit_floats = digits.astype(np.float64)
        self._places = np.array([p ** i for i in range(k)], dtype=np.int64)
        self._neg_table = ((p - digits) % p) @ self._places

        if q <= _FULL_TABLE_LIMIT:
            reps = np.arange(q, dtype=np.int64)
            self._add_table = ((digits[:, None, :] + digits[None, :, :]) % p) @ self._places
            self._sub_table = self._add_table[:, self._neg_table]
            mul = np.zeros((q, q), dtype=np.int64)
            nz = reps[1:]
            mul[np.ix_(nz, nz)] = self._exp_ext[self._log[nz][:, None] + self._log[nz][None, :]]
            self._mul_table = mul
        else:
            self._add_table = None
            self._sub_table = None
            self._mul_table = None

    # -- identity / serialization --------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.q})" if self.k == 1 else f"GF({self.p}^{self.k})"

    def to_dict(self) -> dict:
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    @classmethod
    def from_dict(cls, d: dict) -> "Field":
        return cls(int(_ints(d["p"], "p")), int(_ints(d["k"], "k")),
                   _ints(d["modulus"], "modulus").tolist())

    # -- rep arithmetic (ints or numpy arrays of reps) -------------------------

    def add(self, a, b):
        if self.p == 2:
            if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
                return np.bitwise_xor(a, b)
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a, b]
        da = self._digit_table[a]
        db = self._digit_table[b]
        return ((da + db) % self.p) @ self._places

    def neg(self, a):
        return self._neg_table[a]

    def sub(self, a, b):
        if self.p == 2:
            return self.add(a, b)
        if self._sub_table is not None:
            return self._sub_table[a, b]
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul_table is not None:
            return self._mul_table[a, b]
        return self._exp_ext[self._log[a] + self._log[b]]

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

    def random_nonzero_rep(self, rng) -> int:
        return rng.randrange(1, self.q)

    # -- exact matrix product over the field -----------------------------------

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A @ B over GF(q), exact, as one mod-p float64 BLAS product.

        digits(a * b) = digits(a) @ M(b), where row u of the k x k matrix M(b)
        holds the digits of x^u * b.  So A @ B is A's (r, inner*k) digit matrix
        times B's (inner*k, c*k) block matrix of M(B[l, j]), reduced mod p and
        packed.  The smaller operand is the one expanded into blocks, through
        A @ B = (B^T @ A^T)^T.
        """
        A = np.atleast_2d(np.asarray(A, dtype=np.int64))
        B = np.atleast_2d(np.asarray(B, dtype=np.int64))
        if A.shape[1] != B.shape[0]:
            raise ValueError(f"matmul shapes {A.shape} x {B.shape}")
        if A.size < B.size:
            return self.matmul(B.T, A.T).T
        (r, inner), c, k, p = A.shape, B.shape[1], self.k, self.p
        left = self._digit_floats[A].reshape(r, inner * k)
        # x^u has rep p^u, so row (l, u) of the block matrix is digits(x^u * B[l])
        right = self._digit_floats[self.mul(B[:, None, :], self._places[:, None])]
        right = right.reshape(inner * k, c * k)
        # float64 BLAS is exact while every sum of inner*k terms stays below 2^53
        if inner * k * (p - 1) ** 2 < (1 << 52):
            prod = (left @ right).astype(np.int64)
        else:
            prod = left.astype(np.int64) @ right.astype(np.int64)
        return (prod.reshape(r, c, k) % p) @ self._places


def _canonical_modulus(p: int, k: int) -> list[int]:
    if k == 1:
        return [(-_smallest_primitive_root(p)) % p, 1]
    q = p ** k
    factors = _prime_factors(q - 1)
    for coeffs in _monic_polys(p, k):
        if coeffs[0] == 0 or not is_irreducible(p, coeffs):
            continue
        # primitivity of x: its order must be q - 1
        probe = Field.__new__(Field)
        probe.p, probe.k, probe.q = p, k, q
        probe.modulus = tuple(coeffs)
        if all(probe._raw_pow(p, (q - 1) // f) != 1 for f in factors):
            return coeffs
    raise AssertionError(f"no primitive polynomial found for GF({p}^{k})")


_FIELD_CACHE: dict = {}


def GF(q_or_p: int, k: int | None = None) -> Field:
    """Cached field constructor: GF(9), GF(3, 2) and GF(2**5) all work."""
    p, kk = (q_or_p, k) if k is not None else prime_power(q_or_p)
    key = (p, kk)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, kk)
    return _FIELD_CACHE[key]

