"""Exact arithmetic in GF(p^k) for prime powers q = p^k <= 2^16.

Elements are represented by integer "reps" in [0, q): the base-p digit
vector of the polynomial residue, packed low-to-high.  A `Field` carries
the modulus and eagerly built exp/log tables; all operations accept plain
ints or numpy arrays of reps, which is what the linear-algebra layer uses.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

MAX_ORDER = 1 << 16

# q up to this bound gets full q x q add/mul lookup tables (fastest path)
_FULL_TABLE_LIMIT = 256


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


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
        if not _is_prime(p):
            raise ParameterError(f"characteristic {p} is not prime")
        if k < 1:
            raise ParameterError("extension degree must be >= 1")
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

    def _element_order(self, a: int) -> int:
        order = self.q - 1
        for f in _prime_factors(self.q - 1):
            while order % f == 0:
                # a^(order/f) == 1 ?
                e, acc, base = order // f, 1, a
                while e:
                    if e & 1:
                        acc = self._raw_mul(acc, base)
                    base = self._raw_mul(base, base)
                    e >>= 1
                if acc == 1:
                    order //= f
                else:
                    break
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
            a = (a * gen) % p if k == 1 else self._raw_mul(a, gen)
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
        return cls(int(d["p"]), int(d["k"]), [int(c) for c in d["modulus"]])

    # -- rep arithmetic (ints or numpy arrays of reps) -------------------------

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
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
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a if isinstance(a, np.ndarray) else a
        return self._neg_table[a]

    def sub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        if self.p == 2:
            return self.add(a, b)
        if self._sub_table is not None:
            return self._sub_table[a, b]
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
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

    def frobenius(self, a):
        return self.pow(a, self.p)

    def elements(self):
        """All q reps in ascending order."""
        return range(self.q)

    def random_rep(self, rng) -> int:
        return rng.randrange(self.q)

    def random_nonzero_rep(self, rng) -> int:
        return rng.randrange(1, self.q)

    # -- exact matrix product over the field -----------------------------------

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """A @ B over GF(q), exact, via digitwise mod-p float BLAS products."""
        A = np.atleast_2d(np.asarray(A, dtype=np.int64))
        B = np.atleast_2d(np.asarray(B, dtype=np.int64))
        if A.shape[1] != B.shape[0]:
            raise ValueError(f"matmul shapes {A.shape} x {B.shape}")
        p, k = self.p, self.k
        inner = A.shape[1]
        if inner == 0:
            return np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
        if k == 1:
            return self._matmul_mod_p(A, B)
        Ad = self._digit_table[A]  # (r, inner, k)
        Bd = self._digit_table[B]  # (inner, c, k)
        conv = [None] * (2 * k - 1)
        for u in range(k):
            for v in range(k):
                prod = self._matmul_mod_p(Ad[:, :, u], Bd[:, :, v])
                w = u + v
                conv[w] = prod if conv[w] is None else (conv[w] + prod) % p
        # reduce powers x^e for e >= k via precomputed residues
        red = self._reduction_rows()
        out_digits = np.zeros(conv[0].shape + (k,), dtype=np.int64)
        for e, ce in enumerate(conv):
            out_digits += ce[:, :, None] * red[e][None, None, :]
        return (out_digits % p) @ self._places

    def _matmul_mod_p(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        p = self.p
        # float64 BLAS is exact while inner * (p-1)^2 < 2^53
        if A.shape[1] * (p - 1) ** 2 < (1 << 52):
            C = np.asarray(A, dtype=np.float64) @ np.asarray(B, dtype=np.float64)
            return np.rint(C).astype(np.int64) % p
        return (A @ B) % p

    def _reduction_rows(self) -> np.ndarray:
        """x^e mod modulus as digit rows, e = 0 .. 2k-2."""
        cached = getattr(self, "_red_rows", None)
        if cached is not None:
            return cached
        p, k = self.p, self.k
        rows = np.zeros((2 * k - 1, k), dtype=np.int64)
        cur = [0] * k
        cur[0] = 1
        rows[0] = cur
        for e in range(1, 2 * k - 1):
            nxt = [0] + cur[:-1]
            lead = cur[-1]
            if lead:
                for i in range(k):
                    nxt[i] = (nxt[i] - lead * self.modulus[i]) % p
            cur = [c % p for c in nxt]
            rows[e] = cur
        self._red_rows = rows
        return rows


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
        if all(_probe_pow_x(probe, (q - 1) // f) != 1 for f in factors):
            return coeffs
    raise AssertionError(f"no primitive polynomial found for GF({p}^{k})")


def _probe_pow_x(probe: Field, e: int) -> int:
    acc, base = 1, probe.p
    while e:
        if e & 1:
            acc = probe._raw_mul(acc, base)
        base = probe._raw_mul(base, base)
        e >>= 1
    return acc


_FIELD_CACHE: dict = {}


def GF(q_or_p: int, k: int | None = None) -> Field:
    """Cached field constructor: GF(9), GF(3, 2) and GF(2**5) all work."""
    if k is not None:
        p, kk = q_or_p, k
    else:
        q = q_or_p
        p = None
        for cand in range(2, q + 1):
            if _is_prime(cand) and q % cand == 0:
                p = cand
                break
        if p is None:
            raise ParameterError(f"{q} is not a prime power")
        kk = 0
        while q > 1:
            if q % p:
                raise ParameterError(f"{q_or_p} is not a prime power")
            q //= p
            kk += 1
    key = (p, kk)
    if key not in _FIELD_CACHE:
        _FIELD_CACHE[key] = Field(p, kk)
    return _FIELD_CACHE[key]

