"""McEliece over duals of one-point AG codes.

The published key is S * G_can * P: a secretly scrambled, column-permuted
generator matrix of C_L(m*Pinf)^perp, together with the error budget
t = floor((d* - g - 1)/2), d* = m - 2g + 2.  The legitimate receiver decodes
with the error-correcting pair A = C_L((t+g)Pinf), B = C_L((m-t-g)Pinf).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .code import LinearCode
from .curve import OnePointCurve, ag_code, curve_from_descriptor
from .ecp import Decoder, EcpPair
from .errors import DimensionError, ParameterError
from .field import Field, Operand, _bounded, _ints
from .params import check_degree, scheme_t
from . import matrix as mx


def derive_seed(master: int, tag: str) -> int:
    h = hashlib.sha256(f"{master}:{tag}".encode()).digest()
    return int.from_bytes(h[:8], "big")


@dataclass(eq=False)
class PublicKey:
    field: Field
    n: int
    t: int
    g_pub: np.ndarray  # k x n, scrambled (not canonical); read-only

    def __post_init__(self):
        self.g_pub = _bounded(self.g_pub, "g_pub", (None, self.n), self.field.q)
        # encrypt multiplies by a prepared operand that shares this array
        self.g_pub.setflags(write=False)
        # keygen's budget always lies here: 1 <= t = (m-3g+1)//2 < m-g+1 = n-k
        if not 1 <= self.t <= self.n - self.k:
            raise ValueError(f"error budget t = {self.t} outside [1, n - k = {self.n - self.k}]")

    @property
    def k(self) -> int:
        return self.g_pub.shape[0]

    @cached_property
    def _prepared(self) -> Operand:
        """G_pub as a fixed `Field.matmul` operand, prepared by the first encrypt."""
        return self.field.prepare(self.g_pub)

    def code(self) -> LinearCode:
        return LinearCode(self.field, self.n, self.g_pub)

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "n": self.n,
            "t": self.t,
            "g_pub": self.g_pub.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PublicKey":
        field = Field.from_dict(d["field"])
        pk = cls(field, int(_ints(d["n"], "n")), int(_ints(d["t"], "t")), d["g_pub"])
        # a dependent row would encrypt messages that no receiver can recover
        rank = mx.rref(field, pk.g_pub)[1]
        if rank != pk.k:
            raise DimensionError(f"g_pub has rank {rank}, expected {pk.k}")
        return pk


@dataclass(eq=False)
class SecretKey:
    curve: OnePointCurve
    m: int
    scramble: np.ndarray       # k x k invertible
    permutation: list[int]     # image positions: column j of G_can lands at permutation[j]
    seed: int

    _decoder_cache: Decoder | None = dc_field(default=None, repr=False)

    def __post_init__(self):
        curve, n = self.curve, self.curve.n
        # the decoder enumerates about m / r monomials: an unbounded m stalls it
        check_degree(self.m, curve.genus, n)
        self.scramble = _bounded(self.scramble, "scramble", (None, None), curve.field.q)
        k = n - (self.m - curve.genus + 1)  # dim C_L(m Pinf)^perp, as n > m > 3g
        if self.scramble.shape != (k, k):
            raise DimensionError(
                f"scramble matrix has shape {self.scramble.shape}, expected ({k}, {k})"
            )
        perm = _bounded(self.permutation, "permutation", (n,), n)
        if (np.bincount(perm, minlength=n) != 1).any():
            raise ValueError(f"permutation is not a bijection of range({n})")
        self.permutation = perm.tolist()

    @property
    def decoder(self) -> Decoder:
        """The receiver's decoder for G_pub, prepared on first use."""
        if self._decoder_cache is None:
            self._decoder_cache = _legitimate_decoder(self)
        return self._decoder_cache

    def to_dict(self) -> dict:
        return {
            "curve": self.curve.descriptor(),
            "m": self.m,
            "scramble": self.scramble.tolist(),
            "permutation": list(self.permutation),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SecretKey":
        """Read a secret key, and prepare its decoder.

        The constructor checks the degree, the scramble's shape and the
        permutation.  A singular scramble shows only against the code, so it
        is caught while the decoder is built.
        """
        curve = curve_from_descriptor(d["curve"])
        if d["curve"] != curve.descriptor():
            raise ValueError("curve descriptor does not match the curve it names")
        sk = cls(
            curve,
            int(_ints(d["m"], "m")),
            d["scramble"],
            d["permutation"],
            int(_ints(d["seed"], "seed")),
        )
        sk.decoder
        return sk


@dataclass(eq=False)
class Ciphertext:
    y: np.ndarray

    def to_dict(self) -> dict:
        return {"y": self.y.tolist()}

    @classmethod
    def from_dict(cls, d: dict, field: Field, n: int) -> "Ciphertext":
        """Read a ciphertext of length n over `field`."""
        return cls(_bounded(d["y"], "y", (n,), field.q))


def _random_invertible(field: Field, k: int, rng: random.Random) -> np.ndarray:
    while True:
        S = np.array(
            [[field.random_rep(rng) for _ in range(k)] for _ in range(k)], dtype=np.int64
        )
        if mx.rref(field, S)[1] == k:
            return S


def _permute_columns(a: np.ndarray, perm: list[int]) -> np.ndarray:
    out = np.empty_like(a)
    out[:, perm] = a
    return out


def keygen(curve: OnePointCurve, m: int, seed: int) -> tuple[PublicKey, SecretKey]:
    """Generate a key pair; the caller picks m, keygen enforces scheme validity."""
    g, n = curve.genus, curve.n
    check_degree(m, g, n)
    t = scheme_t(m, g)
    c_pub = ag_code(curve, m).dual()
    k = c_pub.k
    rng_s = random.Random(derive_seed(seed, "scramble"))
    S = _random_invertible(curve.field, k, rng_s)
    rng_p = random.Random(derive_seed(seed, "permute"))
    perm = list(range(n))
    rng_p.shuffle(perm)
    g_pub = _permute_columns(curve.field.matmul(S, c_pub.gen), perm)
    pk = PublicKey(curve.field, n, t, g_pub)
    sk = SecretKey(curve, m, S, perm, seed)
    return pk, sk


def random_error(field: Field, n: int, weight: int, rng: random.Random) -> np.ndarray:
    e = np.zeros(n, dtype=np.int64)
    for pos in rng.sample(range(n), weight):
        e[pos] = field.random_nonzero_rep(rng)
    return e


def encrypt(pk: PublicKey, msg, seed: int, weight: int | None = None) -> Ciphertext:
    """y = msg * G_pub + e, with e of weight exactly t unless overridden."""
    msg = _bounded(msg, "message", (pk.k,), pk.field.q)
    weight = pk.t if weight is None else weight
    if not 0 <= weight <= pk.t:
        raise ParameterError(f"error weight {weight} outside [0, t={pk.t}]")
    rng = random.Random(derive_seed(seed, "error"))
    e = random_error(pk.field, pk.n, weight, rng)
    y = pk.field.add(pk.field.matmul(msg[None, :], pk._prepared).ravel(), e)
    return Ciphertext(y)


def legitimate_pair(sk: SecretKey) -> EcpPair:
    """The receiver's pair A = C_L((t+g)Pinf), B = C_L((m-t-g)Pinf), permuted."""
    return sk.decoder.pair


def _legitimate_decoder(sk: SecretKey) -> Decoder:
    """The legitimate pair for C = C_L(m Pinf)^perp, with G_pub = S * G_can * P
    rebuilt from the key; G_can is C's canonical generator before the
    permutation."""
    curve, perm = sk.curve, sk.permutation
    t = scheme_t(sk.m, curve.genus)
    deg_e = t + curve.genus

    def permuted(gen: np.ndarray) -> LinearCode:
        return LinearCode(curve.field, curve.n, _permute_columns(gen, perm))

    g_can = ag_code(curve, sk.m).dual().gen
    C = permuted(g_can)
    A = permuted(ag_code(curve, deg_e).gen)
    B = permuted(ag_code(curve, sk.m - deg_e).gen)
    return Decoder(
        EcpPair(A, B, C, t), _permute_columns(curve.field.matmul(sk.scramble, g_can), perm)
    )


def decrypt(sk: SecretKey, ct: Ciphertext) -> np.ndarray:
    """Recover the message with the key's decoder; decode failures propagate."""
    msg = sk.decoder.decode(ct.y)
    if msg is None:
        raise DimensionError("decoded word is outside the public row space")
    return msg


def designed_bounds(m: int, g: int, n: int) -> tuple[int, int, int]:
    """Designed lower bounds (d_A, d_Bdual, d_C) for the legitimate pair."""
    t = scheme_t(m, g)
    return (n - (t + g), (m - t - g) - 2 * g + 2, m - 2 * g + 2)
