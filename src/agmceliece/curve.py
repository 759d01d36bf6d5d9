"""One-point AG codes on concrete curves: Hermitian and Suzuki.

Both families are y^Q + y = h(x) with Q a power of p; each states only Q, h
and its generator formulas, and the points, generator values and local
expansions are all read off that one equation.

Riemann-Roch spaces L(m * Pinf) are realized as explicit monomial bases in a
few generator functions with known pole orders at the point at infinity; no
general divisor machinery.  Every constructed basis is verified against the
semigroup gap count and the evaluation-matrix rank, and construction aborts
with a diagnostic when a check fails.

Divisors of the form m*Pinf - sum s_i Q_i (used as the attack's test oracle)
are realized by local power-series expansions at the Q_i: a function vanishes
to order >= s at an affine point iff its first s expansion coefficients in
the local parameter do.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

import numpy as np

from .errors import ParameterError
from .field import Field, GF, _ints
from .code import LinearCode
from .params import curve_key, curve_numbers
from . import matrix as mx


# -- truncated power series over GF(q), low-to-high coefficient arrays --------

def ser_mul(field: Field, a: np.ndarray, b: np.ndarray, L: int) -> np.ndarray:
    out = np.zeros(L, dtype=np.int64)
    for i in range(min(L, a.size)):
        if a[i]:
            top = min(L - i, b.size)
            out[i : i + top] = field.add(out[i : i + top], field.mul(int(a[i]), b[:top]))
    return out


def ser_pow(field: Field, a: np.ndarray, e: int, L: int) -> np.ndarray:
    out = np.zeros(L, dtype=np.int64)
    out[0] = 1
    base = a[:L].copy()
    while e:
        if e & 1:
            out = ser_mul(field, out, base, L)
        e >>= 1
        if e:
            base = ser_mul(field, base, base, L)
    return out


def _semigroup_flags(generators: list[int], upto: int) -> np.ndarray:
    """Boolean table: reachable[v] = v lies in the numerical semigroup."""
    reach = np.zeros(upto + 1, dtype=bool)
    reach[0] = True
    for v in range(1, upto + 1):
        reach[v] = any(v >= g and reach[v - g] for g in generators)
    return reach


class OnePointCurve:
    """A curve instance: evaluation points plus a monomial pole basis at Pinf.

    `gen_orders` are the pole orders of the generator functions; `gen_values`
    their value vectors on the n points; `exp_bounds` caps each generator's
    exponent during monomial enumeration (None = unbounded, first generator
    only).
    """

    def __init__(
        self,
        kind: str,
        field: Field,
        genus: int,
        points: np.ndarray,
        gen_orders: list[int],
        gen_values: list[np.ndarray],
        exp_bounds: list[int | None],
        params: dict,
    ):
        self.kind = kind
        self.field = field
        self.genus = int(genus)
        self.points = np.asarray(points, dtype=np.int64)
        self.n = self.points.shape[0]
        self.gen_orders = list(gen_orders)
        self.gen_values = [np.asarray(v, dtype=np.int64) for v in gen_values]
        self.exp_bounds = list(exp_bounds)
        self.params = dict(params)
        self._verify_semigroup()
        self._basis_cache: dict[int, list] = {}
        # ag_code(self, m) without shifts, one shared code per degree asked for
        self._code_cache: dict[int, LinearCode] = {}
        self._pow_cache: list[dict[int, np.ndarray]] = [dict() for _ in gen_orders]

    # -- invariants ------------------------------------------------------------

    def _verify_semigroup(self):
        g = self.genus
        upto = max(2 * g, 1)
        reach = _semigroup_flags(self.gen_orders, upto)
        gaps = int((~reach[1:]).sum())
        if gaps != g:
            raise ParameterError(
                f"{self.kind}: pole-order semigroup has {gaps} gaps, genus says {g}"
            )
        self._nongap_flags = reach

    def nongap_count(self, m: int) -> int:
        """dim L(m*Pinf) from the semigroup (exact for any m >= 0)."""
        if m < 0:
            return 0
        if m > 2 * self.genus - 2:
            return m - self.genus + 1
        return int(self._nongap_flags[: m + 1].sum())

    # -- monomial basis -----------------------------------------------------------

    def pole_basis(self, m: int) -> list[tuple[tuple[int, ...], int]]:
        """Monomials (exponent tuple, pole order), one per non-gap <= m."""
        if m in self._basis_cache:
            return self._basis_cache[m]
        ranges = []
        for order, bound in zip(self.gen_orders, self.exp_bounds):
            hi = m // order if bound is None else min(bound, m // order)
            ranges.append(range(hi + 1))
        found: dict[int, tuple[int, ...]] = {}
        for exps in itertools.product(*ranges):
            order = sum(e * o for e, o in zip(exps, self.gen_orders))
            if order > m:
                continue
            if order not in found or exps < found[order]:
                found[order] = exps
        basis = sorted(((exps, order) for order, exps in found.items()), key=lambda t: t[1])
        expected = self.nongap_count(m)
        if len(basis) != expected:
            raise ParameterError(
                f"{self.kind}: monomial basis for m={m} has {len(basis)} elements, "
                f"dimension formula expects {expected}"
            )
        self._basis_cache[m] = basis
        return basis

    def _gen_power(self, idx: int, e: int) -> np.ndarray:
        cache = self._pow_cache[idx]
        if e not in cache:
            cache[e] = self.field.pow(self.gen_values[idx], e)
        return cache[e]

    def evaluation_matrix(self, m: int) -> np.ndarray:
        """Rows = pole-basis monomials evaluated at all n points."""
        return self._monomials(m, self._gen_power, self.field.mul, np.ones(self.n, dtype=np.int64))

    def _monomials(self, m: int, power, mul, one: np.ndarray) -> np.ndarray:
        """Each pole-basis monomial as a product of `power(idx, e)` (e >= 1)
        under `mul`; a row starts from its first power, the constant is `one`."""
        basis = self.pole_basis(m)
        out = np.empty((len(basis), one.size), dtype=np.int64)
        for r, (exps, _) in enumerate(basis):
            row = None
            for idx, e in enumerate(exps):
                if e:
                    p = power(idx, e)
                    row = p if row is None else mul(row, p)
            out[r] = one if row is None else row
        return out

    # -- serialization ------------------------------------------------------------

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "field": self.field.to_dict()}
        d.update(self.params)
        return d

    def __repr__(self):
        return f"{self.kind.capitalize()}Curve(n={self.n}, g={self.genus}, {self.field!r})"


# the ring operations a curve's formulas are written in: field ops on value
# vectors, or truncated-series ops on local expansions
_Ring = namedtuple("_Ring", "mul add pow")


class _EquationCurve(OnePointCurve):
    """The curve y^Q + y = h(x) over GF(q), Q a power of p, on its n affine points.

    `h(x, ring)` and `generators(x, y, ring)` are formulas over any `_Ring`:
    on value vectors they give the points and `gen_values`, on truncated
    series the local expansions.
    """

    def __init__(self, kind, q, genus, n, Q, h, generators, gen_orders, exp_bounds, params):
        field = GF(q)
        self.Q, self.h, self.generators = Q, h, generators
        values = _Ring(field.mul, field.add, field.pow)
        a = np.arange(q)
        # row a, column b: b^Q + b == h(a); argwhere lists them a-major
        points = np.argwhere(field.add(field.pow(a, Q), a)[None, :] == h(a, values)[:, None])
        if points.shape[0] != n:
            raise ParameterError(f"{kind} {params}: found {points.shape[0]} points, expected {n}")
        super().__init__(kind, field, genus, points, gen_orders,
                         generators(points[:, 0], points[:, 1], values), exp_bounds, params)

    def _series_ring(self, L: int) -> _Ring:
        F = self.field
        return _Ring(lambda a, b: ser_mul(F, a, b, L), F.add, lambda a, e: ser_pow(F, a, e, L))

    def generator_series(self, point_index: int, L: int) -> list[np.ndarray]:
        """Expansions of the generators at the point (a, b) in u = x - a.

        d/dy of the equation is 1, so u is a uniformizer at every affine point.
        With x = a + u and y = sum c_i u^i, Frobenius makes y^Q = sum c_i^Q u^(iQ);
        matching coefficients of y^Q + y = h(x) gives c_0 = b and, for i >= 1,
        c_i = h_i - c_(i/Q)^Q when Q | i and c_i = h_i otherwise.
        """
        F, Q, ring = self.field, self.Q, self._series_ring(L)
        a, b = (int(v) for v in self.points[point_index])
        x = np.array([a, 1] + [0] * (L - 2), dtype=np.int64)[:L]
        c = np.array(self.h(x, ring), dtype=np.int64)
        c[0] = b
        for i in range(Q, L, Q):  # c_(i/Q) is final: i/Q < i
            c[i] = F.sub(c[i], F.pow(int(c[i // Q]), Q))
        return self.generators(x, c, ring)

    def basis_series(self, m: int, point_index: int, L: int) -> np.ndarray:
        """(k x L) matrix: expansion coefficients of each basis monomial."""
        ring = self._series_ring(L)
        gens = self.generator_series(point_index, L)
        power = functools.cache(lambda idx, e: ring.pow(gens[idx], e))
        return self._monomials(m, power, ring.mul, np.eye(1, L, dtype=np.int64)[0])


def hermitian_curve(r: int) -> OnePointCurve:
    """y^r + y = x^(r+1) over GF(r^2): n = r^3 affine points, g = r(r-1)/2."""
    q, genus, n = curve_numbers("hermitian", r)  # refuses an r that is no prime power
    return _EquationCurve(
        "hermitian", q, genus, n, Q=r,
        h=lambda x, R: R.pow(x, r + 1),
        generators=lambda x, y, R: [x, y],
        gen_orders=[r, r + 1], exp_bounds=[None, r - 1], params={"r": r},
    )


def suzuki_curve(q0: int) -> OnePointCurve:
    """y^q - y = x^q0 (x^q - x) over GF(q), q = 2 q0^2: n = q^2, g = q0(q-1).

    The signs are + in characteristic 2, and x^q = x kills h on GF(q), so
    every pair is a point.
    """
    q, genus, n = curve_numbers("suzuki", q0)  # refuses a q0 that is no power of 2

    def generators(x, y, R):
        y2 = R.pow(y, 2 * q0)
        z = R.add(R.pow(x, 2 * q0 + 1), y2)
        return [x, y, z, R.add(R.mul(x, y2), R.pow(z, 2 * q0))]

    return _EquationCurve(
        "suzuki", q, genus, n, Q=q,
        h=lambda x, R: R.mul(R.pow(x, q0), R.add(R.pow(x, q), x)),
        generators=generators,
        gen_orders=[q, q + q0, q + 2 * q0, q + 2 * q0 + 1],
        exp_bounds=[None, 2 * q0, 2 * q0, 2 * q0], params={"q0": q0},
    )


# a curve named by an artifact or on the command line is built only up to this
# length: every curve the tests and the benchmark build is within it, and a
# longer one takes minutes
MAX_ARTIFACT_N = 1024


def curve_from_descriptor(d: dict) -> OnePointCurve:
    """The curve an artifact or the CLI names, built only once its length is bounded."""
    kind = d["kind"]
    key = curve_key(kind)
    param = int(_ints(d[key], key))
    n = curve_numbers(kind, param)[2]
    if n > MAX_ARTIFACT_N:
        raise ParameterError(f"{kind} curve {key}={param} has length {n}; "
                             f"at most {MAX_ARTIFACT_N} is allowed")
    return hermitian_curve(param) if kind == "hermitian" else suzuki_curve(param)


# -- evaluation codes ---------------------------------------------------------------

def ag_code(curve: OnePointCurve, m: int, shifts=None) -> LinearCode:
    """C_L(curve, Q, m*Pinf - sum s_i Q_i); shifts = [(point_index, s_i), ...].

    Shifted divisors impose s_i successive expansion-coefficient constraints
    at each named point; dimensions are verified against deg - g + 1 whenever
    the formula applies.  C_L(m*Pinf) itself is a public function of the
    curve and m: it is built and checked once per curve instance, which keeps
    it and returns that one code to every later call without shifts.
    """
    if m < 0:
        raise ParameterError("divisor degree must be nonnegative")
    if not shifts and m in curve._code_cache:
        return curve._code_cache[m]
    E = curve.evaluation_matrix(m)
    k = E.shape[0]
    if shifts:
        norm: dict[int, int] = {}  # point -> summed multiplicity, in first-seen order
        for pi, s in shifts:
            pi, s = int(pi), int(s)
            if not 0 <= pi < curve.n:
                raise ParameterError(f"shift point index {pi} outside range")
            if s < 0:
                raise ParameterError("shift multiplicity must be >= 0")
            if s:
                norm[pi] = norm.get(pi, 0) + s
        total_shift = sum(norm.values())
        if total_shift:
            blocks = [curve.basis_series(m, pi, s) for pi, s in norm.items()]
            C = np.hstack(blocks)  # k x total_shift
            coeff = mx.kernel(curve.field, C.T)
            code = LinearCode(curve.field, curve.n, curve.field.matmul(coeff, E))
            deg = m - total_shift
            if deg > 2 * curve.genus - 2 and m < curve.n:
                expect = deg - curve.genus + 1 if deg >= 0 else 0
                if code.k != expect:
                    raise ParameterError(
                        f"shifted code dimension {code.k} != expected {expect} "
                        f"(m={m}, shifts={list(norm.items())})"
                    )
            return code
    code = LinearCode(curve.field, curve.n, E)
    if m < curve.n and code.k != k:
        raise ParameterError(
            f"evaluation matrix rank {code.k} below basis size {k} (m={m})"
        )
    if not shifts:
        curve._code_cache[m] = code
    return code


def oracle_filtration(curve: OnePointCurve, m: int, point_index: int, s: int) -> LinearCode:
    """Ground-truth C_L(m*Pinf - s*P) at full length; test oracle only."""
    return ag_code(curve, m, shifts=[(point_index, s)])
