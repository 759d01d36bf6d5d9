"""One-point AG codes on concrete curves: Hermitian and Suzuki.

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

import itertools

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
        basis = self.pole_basis(m)
        E = np.ones((len(basis), self.n), dtype=np.int64)
        for r, (exps, _) in enumerate(basis):
            row = None
            for idx, e in enumerate(exps):
                if e:
                    p = self._gen_power(idx, e)
                    row = p if row is None else self.field.mul(row, p)
            if row is not None:
                E[r] = row
        return E

    # -- local expansions (for shifted divisors) -------------------------------------

    def generator_series(self, point_index: int, L: int) -> list[np.ndarray]:
        raise NotImplementedError(f"{self.kind} curve has no local-expansion support")

    def basis_series(self, m: int, point_index: int, L: int) -> np.ndarray:
        """(k x L) matrix: expansion coefficients of each basis monomial."""
        gens = self.generator_series(point_index, L)
        basis = self.pole_basis(m)
        out = np.zeros((len(basis), L), dtype=np.int64)
        cache: dict[tuple[int, int], np.ndarray] = {}

        def gpow(idx, e):
            key = (idx, e)
            if key not in cache:
                cache[key] = ser_pow(self.field, gens[idx], e, L)
            return cache[key]

        one = np.zeros(L, dtype=np.int64)
        one[0] = 1
        for r, (exps, _) in enumerate(basis):
            s = one
            for idx, e in enumerate(exps):
                if e:
                    s = ser_mul(self.field, s, gpow(idx, e), L)
            out[r] = s
        return out

    # -- serialization ------------------------------------------------------------

    def descriptor(self) -> dict:
        d = {"kind": self.kind, "field": self.field.to_dict()}
        d.update(self.params)
        return d

    def __repr__(self):
        return f"{self.kind.capitalize()}Curve(n={self.n}, g={self.genus}, {self.field!r})"


class HermitianCurve(OnePointCurve):
    """y^r + y = x^(r+1) over GF(r^2): n = r^3 affine points, g = r(r-1)/2."""

    def __init__(self, r: int):
        q, genus, n = curve_numbers("hermitian", r)  # refuses an r that is no prime power
        field = GF(q)
        # row a, column b: b^r + b == a^(r+1); argwhere lists them a-major
        a = np.arange(field.q)
        points = np.argwhere(
            field.add(field.pow(a, r)[None, :], a[None, :]) == field.pow(a, r + 1)[:, None]
        )
        if points.shape[0] != n:
            raise ParameterError(f"Hermitian r={r}: found {points.shape[0]} points, expected {n}")
        X = points[:, 0]
        Y = points[:, 1]
        super().__init__(
            kind="hermitian",
            field=field,
            genus=genus,
            points=points,
            gen_orders=[r, r + 1],
            gen_values=[X, Y],
            exp_bounds=[None, r - 1],
            params={"r": r},
        )
        self.r = r

    def generator_series(self, point_index: int, L: int) -> list[np.ndarray]:
        """Expansions of x and y in the local parameter u = x - a.

        The curve is smooth with d/dy = 1 everywhere, so u = x - a is a
        uniformizer at every affine point.  Matching coefficients of
        (b + s)^r + (b + s) = (a + u)^(r+1) gives the recurrence
        c_i = rhs_i - c_(i/r)^r (the Frobenius term only when r | i).
        """
        F = self.field
        r = self.r
        a, b = (int(v) for v in self.points[point_index])
        xs = np.zeros(L, dtype=np.int64)
        xs[0] = a
        if L > 1:
            xs[1] = 1
        c = np.zeros(max(L, 1), dtype=np.int64)
        c[0] = b
        for i in range(1, L):
            rhs = 0
            if i == 1:
                rhs = F.pow(a, r)
            if i == r:
                rhs = F.add(rhs, a)
            if i == r + 1:
                rhs = F.add(rhs, 1)
            if i % r == 0:
                rhs = F.sub(rhs, F.pow(int(c[i // r]), r))
            c[i] = rhs
        return [xs, c[:L]]


class SuzukiCurve(OnePointCurve):
    """y^q - y = x^q0 (x^q - x) over GF(q), q = 2 q0^2: n = q^2, g = q0(q-1)."""

    def __init__(self, q0: int):
        q, genus, _ = curve_numbers("suzuki", q0)  # refuses a q0 that is no power of 2
        field = GF(q)
        # every pair over GF(q) satisfies the equation: x^q = x kills the RHS
        points = np.array([(a, b) for a in range(q) for b in range(q)], dtype=np.int64)
        X = points[:, 0]
        Y = points[:, 1]
        Z = field.add(field.pow(X, 2 * q0 + 1), field.pow(Y, 2 * q0))
        W = field.add(field.mul(X, field.pow(Y, 2 * q0)), field.pow(Z, 2 * q0))
        super().__init__(
            kind="suzuki",
            field=field,
            genus=genus,
            points=points,
            gen_orders=[q, q + q0, q + 2 * q0, q + 2 * q0 + 1],
            gen_values=[X, Y, Z, W],
            exp_bounds=[None, 2 * q0, 2 * q0, 2 * q0],
            params={"q0": q0},
        )
        self.q0 = q0

    def generator_series(self, point_index: int, L: int) -> list[np.ndarray]:
        """Expansions of x, y, z, w at an affine point; u = x - a again works
        since d/dy of the equation is the constant 1 in characteristic 2."""
        F = self.field
        q0 = self.q0
        q = F.q
        a, b = (int(v) for v in self.points[point_index])
        xs = np.zeros(L, dtype=np.int64)
        xs[0] = a
        if L > 1:
            xs[1] = 1
        aq0 = F.pow(a, q0)
        c = np.zeros(max(L, 1), dtype=np.int64)
        c[0] = b
        for i in range(1, L):
            rhs = 0
            if i == 1 or i == q:
                rhs = F.add(rhs, aq0)
            if i == q0 + 1 or i == q + q0:
                rhs = F.add(rhs, 1)
            if i % q == 0:
                rhs = F.add(rhs, F.pow(int(c[i // q]), q))
            c[i] = rhs
        ys = c[:L]
        zs = F.add(
            ser_pow(F, xs, 2 * q0 + 1, L), ser_pow(F, ys, 2 * q0, L)
        )
        ws = F.add(
            ser_mul(F, xs, ser_pow(F, ys, 2 * q0, L), L), ser_pow(F, zs, 2 * q0, L)
        )
        return [xs, ys, zs, ws]


def hermitian_curve(r: int) -> HermitianCurve:
    return HermitianCurve(r)


def suzuki_curve(q0: int) -> SuzukiCurve:
    return SuzukiCurve(q0)


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
    the formula applies.
    """
    if m < 0:
        raise ParameterError("divisor degree must be nonnegative")
    E = curve.evaluation_matrix(m)
    k = E.shape[0]
    total_shift = 0
    if shifts:
        norm: list[tuple[int, int]] = []
        for pi, s in shifts:
            pi, s = int(pi), int(s)
            if not 0 <= pi < curve.n:
                raise ParameterError(f"shift point index {pi} outside range")
            if s < 0:
                raise ParameterError("shift multiplicity must be >= 0")
            if s:
                norm.append((pi, s))
                total_shift += s
        if total_shift:
            blocks = [curve.basis_series(m, pi, s) for pi, s in norm]
            C = np.hstack(blocks)  # k x total_shift
            coeff = mx.kernel(curve.field, C.T)
            code = LinearCode(curve.field, curve.n, curve.field.matmul(coeff, E))
            deg = m - total_shift
            if deg > 2 * curve.genus - 2 and m < curve.n:
                expect = deg - curve.genus + 1 if deg >= 0 else 0
                if code.k != expect:
                    raise ParameterError(
                        f"shifted code dimension {code.k} != expected {expect} "
                        f"(m={m}, shifts={norm})"
                    )
            return code
    code = LinearCode(curve.field, curve.n, E)
    if m < curve.n and code.k != k:
        raise ParameterError(
            f"evaluation matrix rank {code.k} below basis size {k} (m={m})"
        )
    return code


def oracle_filtration(curve: OnePointCurve, m: int, point_index: int, s: int) -> LinearCode:
    """Ground-truth C_L(m*Pinf - s*P) at full length; test oracle only."""
    return ag_code(curve, m, shifts=[(point_index, s)])
