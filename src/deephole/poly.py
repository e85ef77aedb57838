"""Univariate polynomial algebra over GF(q).

Polynomials are immutable coefficient tuples, low degree first, with no
trailing zeros; the zero polynomial has an empty tuple and degree -inf.
Coefficients are field-element encodings (see ``gf``), which is also the
serialization format used in reports.

``evaluate`` and ``monic_irreducibles`` work on arrays of coefficients by
gathers from the field's add and mul tables, so they need q <= TABLE_LIMIT.
The scalar ``Poly`` operations are the reference for ``evaluate``.
``is_irreducible`` finds the roots of a quadratic or cubic with one
``evaluate`` call, and is the reference for the ``monic_irreducibles``
sieve, which multiplies factors by ``_convolve`` and evaluates nothing.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from deephole.gf import GF, prime_factors

NEG_INF = float("-inf")


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: GF, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        if any(not 0 <= c < field.q for c in cs):
            raise ValueError("coefficient out of range")
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field: GF) -> "Poly":
        return cls(field, ())

    @classmethod
    def one(cls, field: GF) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def x(cls, field: GF) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def monomial(cls, field: GF, deg: int, c: int = 1) -> "Poly":
        return cls(field, (0,) * deg + (c,))

    # -- structure --------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                parts.append(xi if c == 1 else f"{c}*{xi}")
        return " + ".join(parts)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x: int) -> int:
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    # -- ring operations ------------------------------------------------------

    def _check(self, other):
        if self.field != other.field:
            raise ValueError("mismatched fields")

    def __add__(self, other):
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        return Poly(
            f, (f.add(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0))
        )

    def __sub__(self, other):
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        return Poly(
            f, (f.sub(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0))
        )

    def __neg__(self):
        f = self.field
        return Poly(f, (f.neg(c) for c in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = f.add(out[i + j], f.mul(ai, bj))
        return Poly(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly(f, (f.mul(c, x) for x in self.coeffs))

    def monic(self) -> "Poly":
        if not self:
            raise ValueError("zero polynomial cannot be made monic")
        return self.scale(self.field.inv(self.lead))

    def __divmod__(self, other):
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        inv_lead = f.inv(other.lead)
        quot = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            c = f.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - db
            quot[shift] = c
            for i, oc in enumerate(other.coeffs):
                rem[shift + i] = f.sub(rem[shift + i], f.mul(c, oc))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly(f, quot), Poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]


def pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """base^e reduced modulo mod, by squaring."""
    result = Poly.one(base.field)
    base = base % mod
    while e:
        if e & 1:
            result = (result * base) % mod
        base = (base * base) % mod
        e >>= 1
    return result


def gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor."""
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    while b:
        a, b = b, a % b
    return a.monic()


def xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with g = s*a + t*b and g monic."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if not r0:
        raise ValueError("gcd(0, 0) is undefined")
    c = f.inv(r0.lead)
    return r0.scale(c), s0.scale(c), t0.scale(c)


def mod_inverse(a: Poly, mod: Poly) -> Poly:
    """Inverse of a modulo mod; requires gcd(a, mod) = 1."""
    g, s, _ = xgcd(a, mod)
    if g.degree != 0:
        raise ValueError(f"{a!r} is not invertible modulo {mod!r}")
    return s % mod


def distinct_roots(f: Poly) -> set[int]:
    """Exact root set {x in GF(q) : f(x) = 0}, by one evaluate call over
    all of GF(q)."""
    if not f:
        raise ValueError("zero polynomial vanishes everywhere")
    (values,) = evaluate(f.field, [f.coeffs], np.arange(f.field.q))
    return {x for x, v in enumerate(values.tolist()) if v == 0}


def is_irreducible(f: Poly) -> bool:
    """Irreducibility of a monic polynomial of degree >= 1.

    Degrees 2 and 3 reduce to root-freeness; higher degrees use the
    gcd-with-x^(q^i)-x criterion.
    """
    if not f.is_monic:
        raise ValueError("irreducibility test expects a monic polynomial")
    d = f.degree
    if d < 1:
        raise ValueError("irreducibility is undefined for constants")
    if d == 1:
        return True
    if d <= 3:
        return not distinct_roots(f)
    field = f.field
    x = Poly.x(field)
    if pow_mod(x, field.q**d, f) != x % f:
        return False
    for t in prime_factors(d):
        g = pow_mod(x, field.q ** (d // t), f) - x
        if not g or gcd(f, g).degree != 0:
            return False
    return True


def evaluate(field: GF, coeffs, xs) -> np.ndarray:
    """Every row of an (N, d+1) array of coefficients (low degree first)
    evaluated at every point of xs, as an (N, len(xs)) array: Horner's rule
    by table gathers, acc = add[mul[acc, x], c_j], from acc = c_d."""
    add_t, mul_t = field.add_table, field.mul_table
    coeffs = np.asarray(coeffs, dtype=np.intp)
    xs = np.asarray(xs, dtype=np.intp)
    acc = np.zeros((len(coeffs), len(xs)), dtype=add_t.dtype)
    if coeffs.shape[1]:
        acc[:] = coeffs[:, -1, None]
    for j in range(coeffs.shape[1] - 2, -1, -1):
        acc = add_t[mul_t[acc, xs], coeffs[:, j, None]]
    return acc


def _monic_rows(codes: np.ndarray, q: int, d: int) -> np.ndarray:
    """(len(codes), d+1) coefficients of the monic degree-d polynomials with
    the given encodings: the base-q digits of each code, then the leading 1."""
    rows = np.ones((len(codes), d + 1), dtype=np.intp)
    for i in range(d):
        rows[:, i] = codes // q**i % q
    return rows


def _convolve(field: GF, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Products of broadcast rows of coefficients f (..., a+1) and g (..., b+1),
    one table gather per pair of coefficients."""
    add_t, mul_t = field.add_table, field.mul_table
    a, b = f.shape[-1], g.shape[-1]
    shape = np.broadcast_shapes(f.shape[:-1], g.shape[:-1])
    out = np.zeros(shape + (a + b - 1,), dtype=add_t.dtype)
    for i in range(a):
        for j in range(b):
            out[..., i + j] = add_t[out[..., i + j], mul_t[f[..., i], g[..., j]]]
    return out


@functools.lru_cache(maxsize=None)
def monic_irreducibles(field: GF, d: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree d, ascending by coefficient encoding
    (coefficients read as base-q digits, low degree first); computed once per
    (field, d).

    A sieve: every product f*g of monic factors with 1 <= deg f <= d/2 is
    marked reducible, and the unmarked encodings are kept.  Each block of
    factors f is multiplied with every g at once, at most q^(d-1) products
    of d+1 coefficients per block."""
    if d < 1:
        raise ValueError("irreducibility is undefined for constants")
    q = field.q
    reducible = np.zeros(q**d, dtype=bool)
    powers = q ** np.arange(d)
    for a in range(1, d // 2 + 1):
        fs = _monic_rows(np.arange(q**a), q, a)
        gs = _monic_rows(np.arange(q ** (d - a)), q, d - a)
        block = q ** (a - 1)
        for start in range(0, len(fs), block):
            prod = _convolve(field, fs[start : start + block, None], gs[None])
            reducible[prod[..., :d] @ powers] = True
    rows = _monic_rows(np.flatnonzero(~reducible), q, d)
    return tuple(Poly(field, row) for row in rows.tolist())


class RationalFunction:
    """num/den with den monic and nonzero, evaluated pointwise: the scalar
    reference for Code.rational_words."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if num.field != den.field:
            raise ValueError("mismatched fields")
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not den.is_monic:
            raise ValueError("denominator must be monic")
        self.num = num
        self.den = den

    @property
    def field(self) -> GF:
        return self.num.field

    def __call__(self, x: int) -> int:
        d = self.den(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.field.div(self.num(x), d)

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"
