"""Exact arithmetic in GF(p^m) for prime p and m >= 1.

An element with coefficient vector (c_0, ..., c_{m-1}) over GF(p) is encoded
as the integer c_0 + c_1*p + ... + c_{m-1}*p^(m-1), so 0 and 1 encode the two
identities and prime-field elements are just residues.  The canonical element
order used throughout the package lists the nonzero elements ascending by
encoding and puts 0 last.

The field keeps no polynomial arithmetic of its own; its modulus search
takes it from ``poly``, over an uncached GF(p) that is dropped once the
modulus is found.  The reducing modulus of an extension field is the first
monic irreducible of degree m that ``poly.is_irreducible`` accepts when
coefficient vectors (c_0, ..., c_{m-1}) are compared lexicographically,
low-degree coefficient first; a prime field has the modulus x.  The
generator is the smallest encoding g whose walk 1 -> g -> g^2 -> ..., one
vectorised map b -> g*b a step, meets all q-1 nonzero elements before it
returns to 1.  That walk is kept as the exp table and the log table is read
from it, so every discrete log is to that generator, and the inverse and
product tables are read from them.  A prime field adds, multiplies and
inverts residues directly and builds no log table for them.

Every array sum of products sum_j c_j*row_j is one ``GF.combine``, and
every array of powers x^t one ``GF.powers``.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from deephole.errors import BoundExceededError

MAX_Q = 1 << 20
# full q*q numpy lookup tables are only built below this size
TABLE_LIMIT = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
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


def _smallest_irreducible(base: "GF", m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m over the prime field base,
    coefficient vectors compared lexicographically low-degree-first.  The
    scan starts at c_0 = 1, since every candidate with c_0 = 0 has the root
    0."""
    if m == 1:
        return (0, 1)
    # deferred: poly imports gf at module level
    from deephole.poly import Poly, is_irreducible

    p = base.p
    for low in itertools.product(range(1, p), *[range(p)] * (m - 1)):
        f = Poly(base, low + (1,))
        if is_irreducible(f):
            return f.coeffs
    raise AssertionError("no irreducible polynomial found")  # unreachable


class GF:
    """A finite field GF(p^m); its log and lookup tables are built on first
    use.

    Arithmetic methods take and return integer encodings.  The instance is
    immutable after construction and safe to share across threads.
    """

    def __init__(self, p: int, m: int = 1):
        if m < 1:
            raise ValueError(f"extension degree m = {m} must be >= 1")
        # p and m are bounded before p is tested or p^m taken
        if p > MAX_Q or m > MAX_Q.bit_length() or p**m > MAX_Q:
            raise BoundExceededError(f"field size {p}^{m} exceeds bound {MAX_Q}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        q = p**m
        self.p = p
        self.m = m
        self.q = q
        self._powers = tuple(p**i for i in range(m))
        self._logs = None      # log table relative to self.generator()
        self._exps = None
        self._np_tables = {}
        # a prime field is its own base; an extension searches its modulus
        # over an uncached GF(p), dropped here with the p x p tables that the
        # search may build
        self.modulus = _smallest_irreducible(self if m == 1 else GF(p), m)

    # -- identity ------------------------------------------------------

    def __repr__(self):
        return f"GF({self.q})" if self.m == 1 else f"GF({self.p}^{self.m})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.m) == (other.p, other.m)

    def __hash__(self):
        return hash((self.p, self.m))

    @property
    def name(self) -> str:
        return f"{self.p}^{self.m}"

    def describe(self) -> dict:
        return {
            "name": self.name,
            "p": self.p,
            "m": self.m,
            "q": self.q,
            "modulus": list(self.modulus),
            "element_order": "nonzero ascending by encoding, zero last",
        }

    # -- digit helpers ---------------------------------------------------

    def digits(self, a: int) -> list[int]:
        p = self.p
        return [(a // pw) % p for pw in self._powers]

    # -- raw arithmetic on encodings -------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        return sum(((a // pw + b // pw) % p) * pw for pw in self._powers)

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        p = self.p
        return sum((-(a // pw) % p) * pw for pw in self._powers)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        logs, exps = self._log_tables()
        return exps[logs[a] + logs[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("division by zero in " + repr(self))
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        logs, exps = self._log_tables()
        return exps[(self.q - 1 - logs[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        """a^n with n >= 0; 0^0 is defined as 1."""
        if n < 0:
            raise ValueError("negative exponent; divide explicitly instead")
        if n == 0:
            return 1
        if a == 0:
            return 0
        if self.m == 1:
            return pow(a, n, self.p)
        logs, exps = self._log_tables()
        return exps[logs[a] * n % (self.q - 1)]

    # -- multiplicative structure ----------------------------------------

    def _log_tables(self):
        """The discrete logs to generator() and its powers, the exp list
        doubled so that log sums index it directly, both from the walk that
        found the generator."""
        self.generator()
        return self._logs, self._exps

    def _times(self, g: int) -> np.ndarray:
        """The map b -> g*b as a q-entry int64 array, a fifth of the memory
        of a list of q ints: Horner's rule on the digits of g over the
        (m, block) digit array of a block of TABLE_LIMIT elements at a time.
        Multiplying by x shifts the digits up one place and replaces x^m by
        minus the low part of the modulus."""
        p, m = self.p, self.m
        powers = np.array(self._powers, dtype=np.int64)
        low = np.array(self.modulus[:m], dtype=np.int64)[:, None]
        digits = self.digits(g)
        while not digits[-1]:  # a leading zero digit leaves acc at 0
            digits.pop()
        out = np.empty(self.q, dtype=np.int64)
        for start in range(0, self.q, TABLE_LIMIT):
            b = np.arange(start, min(start + TABLE_LIMIT, self.q)) // powers[:, None] % p
            acc = np.zeros_like(b)
            for c in reversed(digits):
                carry = acc[-1] * low
                acc[1:] = acc[:-1]
                acc[0] = 0
                acc = (acc - carry + c * b) % p
            out[start : start + TABLE_LIMIT] = powers @ acc
        return out

    def generator(self) -> int:
        """Smallest encoding g whose walk 1 -> g -> g^2 -> ..., by the map
        b -> g*b, meets all q-1 nonzero elements before it returns to 1.
        The first such walk is kept as the exp list, and the logs are read
        from it.  An extension field starts at g = p: an encoding below p
        lies in GF(p), and its order divides p - 1."""
        if self._exps is None:
            for g in range(1 if self.m == 1 else self.p, self.q):
                times = self._times(g).item  # Python ints, not numpy scalars
                exps = [1]
                b = times(1)
                while b != 1:
                    exps.append(b)
                    b = times(b)
                if len(exps) == self.q - 1:
                    break
            logs = [0] * self.q
            for i, b in enumerate(exps):
                logs[b] = i
            exps += exps
            exps += exps[:2]  # 2q entries, at q = 2 too
            self._logs, self._exps = logs, exps  # _exps last: it marks both built
        return self._exps[1]

    # -- element enumeration ----------------------------------------------

    def element_reprs(self) -> tuple[int, ...]:
        """Canonical order of encodings: 1, 2, ..., q-1, 0."""
        return tuple(range(1, self.q)) + (0,)

    # -- lookup tables ------------------------------------------------------

    def _np_table(self, kind: str) -> np.ndarray:
        """uint16 lookup table for vectorised code, built on first use: the
        (q, q) `add` table digit by digit, the (q, q) `mul` table and the (q,)
        `inv` table with inv[0] = 0 from the log and exp tables, and the (q,)
        `log` table of discrete logs to generator() with log[0] = 0.  Every
        intermediate is below 2 * TABLE_LIMIT, so uint16 never wraps."""
        tab = self._np_tables.get(kind)
        if tab is None:
            if self.q > TABLE_LIMIT:
                raise BoundExceededError(
                    f"q = {self.q} exceeds table limit {TABLE_LIMIT}"
                )
            q, p = self.q, self.p
            if kind == "inv":
                # 1/a = g^(q-1-log a), read from the doubled exp list
                logs, exps = self._log_tables()
                tab = np.array(exps, dtype=np.uint16)[q - 1 - np.array(logs)]
                tab[0] = 0
            elif kind == "log":
                tab = np.array(self._log_tables()[0], dtype=np.uint16)
            elif kind == "add":
                tab = np.zeros((q, q), dtype=np.uint16)
                elems = np.arange(q, dtype=np.uint16)
                for pw in self._powers:
                    d = elems // pw % p
                    tab += (d[:, None] + d[None, :]) % p * pw
            else:
                tab = np.zeros((q, q), dtype=np.uint16)
                logs, exps = self._log_tables()
                logs = np.array(logs[1:], dtype=np.uint16)
                tab[1:, 1:] = np.array(exps, dtype=np.uint16)[logs[:, None] + logs]
            tab.setflags(write=False)
            self._np_tables[kind] = tab
        return tab

    @property
    def add_table(self) -> np.ndarray:
        return self._np_table("add")

    @property
    def mul_table(self) -> np.ndarray:
        return self._np_table("mul")

    @property
    def inv_table(self) -> np.ndarray:
        return self._np_table("inv")

    @property
    def log_table(self) -> np.ndarray:
        return self._np_table("log")

    # -- sums of products -----------------------------------------------------

    def combine(self, coeffs, rows) -> np.ndarray:
        """Every sum sum_j coeffs[..., j]*rows[..., j, :] of broadcast (..., m)
        coefficients, m >= 1, and (..., m, w) rows, as a (..., w) array.  The
        add and mul tables are read flat: a sum or a product of a and b is
        one gather at a*q + b, the index taken in intp."""
        q = self.q
        add_t, mul_t = self.add_table.ravel(), self.mul_table.ravel()
        scaled = np.multiply(coeffs, q, dtype=np.intp)
        acc = mul_t[scaled[..., 0, None] + rows[..., 0, :]]
        for j in range(1, scaled.shape[-1]):
            at = np.multiply(acc, q, dtype=np.intp)
            at += mul_t[scaled[..., j, None] + rows[..., j, :]]
            acc = add_t[at]
        return acc

    def powers(self, xs, count: int) -> np.ndarray:
        """The (count, len(xs)) rows x^t, t < count, of the points xs, with
        0^0 = 1: one flat mul-table gather a row, the index taken in intp."""
        mul_t = self.mul_table.ravel()
        scaled = np.asarray(xs, dtype=np.intp) * self.q
        out = np.ones((count, len(scaled)), dtype=mul_t.dtype)
        for t in range(1, count):
            out[t] = mul_t[scaled + out[t - 1]]
        return out


def make_field(p: int, m: int = 1) -> GF:
    """Construct (or fetch the cached) GF(p^m) with the canonical modulus.
    The cache is keyed on (p, m), so make_field(5) is make_field(5, 1)."""
    return _cached_field(p, m)


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, m: int) -> GF:
    return GF(p, m)


def field_of_order(q: int) -> GF:
    """GF(q) for a prime power q, factoring q as p^m."""
    if q > MAX_Q:  # before the trial division
        raise BoundExceededError(f"field size {q} exceeds bound {MAX_Q}")
    for p in prime_factors(q):
        m = 0
        n = q
        while n % p == 0:
            n //= p
            m += 1
        if n == 1:
            return make_field(p, m)
        break
    raise ValueError(f"{q} is not a prime power")
