"""Exact arithmetic in GF(p^m) for prime p and m >= 1.

An element with coefficient vector (c_0, ..., c_{m-1}) over GF(p) is encoded
as the integer c_0 + c_1*p + ... + c_{m-1}*p^(m-1), so 0 and 1 encode the two
identities and prime-field elements are just residues.  The canonical element
order used throughout the package lists the nonzero elements ascending by
encoding and puts 0 last.

The field keeps no polynomial arithmetic of its own; it takes it from
``poly``, over the prime field GF(p).  The reducing modulus of an extension
field is the first monic irreducible of degree m that ``poly.is_irreducible``
accepts when coefficient vectors (c_0, ..., c_{m-1}) are compared
lexicographically, low-degree coefficient first; a prime field has the
modulus x.  The generator is the smallest encoding whose powers, taken by
``poly.pow_mod`` modulo the modulus, pass the prime-divisor test of order
q-1.  An extension field runs both searches over one uncached GF(p).  The
log and exp tables step through its powers by one vectorised map b -> g*b.
A prime field adds, multiplies and inverts residues directly and builds no
log table for them.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd

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
        self._generator = None
        self._np_tables = {}
        # a prime field is its own base; an extension keeps one uncached GF(p)
        # for its modulus and generator searches, without the p x p tables
        # that the modulus search may build
        base = self if m == 1 else GF(p)
        self.modulus = _smallest_irreducible(base, m)
        base._np_tables.clear()
        self._base = None if m == 1 else base

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
        """Exponents of generator() by stepping b -> g*b from 1, and their
        logs."""
        if self._logs is None:
            times = self._times(self.generator())
            exps = [0] * (2 * self.q)  # doubled so log sums index directly
            logs = [0] * self.q
            acc = 1
            for i in range(self.q - 1):
                exps[i] = acc
                logs[acc] = i
                acc = times[acc]
            for i in range(self.q - 1, 2 * self.q):
                exps[i] = exps[i - (self.q - 1)]
            self._exps = exps
            self._logs = logs
        return self._logs, self._exps

    def _times(self, g: int) -> list[int]:
        """The map b -> g*b as a q-entry list: Horner's rule on the digits of
        g over the (m, block) digit array of a block of TABLE_LIMIT elements
        at a time.  Multiplying by x shifts the digits up one place and
        replaces x^m by minus the low part of the modulus."""
        p, m = self.p, self.m
        powers = np.array(self._powers, dtype=np.int64)
        low = np.array(self.modulus[:m], dtype=np.int64)[:, None]
        digits = self.digits(g)
        while not digits[-1]:  # a leading zero digit leaves acc at 0
            digits.pop()
        out = []
        for start in range(0, self.q, TABLE_LIMIT):
            b = np.arange(start, min(start + TABLE_LIMIT, self.q)) // powers[:, None] % p
            acc = np.zeros_like(b)
            for c in reversed(digits):
                carry = acc[-1] * low
                acc[1:] = acc[:-1]
                acc[0] = 0
                acc = (acc - carry + c * b) % p
            out += (powers @ acc).tolist()
        return out

    def generator(self) -> int:
        """Smallest encoding g with g^((q-1)/f) != 1 for every prime f
        dividing q-1, powered as a polynomial over GF(p) modulo the
        modulus."""
        if self._generator is None:
            # deferred: poly imports gf at module level
            from deephole.poly import Poly, pow_mod

            base = self._base or self
            mod, one = Poly(base, self.modulus), Poly.one(base)
            n = self.q - 1
            fs = prime_factors(n) if n > 1 else []
            for g in range(1, self.q):
                elem = Poly(base, self.digits(g))
                if all(pow_mod(elem, n // f, mod) != one for f in fs):
                    self._generator = g
                    break
        return self._generator

    def is_square(self, a: int) -> bool:
        """Euler's criterion: the reference that poly.is_irreducible is
        checked against at degree 2, by the discriminant at odd q."""
        if a == 0 or self.p == 2:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def _check_element(self, a: int) -> None:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element of {self!r}")

    def is_generator(self, g: int) -> bool:
        self._check_element(g)
        if g == 0:
            return False
        if self.q == 2:
            return g == 1
        logs, _ = self._log_tables()
        return gcd(logs[g], self.q - 1) == 1

    def discrete_log(self, a: int, g: int | None = None) -> int:
        """Exponent t in [0, q-1) with g^t = a; g defaults to generator()."""
        self._check_element(a)
        if a == 0:
            raise ValueError("discrete log of zero")
        logs, _ = self._log_tables()
        if g is None or g == self.generator():
            return logs[a]
        if not self.is_generator(g):
            raise ValueError(f"{g} does not generate the multiplicative group")
        n = self.q - 1
        return logs[a] * pow(logs[g], -1, n) % n if n > 1 else 0

    # -- element enumeration ----------------------------------------------

    def element_reprs(self) -> tuple[int, ...]:
        """Canonical order of encodings: 1, 2, ..., q-1, 0."""
        return tuple(range(1, self.q)) + (0,)

    # -- lookup tables ------------------------------------------------------

    def _np_table(self, kind: str) -> np.ndarray:
        """uint16 lookup table for vectorised code, built on first use: the
        (q, q) `add` table digit by digit, the (q, q) `mul` table from the log
        and exp tables, the (q,) `inv` table with inv[0] = 0, and the (q,)
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
                # row 0 of the product table holds no 1, so inv[0] = 0
                tab = np.argmax(self.mul_table == 1, axis=1).astype(np.uint16)
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


@functools.lru_cache(maxsize=None)
def _cached_field(p: int, m: int) -> GF:
    return GF(p, m)


def make_field(p: int, m: int = 1) -> GF:
    """Construct (or fetch the cached) GF(p^m) with the canonical modulus."""
    return _cached_field(p, m)


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
