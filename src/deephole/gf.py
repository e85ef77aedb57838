"""Exact arithmetic in GF(p^m) for prime p and m >= 1.

An element with coefficient vector (c_0, ..., c_{m-1}) over GF(p) is encoded
as the integer c_0 + c_1*p + ... + c_{m-1}*p^(m-1), so 0 and 1 encode the two
identities and prime-field elements are just residues.  The canonical element
order used throughout the package lists the nonzero elements ascending by
encoding and puts 0 last.

The reducing modulus of an extension field is the first monic irreducible of
degree m when coefficient vectors (c_0, ..., c_{m-1}) are compared
lexicographically, low-degree coefficient first.
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


# ----------------------------------------------------------------------
# bootstrap arithmetic for polynomials over GF(p), as plain coefficient
# lists (low degree first); used to select moduli and to multiply in the
# extension before any tables exist
# ----------------------------------------------------------------------

def _pp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _pp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pp_trim(out)


def _pp_mod(a, mod, p):
    a = list(a)
    inv_lead = pow(mod[-1], p - 2, p)
    while len(a) >= len(mod):
        c = a[-1] * inv_lead % p
        if c:
            shift = len(a) - len(mod)
            for i, mi in enumerate(mod):
                a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _pp_trim(a)


def _pp_powmod(base, e, mod, p):
    result = [1]
    base = _pp_mod(base, mod, p)
    while e:
        if e & 1:
            result = _pp_mod(_pp_mul(result, base, p), mod, p)
        base = _pp_mod(_pp_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _pp_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pp_mod(a, b, p)
    return a


def _pp_is_irreducible(f, p):
    """Irreducibility of a monic f over GF(p) via the x^(p^i) criterion."""
    d = len(f) - 1
    if d < 1:
        return False
    x = [0, 1]
    if _pp_powmod(x, p**d, f, p) != _pp_mod(x, f, p):
        return False
    for t in prime_factors(d):
        g = _pp_powmod(x, p ** (d // t), f, p)
        g = [(gi - xi) % p for gi, xi in itertools.zip_longest(g, x, fillvalue=0)]
        if len(_pp_gcd(f, _pp_trim(g), p)) != 1:
            return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """First monic irreducible of degree m, coefficient vectors compared
    lexicographically low-degree-first."""
    for low in itertools.product(range(p), repeat=m):
        f = list(low) + [1]
        if _pp_is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ----------------------------------------------------------------------


class GF:
    """A finite field GF(p^m) with precomputed discrete-log tables.

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
        self.modulus = _smallest_irreducible(p, m)
        self._powers = tuple(p**i for i in range(m))
        self._logs = None      # log table relative to self.generator()
        self._exps = None
        self._generator = None
        self._np_tables = {}

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

    def undigits(self, ds) -> int:
        return sum(d * pw for d, pw in zip(ds, self._powers))

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

    def _direct_mul(self, a: int, b: int) -> int:
        # table-free product, used to bootstrap the log tables
        if self.m == 1:
            return a * b % self.p
        prod = _pp_mul(self.digits(a), self.digits(b), self.p)
        return self.undigits(_pp_mod(prod, list(self.modulus), self.p))

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
        if self._logs is None:
            g = self.generator()
            exps = [0] * (2 * self.q)  # doubled so log sums index directly
            logs = [0] * self.q
            acc = 1
            for i in range(self.q - 1):
                exps[i] = acc
                logs[acc] = i
                acc = self._direct_mul(acc, g)
            for i in range(self.q - 1, 2 * self.q):
                exps[i] = exps[i - (self.q - 1)]
            self._exps = exps
            self._logs = logs
        return self._logs, self._exps

    def generator(self) -> int:
        """Smallest encoding that generates the multiplicative group."""
        if self._generator is None:
            n = self.q - 1
            fs = prime_factors(n) if n > 1 else []
            for g in range(1, self.q):
                if all(self._bootstrap_pow(g, n // f) != 1 for f in fs):
                    self._generator = g
                    break
        return self._generator

    def _bootstrap_pow(self, a, n):
        r = 1
        while n:
            if n & 1:
                r = self._direct_mul(r, a)
            a = self._direct_mul(a, a)
            n >>= 1
        return r

    def is_square(self, a: int) -> bool:
        """Euler's criterion: the reference that poly.is_irreducible is
        checked against at degree 2, by the discriminant at odd q."""
        if a == 0 or self.p == 2:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def is_generator(self, g: int) -> bool:
        if g == 0:
            return False
        if self.q == 2:
            return g == 1
        logs, _ = self._log_tables()
        return gcd(logs[g], self.q - 1) == 1

    def discrete_log(self, a: int, g: int | None = None) -> int:
        """Exponent t in [0, q-1) with g^t = a; g defaults to generator()."""
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
        and exp tables, and the (q,) `inv` table with inv[0] = 0.  Every
        intermediate is below 2 * TABLE_LIMIT, so uint16 never wraps."""
        tab = self._np_tables.get(kind)
        if tab is None:
            if self.q > TABLE_LIMIT:
                raise BoundExceededError(
                    f"q = {self.q} exceeds table limit {TABLE_LIMIT}"
                )
            q, p = self.q, self.p
            tab = np.zeros((q, q), dtype=np.uint16)
            if kind == "inv":
                # row 0 of the product table holds no 1, so inv[0] = 0
                tab = np.argmax(self.mul_table == 1, axis=1).astype(np.uint16)
            elif kind == "add":
                elems = np.arange(q, dtype=np.uint16)
                for pw in self._powers:
                    d = elems // pw % p
                    tab += (d[:, None] + d[None, :]) % p * pw
            else:
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
