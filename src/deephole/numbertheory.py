"""Subset-sum counts over GF(q), zero-sum-free sets, and the distribution of
monic irreducible cubics in the residue classes modulo an irreducible
quadratic.

The residue ring GF(q)[x]/(q(x)) is realized through an explicit isomorphism
onto GF(q^2), so cubic-residue counting and the order-3 character both run on
ordinary field arithmetic.  The character-based count and the brute-force
count are implemented independently so one can check the other.
"""

from __future__ import annotations

import itertools
from collections import Counter

from deephole.gf import GF, make_field
from deephole.poly import Poly, is_irreducible, monic_irreducibles

# -- subset sums -------------------------------------------------------------


def subset_sum_count(field: GF, D, k: int, g: int) -> int:
    """N(k, g, D): number of k-subsets of D summing to g, by dynamic
    programming over (chosen count, partial sum)."""
    return subset_sum_row(field, D, k)[g]


def subset_sum_row(field: GF, D, k: int) -> list[int]:
    """N(k, g, D) for every g, indexed by encoding."""
    D = tuple(D)
    if len(set(D)) != len(D):
        raise ValueError("D has repeated elements")
    if not 0 <= k <= len(D):
        raise ValueError(f"subset size k = {k} out of range for |D| = {len(D)}")
    q = field.q
    dp = [[0] * q for _ in range(k + 1)]
    dp[0][0] = 1
    for idx, d in enumerate(D):
        for j in range(min(k - 1, idx), -1, -1):
            row, nxt = dp[j], dp[j + 1]
            for s in range(q):
                c = row[s]
                if c:
                    nxt[field.add(s, d)] += c
    return dp[k]


def is_zero_sum_free(field: GF, D, r: int) -> bool:
    """Whether no r-subset of D sums to zero."""
    if r < 2:
        raise ValueError("zero-sum-freeness is defined for r >= 2")
    if r > len(tuple(D)):
        raise ValueError(f"r = {r} exceeds |D|")
    return subset_sum_count(field, D, r, 0) == 0


def zero_sum_violations(field: GF, D, r: int, limit: int = 10) -> list[tuple[int, ...]]:
    """Up to `limit` r-subsets of D summing to zero, in enumeration order."""
    out = []
    for sub in itertools.combinations(tuple(D), r):
        total = 0
        for s in sub:
            total = field.add(total, s)
        if total == 0:
            out.append(sub)
            if len(out) >= limit:
                break
    return out


def initial_segment(p: int, r: int) -> list[int]:
    """The set {0, 1, ..., floor(p/r) + r - 1}, a natural candidate for an
    r-zero-sum-free set in GF(p)."""
    return list(range(p // r + r))


def degree_k1_nondeephole(field: GF, D, k: int, a: int) -> bool:
    """Whether x^(k+1) - a x^k (plus any lower-degree part) fails to be a deep
    hole of RS(D,k): equivalent to N(k+1, a, D) > 0."""
    return subset_sum_count(field, D, k + 1, a) > 0


# -- distribution of irreducible cubics ---------------------------------------


class QuadraticExtension:
    """GF(q)[x]/(q(x)) realized inside GF(q^2).

    The base field embeds by sending its generator-polynomial root to a root
    tau of the base modulus in the big field; the residue class of x maps to a
    root theta of q(x).  Both roots are chosen smallest-encoding-first so the
    realization is deterministic.
    """

    def __init__(self, qpoly: Poly):
        base = qpoly.field
        if qpoly.degree != 2 or not qpoly.is_monic or not is_irreducible(qpoly):
            raise ValueError(f"{qpoly!r} is not a monic irreducible quadratic")
        self.base = base
        self.qpoly = qpoly
        self.ext = make_field(base.p, 2 * base.m)
        ext = self.ext
        tau = next(t for t in range(ext.q) if self._horner(base.modulus, t) == 0)
        self._embed = [0] * base.q
        for e in range(base.q):
            acc = 0
            for j, d in enumerate(base.digits(e)):
                acc = ext.add(acc, ext.mul(d, ext.pow(tau, j)))
            self._embed[e] = acc
        emb_q = [self._embed[c] for c in qpoly.coeffs]
        self.theta = next(t for t in range(ext.q) if self._horner(emb_q, t) == 0)
        self._residue = {}
        for c1 in range(base.q):
            for c0 in range(base.q):
                val = ext.add(self._embed[c0], ext.mul(self._embed[c1], self.theta))
                self._residue[val] = (c0, c1)
        if len(self._residue) != ext.q:
            raise AssertionError("residue map is not a bijection")
        self._cubic_counts = None

    def _horner(self, coeffs, x: int) -> int:
        ext = self.ext
        acc = 0
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        return acc

    def embed(self, a: int) -> int:
        """Image in GF(q^2) of a base-field element."""
        return self._embed[a]

    def lift(self, f: Poly) -> int:
        """Image in GF(q^2) of f(x) mod q(x)."""
        ext = self.ext
        acc = 0
        for c in reversed(f.coeffs):
            acc = ext.add(ext.mul(acc, self.theta), self._embed[c])
        return acc

    def residue(self, alpha: int) -> tuple[int, int]:
        """Coefficients (c0, c1) of the residue class c0 + c1 x mapping to alpha."""
        return self._residue[alpha]

    def residue_classes(self):
        """Nonzero residue classes in deterministic order, as ext encodings."""
        base_q = self.base.q
        out = []
        for code in range(1, base_q * base_q):
            c0, c1 = code % base_q, code // base_q
            ext = self.ext
            out.append(ext.add(self._embed[c0], ext.mul(self._embed[c1], self.theta)))
        return out

    def cubic_residue_counts(self) -> Counter:
        """Multiplicity of each residue among the monic irreducible cubics."""
        if self._cubic_counts is None:
            counts = Counter()
            for p in monic_irreducibles(self.base, 3):
                counts[self.lift(p)] += 1
            self._cubic_counts = counts
        return self._cubic_counts


def n3_bruteforce(ring: QuadraticExtension, alpha: int) -> int:
    """Number of pairs (p, l): p monic irreducible cubic, l nonzero scalar,
    with p = l*alpha modulo q(x); by full enumeration of cubics."""
    if alpha == 0:
        raise ValueError("alpha must be a nonzero residue class")
    counts = ring.cubic_residue_counts()
    ext = ring.ext
    total = 0
    for l in range(1, ring.base.q):
        total += counts.get(ext.mul(ring.embed(l), alpha), 0)
    return total


def r3(ring: QuadraticExtension, alpha: int) -> int:
    """Character correction term: 0 unless q = 2 mod 3, else 2 on the cube
    subgroup of GF(q^2)* and -1 off it."""
    if alpha == 0:
        raise ValueError("alpha must be a nonzero residue class")
    if ring.base.q % 3 != 2:
        return 0
    return 2 if ring.ext.discrete_log(alpha) % 3 == 0 else -1


def n3_formula(ring: QuadraticExtension, alpha: int) -> int:
    """(q(q-1) - r3(alpha)) / 3; exact."""
    q = ring.base.q
    t = q * (q - 1) - r3(ring, alpha)
    if t % 3:
        raise AssertionError("character formula did not produce a multiple of 3")
    return t // 3


def n3_sweep(field: GF) -> list[dict]:
    """Rows (q(x), alpha, brute force, formula, r3) over every monic
    irreducible quadratic and every nonzero residue class."""
    rows = []
    for qpoly in monic_irreducibles(field, 2):
        ring = QuadraticExtension(qpoly)
        for alpha in ring.residue_classes():
            c0, c1 = ring.residue(alpha)
            rows.append(
                {
                    "qpoly": list(qpoly.coeffs),
                    "alpha": [c0, c1],
                    "n3_bruteforce": n3_bruteforce(ring, alpha),
                    "n3_formula": n3_formula(ring, alpha),
                    "r3": r3(ring, alpha),
                }
            )
    return rows
