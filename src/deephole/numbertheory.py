"""Subset-sum counts over GF(q), zero-sum-free sets, and the distribution of
monic irreducible cubics in the residue classes modulo an irreducible
quadratic.

The residue ring GF(q)[x]/(q(x)) is realized through an explicit isomorphism
onto GF(q^2), so cubic-residue counting and the order-3 character both run on
ordinary field arithmetic.  The brute-force count still enumerates every monic
irreducible cubic: all of them are lifted into GF(q^2) in one table-gather
evaluation (``poly.evaluate``), and each ring's counts at l*alpha are gathered
over arrays.  The character-based count is gathered over arrays from the
discrete logs of GF(q^2) and never reads the brute force, so one checks the
other; ``n3_sweep`` returns both as columns of a ``table.Table``, and the
scalar ``n3_formula`` and ``r3`` stay as the per-class reference.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from deephole.errors import TheoremAssertionError
from deephole.gf import GF, make_field
from deephole.poly import Poly, evaluate, is_irreducible, monic_irreducibles
from deephole.table import Table

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
    q = field.q
    if any(not 0 <= d < q for d in D):
        raise ValueError(f"D has an element outside {field!r}")
    if not 0 <= k <= len(D):
        raise ValueError(f"subset size k = {k} out of range for |D| = {len(D)}")
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


def subset_sum_closed_row(field: GF, k: int, nonzero: bool = False) -> list[int]:
    """N(k, g, D) for every g, indexed by encoding, for D = GF(q), or
    D = GF(q)* when `nonzero`, by the closed forms of Li and Wan ("On the
    subset sum problem over finite fields", Finite Fields Appl. 14, 2008).
    With v(0) = q-1 and v(g) = -1 otherwise, q*N is
    C(q, k) + [p | k] (-1)^(k + k/p) v(g) C(q/p, k/p) for GF(q), and
    C(q-1, k) + (-1)^(k + floor(k/p)) v(g) C(q/p - 1, floor(k/p)) for GF(q)*."""
    q, p = field.q, field.p
    j = k // p
    if nonzero:
        base, corr = math.comb(q - 1, k), (-1) ** (k + j) * math.comb(q // p - 1, j)
    else:
        base = math.comb(q, k)
        corr = (-1) ** (k + j) * math.comb(q // p, j) if k % p == 0 else 0
    totals = [base + (q - 1) * corr] + [base - corr] * (q - 1)
    if any(t % q for t in totals):
        raise TheoremAssertionError(f"Li-Wan totals {totals[:2]} are not multiples of q = {q}")
    return [t // q for t in totals]


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
    hole of RS(D,k): equivalent to N(k+1, a, D) > 0.  An acceptance criterion,
    checked against exact error distances."""
    return subset_sum_count(field, D, k + 1, a) > 0


# -- distribution of irreducible cubics ---------------------------------------


@functools.lru_cache(maxsize=None)
def _embedding(base: GF) -> tuple[GF, np.ndarray]:
    """GF(q^2) and the image of every base-field element in it.  The base
    generator-polynomial root goes to tau, the smallest-encoding root of the
    base modulus in GF(q^2); fetching the GF(q^2) tables first makes a field
    over TABLE_LIMIT fail here, before any work."""
    ext = make_field(base.p, 2 * base.m)
    points = np.arange(ext.q)
    tau = points[evaluate(ext, [base.modulus], points)[0] == 0][0]
    digits = [base.digits(e) for e in range(base.q)]
    embed = evaluate(ext, digits, [tau])[:, 0]
    embed.setflags(write=False)
    return ext, embed


class QuadraticExtension:
    """GF(q)[x]/(q(x)) realized inside GF(q^2).

    The base field embeds through a root tau of the base modulus in the big
    field, computed once per base field; the residue class of x maps to a
    root theta of q(x).  Both roots are chosen smallest-encoding-first so the
    realization is deterministic.  Residue classes and cubic residues are
    evaluated over arrays by ``poly.evaluate``; ``lift`` is the scalar route.
    """

    def __init__(self, qpoly: Poly):
        base = qpoly.field
        if qpoly.degree != 2 or not qpoly.is_monic or not is_irreducible(qpoly):
            raise ValueError(f"{qpoly!r} is not a monic irreducible quadratic")
        self.base = base
        self.qpoly = qpoly
        self.ext, self._embed = _embedding(base)
        ext = self.ext
        points = np.arange(ext.q)
        emb_q = self._embed[list(qpoly.coeffs)]
        self.theta = int(points[evaluate(ext, [emb_q], points)[0] == 0][0])
        # class c0 + c1 x has code c0 + q*c1; _classes[code] is its image
        codes = np.arange(base.q**2)
        linear = self._embed[np.stack([codes % base.q, codes // base.q], axis=1)]
        self._classes = evaluate(ext, linear, [self.theta])[:, 0]
        self._codes = np.zeros(ext.q, dtype=np.intp)
        self._codes[self._classes] = codes
        if np.bincount(self._classes, minlength=ext.q).max() != 1:
            raise AssertionError("residue map is not a bijection")
        self._cubic_counts = None

    def embed(self, a: int) -> int:
        """Image in GF(q^2) of a base-field element."""
        return int(self._embed[a])

    def lift(self, f: Poly) -> int:
        """Image in GF(q^2) of f(x) mod q(x), by scalar Horner steps: the
        reference for the cubic lifts of cubic_residue_counts and n3_sweep."""
        ext = self.ext
        acc = 0
        for c in reversed(f.coeffs):
            acc = ext.add(ext.mul(acc, self.theta), self.embed(c))
        return acc

    def residue(self, alpha: int) -> tuple[int, int]:
        """Coefficients (c0, c1) of the residue class c0 + c1 x mapping to
        alpha: the scalar reference for the alpha column of n3_sweep."""
        return divmod(int(self._codes[alpha]), self.base.q)[::-1]

    def residue_classes(self) -> list[int]:
        """Nonzero residue classes in deterministic order (class c0 + c1 x
        at position c0 + q*c1 - 1), as ext encodings."""
        return self._classes[1:].tolist()

    def cubic_residue_counts(self) -> np.ndarray:
        """Multiplicity of each residue among the monic irreducible cubics,
        indexed by ext encoding; every cubic lifted in one evaluation."""
        if self._cubic_counts is None:
            cubics = [p.coeffs for p in monic_irreducibles(self.base, 3)]
            lifted = evaluate(self.ext, self._embed[cubics], [self.theta])[:, 0]
            self._cubic_counts = np.bincount(lifted, minlength=self.ext.q)
        return self._cubic_counts


def n3_bruteforce(ring: QuadraticExtension, alpha: int) -> int:
    """Number of pairs (p, l): p monic irreducible cubic, l nonzero scalar,
    with p = l*alpha modulo q(x); by full enumeration of cubics."""
    if alpha == 0:
        raise ValueError("alpha must be a nonzero residue class")
    counts = ring.cubic_residue_counts()
    ext = ring.ext
    return sum(
        int(counts[ext.mul(ring.embed(l), alpha)]) for l in range(1, ring.base.q)
    )


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


def n3_sweep(field: GF) -> Table:
    """Columns (q(x), alpha, brute force, formula, r3) over every monic
    irreducible quadratic and every nonzero residue class, quadratic-major.
    Every irreducible cubic is lifted into every ring by one evaluation at
    the rings' roots theta; the brute-force column of each ring is then one
    gather over (scalar l, class alpha) of its cubic residue counts at
    l*alpha.  The formula and r3 columns are gathered from the discrete logs
    of GF(q^2) and never read the brute force."""
    ext, embed = _embedding(field)
    q = field.q
    quadratics = monic_irreducibles(field, 2)
    rings = [QuadraticExtension(qpoly) for qpoly in quadratics]
    cubics = embed[[p.coeffs for p in monic_irreducibles(field, 3)]]
    lifted = evaluate(ext, cubics, [ring.theta for ring in rings])
    scaled = ext.mul_table[embed[1:]]  # (l, beta) -> l*beta
    alphas, brute = [], []
    for ring, lifts in zip(rings, lifted.T):
        classes = ring.residue_classes()
        counts = np.bincount(lifts, minlength=ext.q)
        brute.append(counts[scaled[:, classes]].sum(axis=0))
        alphas.append(classes)
    alphas = np.concatenate(alphas)
    if q % 3 == 2:
        logs = np.array([ext.discrete_log(a) for a in range(1, ext.q)])
        r3_col = np.where(logs[alphas - 1] % 3 == 0, 2, -1)
    else:
        r3_col = np.zeros(len(alphas), dtype=np.int64)
    t = q * (q - 1) - r3_col
    if np.any(t % 3):
        raise AssertionError("character formula did not produce a multiple of 3")
    # residue_classes() lists class c0 + c1 x at position c0 + q*c1 - 1
    codes = np.arange(1, q * q)
    residues = np.stack([codes % q, codes // q], axis=1)
    return Table(
        {
            "qpoly": np.repeat([p.coeffs for p in quadratics], len(codes), axis=0),
            "alpha": np.tile(residues, (len(quadratics), 1)),
            "n3_bruteforce": np.concatenate(brute),
            "n3_formula": t // 3,
            "r3": r3_col,
        }
    )
