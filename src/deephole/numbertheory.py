"""Subset-sum counts over GF(q), zero-sum-free sets, and the distribution of
monic irreducible cubics in the residue classes modulo an irreducible
quadratic.

``n3_sweep`` is the one path for the cubic distribution.  It realizes every
residue ring GF(q)[x]/(q(x)) inside GF(q^2) at once: GF(q) embeds once per
sweep, and per block of quadratics one ``poly.evaluate`` over all of GF(q^2)
finds every root theta, one more builds every residue map x -> theta, and a
third lifts every monic irreducible cubic at every theta.  The brute-force
column is gathered from the lifts; the character column is gathered from the
discrete logs of GF(q^2) and never reads the brute force, so one checks the
other.  The scalar references ``n3_bruteforce``, ``n3_formula`` and ``r3``
take one quadratic and one class (c0, c1) and compute in GF(q)[x]/(q(x))
with ``Poly`` arithmetic, not through GF(q^2).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

from deephole import codes
from deephole.errors import TheoremAssertionError
from deephole.gf import GF, make_field
from deephole.poly import Poly, evaluate, is_irreducible, monic_irreducibles, pow_mod
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
    D = tuple(D)
    if any(not 0 <= d < field.q for d in D):
        raise ValueError(f"D has an element outside {field!r}")
    out = []
    for sub in itertools.combinations(D, r):
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


def _embedding(base: GF) -> tuple[GF, np.ndarray]:
    """GF(q^2) and the image of every base-field element in it.  The base
    generator-polynomial root goes to tau, the smallest-encoding root of the
    base modulus in GF(q^2); fetching the GF(q^2) tables first makes a field
    over TABLE_LIMIT fail here, before any enumeration."""
    ext = make_field(base.p, 2 * base.m)
    tau = np.argmax(evaluate(ext, [base.modulus], np.arange(ext.q))[0] == 0)
    embed = evaluate(ext, [base.digits(e) for e in range(base.q)], [tau])[:, 0]
    return ext, embed


def _residue_maps(ext: GF, quadratics: np.ndarray, linear: np.ndarray):
    """theta, the smallest-encoding root in GF(q^2) of each row of a (B, 3)
    array of embedded monic irreducible quadratics, and the residue maps
    x -> theta as a (B, len(linear)) array: the image of each row of linear,
    the embedded coefficients of a class c0 + c1 x.  One evaluation over all
    of GF(q^2) finds every theta, and one more at the thetas builds every
    map."""
    theta = np.argmax(evaluate(ext, quadratics, np.arange(ext.q)) == 0, axis=1)
    return theta, evaluate(ext, linear, theta).T


def _cubic_residues(qpoly: Poly) -> Counter:
    """Multiplicity of each residue p % q(x) among the monic irreducible
    cubics p, by Poly division."""
    return Counter(p % qpoly for p in monic_irreducibles(qpoly.field, 3))


def _residue(qpoly: Poly, alpha) -> Poly:
    """The residue class alpha = (c0, c1) of GF(q)[x]/(q(x)) as the Poly
    c0 + c1 x, after checking that q(x) is a monic irreducible quadratic and
    that alpha is nonzero."""
    if qpoly.degree != 2 or not qpoly.is_monic or not is_irreducible(qpoly):
        raise ValueError(f"{qpoly!r} is not a monic irreducible quadratic")
    a = Poly(qpoly.field, alpha)
    if not a:
        raise ValueError("alpha must be a nonzero residue class")
    return a


def n3_bruteforce(qpoly: Poly, alpha) -> int:
    """Number of pairs (p, l): p monic irreducible cubic, l nonzero scalar,
    with p = l*alpha modulo q(x); by full enumeration of cubics, each reduced
    in GF(q)[x]/(q(x)) by Poly division."""
    a = _residue(qpoly, alpha)
    residues = _cubic_residues(qpoly)
    return sum(residues[a.scale(l)] for l in range(1, qpoly.field.q))


def r3(qpoly: Poly, alpha) -> int:
    """Character correction term: 0 unless q = 2 mod 3, else 2 when alpha is
    a cube in (GF(q)[x]/(q(x)))*, that is alpha^((q^2-1)/3) = 1 modulo
    q(x), and -1 otherwise."""
    a = _residue(qpoly, alpha)
    q = qpoly.field.q
    if q % 3 != 2:
        return 0
    return 2 if pow_mod(a, (q * q - 1) // 3, qpoly) == Poly.one(qpoly.field) else -1


def n3_formula(qpoly: Poly, alpha) -> int:
    """(q(q-1) - r3(alpha)) / 3; exact."""
    q = qpoly.field.q
    t = q * (q - 1) - r3(qpoly, alpha)
    if t % 3:
        raise AssertionError("character formula did not produce a multiple of 3")
    return t // 3


def n3_sweep(field: GF) -> Table:
    """Columns (q(x), alpha, brute force, formula, r3) over every monic
    irreducible quadratic and every nonzero residue class, quadratic-major.

    The quadratics go in blocks, so that no per-block array holds more than
    codes.SCAN_CHUNK entries.  Each block takes three evaluations over
    GF(q^2): every theta, every residue map, and every irreducible cubic
    lifted at every theta.  The brute-force count at alpha is the number of
    cubics whose lift lies in the coset alpha*GF(q)*, since each such cubic
    is l*alpha for exactly one l; cosets are compared by their
    smallest-encoding element, gathered from the product table.  The formula
    and r3 columns are gathered from the discrete logs of GF(q^2) and never
    read the brute force."""
    q = field.q
    ext, embed = _embedding(field)
    coset = ext.mul_table[embed[1:]].min(axis=0)
    # alpha is a cube in GF(q^2)* iff its log is 0 mod 3; r3 is 0 unless q = 2 mod 3
    r3_of = np.where(ext.log_table % 3 == 0, 2, -1) * (q % 3 == 2)
    quadratics = np.array([p.coeffs for p in monic_irreducibles(field, 2)])
    cubics = embed[[p.coeffs for p in monic_irreducibles(field, 3)]]
    # the nonzero class c0 + c1 x at row c0 + q*c1 - 1
    ids = np.arange(1, q * q)
    residues = np.stack([ids % q, ids // q], axis=1)
    block = max(1, codes.SCAN_CHUNK // max(ext.q, len(cubics)))
    brute, r3_col = [], []
    for start in range(0, len(quadratics), block):
        quads = embed[quadratics[start : start + block]]
        theta, maps = _residue_maps(ext, quads, embed[residues])
        offsets = ext.q * np.arange(len(theta))
        lifts = coset[evaluate(ext, cubics, theta)] + offsets
        counts = np.bincount(lifts.ravel(), minlength=offsets.size * ext.q)
        brute.append(counts[coset[maps] + offsets[:, None]].ravel())
        r3_col.append(r3_of[maps].ravel())
    r3_col = np.concatenate(r3_col)
    t = q * (q - 1) - r3_col
    if np.any(t % 3):
        raise AssertionError("character formula did not produce a multiple of 3")
    return Table(
        {
            "qpoly": np.repeat(quadratics, len(residues), axis=0),
            "alpha": np.tile(residues, (len(quadratics), 1)),
            "n3_bruteforce": np.concatenate(brute),
            "n3_formula": t // 3,
            "r3": r3_col,
        }
    )
