"""Scalar references that the tests compare the package's batched paths
against.  No command runs them, so they live beside the tests, not in
src/deephole.

- ``rref``: Gaussian elimination over GF(q), for ``codes._hyperplane`` and
  the tests' rank checks.
- ``is_square``: Euler's criterion, for ``poly.is_irreducible`` at degree 2.
- ``encode``: the codeword of a message polynomial, for the rows of
  ``Code.codewords``.
- ``n3_bruteforce``, ``n3_formula`` and ``r3``: one quadratic q(x) and one
  nonzero class alpha = (c0, c1), computed in GF(q)[x]/(q(x)) with ``Poly``
  arithmetic, not through GF(q^2), for the columns of
  ``numbertheory.n3_sweep``.  Their inputs are not checked: q(x) must be a
  monic irreducible quadratic and alpha nonzero.
"""

from __future__ import annotations

from collections import Counter

from deephole.codes import Code
from deephole.gf import GF
from deephole.poly import Poly, monic_irreducibles, pow_mod


def rref(field: GF, rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of the rows and its pivot columns, in order:
    row i is 1 at pivots[i] and 0 at every other pivot; rows past the last
    pivot are zero.  The input is left untouched."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        pivot = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = field.inv(m[r][col])
        m[r] = [field.mul(inv, v) for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                c = m[i][col]
                m[i] = [field.sub(a, field.mul(c, b)) for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def is_square(field: GF, a: int) -> bool:
    """Euler's criterion; every element is a square in characteristic 2."""
    if a == 0 or field.p == 2:
        return True
    return field.pow(a, (field.q - 1) // 2) == 1


def encode(code: Code, f: Poly) -> tuple[int, ...]:
    """The codeword of a message polynomial of degree < k: its word, with
    the coefficient of x^(k-1) as the projective extension coordinate."""
    if f.degree > code.k - 1:
        raise ValueError(f"deg f = {f.degree} exceeds k-1 = {code.k - 1}")
    if code.kind == "affine":
        return code.word(f)
    return code.word(f, last=f.coeffs[-1] if f.degree == code.k - 1 else 0)


def cubic_residues(qpoly: Poly) -> Counter:
    """Multiplicity of each residue p % q(x) among the monic irreducible
    cubics p, by Poly division."""
    return Counter(p % qpoly for p in monic_irreducibles(qpoly.field, 3))


def n3_bruteforce(qpoly: Poly, alpha) -> int:
    """Number of pairs (p, l): p monic irreducible cubic, l nonzero scalar,
    with p = l*alpha modulo q(x); by full enumeration of cubics, each reduced
    in GF(q)[x]/(q(x)) by Poly division."""
    a = Poly(qpoly.field, alpha)
    residues = cubic_residues(qpoly)
    return sum(residues[a.scale(l)] for l in range(1, qpoly.field.q))


def r3(qpoly: Poly, alpha) -> int:
    """Character correction term: 0 unless q = 2 mod 3, else 2 when alpha is
    a cube in (GF(q)[x]/(q(x)))*, that is alpha^((q^2-1)/3) = 1 modulo
    q(x), and -1 otherwise."""
    q = qpoly.field.q
    if q % 3 != 2:
        return 0
    a = Poly(qpoly.field, alpha)
    return 2 if pow_mod(a, (q * q - 1) // 3, qpoly) == Poly.one(qpoly.field) else -1


def n3_formula(qpoly: Poly, alpha) -> int:
    """(q(q-1) - r3(alpha)) / 3; exact."""
    q = qpoly.field.q
    t = q * (q - 1) - r3(qpoly, alpha)
    if t % 3:
        raise AssertionError("character formula did not produce a multiple of 3")
    return t // 3
