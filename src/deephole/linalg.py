"""Exact Gaussian elimination over GF(q) for small dense matrices.

Matrices are lists of row lists of field-element encodings; both routines
are pure and leave their inputs untouched.  ``rref`` is the one elimination
loop and ``rank`` counts its pivots.  ``Code.minimum_distance("dual")``
finds dependent sets of parity-check columns by ``rank``; the tests check
that route against ``minimum_distance("exhaustive")`` over the codewords.
"""

from __future__ import annotations

from deephole.gf import GF


def rref(field: GF, rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of the rows and its pivot columns, in order:
    row i is 1 at pivots[i] and 0 at every other pivot; rows past the last
    pivot are zero."""
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


def rank(field: GF, rows) -> int:
    return len(rref(field, rows)[1])
