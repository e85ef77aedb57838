"""Exact Gaussian elimination over GF(q) for small dense matrices.

Matrices are lists of row lists of field-element encodings; all routines are
pure and leave their inputs untouched.  ``rref`` is the one elimination loop;
``rank`` and ``solve`` read its pivots.
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


def matmul(field: GF, a, b) -> list[list[int]]:
    bt = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                acc = field.add(acc, field.mul(x, y))
            orow.append(acc)
        out.append(orow)
    return out


def solve(field: GF, a, b) -> list[int]:
    """Solution x of the square system a x = b; raises if singular."""
    n = len(a)
    m, pivots = rref(field, [list(row) + [bv] for row, bv in zip(a, b)])
    # a is invertible exactly when its n columns are the n pivots
    if pivots != list(range(n)):
        raise ValueError("singular system")
    return [row[n] for row in m]
