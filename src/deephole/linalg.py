"""Exact Gaussian elimination over GF(q) for small dense matrices.

Matrices are lists of row lists of field-element encodings; all routines are
pure and leave their inputs untouched.
"""

from __future__ import annotations

from deephole.gf import GF


def rank(field: GF, rows) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for col in range(ncols):
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
        r += 1
        if r == len(m):
            break
    return r


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
    m = [list(row) + [bv] for row, bv in zip(a, b)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            raise ValueError("singular system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = field.inv(m[col][col])
        m[col] = [field.mul(inv, v) for v in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                c = m[i][col]
                m[i] = [field.sub(x, field.mul(c, y)) for x, y in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]

