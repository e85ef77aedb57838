import random

import pytest

from deephole import linalg
from deephole.gf import field_of_order


@pytest.mark.parametrize("q", [2, 5, 9])
def test_rref_is_reduced_and_keeps_the_row_space(q):
    field = field_of_order(q)
    rng = random.Random(q)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
        rows = [[rng.randrange(q) for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.3:  # a dependent row
            c = rng.randrange(q)
            rows.append([field.mul(c, v) for v in rows[0]])
        reduced, pivots = linalg.rref(field, rows)
        r = len(pivots)
        assert pivots == sorted(set(pivots))
        for i, row in enumerate(reduced[:r]):
            assert [row[p] for p in pivots] == [int(i == j) for j in range(r)]
            assert not any(row[: pivots[i]])
        assert not any(map(any, reduced[r:]))
        assert linalg.rank(field, rows + reduced) == r


def test_rref_leaves_its_input():
    g5 = field_of_order(5)
    rows = [[0, 2, 4], [1, 1, 1]]
    assert linalg.rref(g5, rows) == ([[1, 0, 4], [0, 1, 2]], [0, 1])
    assert rows == [[0, 2, 4], [1, 1, 1]]
    assert linalg.rref(g5, []) == ([], [])
