import contextvars
import copy
import itertools
import math
import random
import re
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deephole import codes, families, linalg, numbertheory
from deephole.codes import Code, prs, rs
from deephole.errors import BoundExceededError
from deephole.gf import GF, field_of_order, make_field
from deephole.poly import Poly, monic_irreducibles

G5 = make_field(5)


def test_encode_examples():
    c = prs(G5, 3)
    assert c.encode(Poly.monomial(G5, 2)) == (1, 4, 4, 1, 0, 1)
    assert c.encode(Poly.zero(G5)) == (0,) * 6
    assert c.encode(Poly.x(G5)) == (1, 2, 3, 4, 0, 0)
    with pytest.raises(ValueError):
        c.encode(Poly.monomial(G5, 3))


def test_rational_words_examples():
    # the basis words of 1/p and x/p for p = x^2 + 2 on PRS(6,3), as the
    # power-sum kernel of the families builds them
    c = prs(G5, 3)
    [(_, basis, _)] = families._rational_spans(c, [Poly(G5, (2, 0, 1))], 2)
    assert basis.tolist() == [[[2, 1, 1, 2, 3, 0], [2, 2, 3, 3, 0, 0]]]
    with pytest.raises(ValueError, match="has a root"):
        list(families._rational_spans(c, [Poly(G5, (2, 2, 1))], 2))  # (x-1)(x-2)


def test_generator_matrix_matches_classical_layout():
    c = prs(G5, 4)
    assert c.generator_matrix() == [
        [1, 1, 1, 1, 1, 0],
        [1, 2, 3, 4, 0, 0],
        [1, 4, 4, 1, 0, 0],
        [1, 3, 2, 4, 0, 1],
    ]
    scaled = rs(G5, 1, D=(1, 2, 4), scale=(2, 3, 1))
    assert scaled.generator_matrix() == [[2, 3, 1]]


def test_generator_rank():
    g7 = make_field(7)
    for k in range(2, 6):
        c = prs(g7, k)
        assert len(linalg.rref(g7, c.generator_matrix())[1]) == k


def test_parity_check_matrix():
    c = prs(G5, 3)
    assert c.parity_check_matrix() == [
        [1, 1, 1, 1, 1, 0],
        [1, 2, 3, 4, 0, 0],
        [1, 4, 4, 1, 0, 1],
    ]
    g7 = make_field(7)
    for field in (G5, g7):
        q = field.q
        for k in range(1, q + 1):
            c = prs(field, k)
            assert not c.syndromes(c.generator_matrix()).any()  # H G^T = 0
            assert len(linalg.rref(field, c.parity_check_matrix())[1]) == q + 1 - k


def test_affine_parity_check_annihilates_generator():
    g7 = make_field(7)
    rng = random.Random(5)
    cases = [
        rs(G5, 2),
        rs(G5, 2, D=(1, 2, 3, 4)),
        rs(g7, 3, D=(0, 1, 3, 5, 6), scale=(1, 2, 3, 1, 5)),
    ]
    for c in cases:
        assert not c.syndromes(c.generator_matrix()).any()  # H G^T = 0
        for _ in range(20):
            f = Poly(c.field, [rng.randrange(c.field.q) for _ in range(c.k)])
            assert c.syndrome(c.encode(f)) == (0,) * c.redundancy


def test_syndrome():
    c = prs(G5, 3)
    w = (2, 1, 1, 2, 3, 0)
    assert c.syndrome(w) == (4, 0, 2)
    cw = c.encode(Poly(G5, (1, 2, 3)))
    assert c.syndrome(cw) == (0, 0, 0)
    shifted = tuple(G5.add(a, b) for a, b in zip(w, cw))
    assert c.syndrome(shifted) == c.syndrome(w)
    with pytest.raises(ValueError):
        c.syndrome((0, 0))


def test_error_distance_examples():
    c = prs(G5, 3)
    w = (2, 1, 1, 2, 3, 0)
    assert c.error_distance(w, method="exhaustive") == 2
    assert c.error_distance(w, method="syndrome_span") == 2
    assert c.error_distance(c.encode(Poly(G5, (2, 1, 4))), method="exhaustive") == 0
    with pytest.raises(ValueError):
        c.error_distance(w, method="nonsense")
    for bad in ((5, 0, 0, 0, 0, 0), (-1, 0, 0, 0, 0, 0)):  # symbols outside GF(5)
        with pytest.raises(ValueError):
            c.error_distance(bad, method="exhaustive")


def test_degree_k_distance_is_n_minus_k():
    rng = random.Random(1)
    for field in (G5, make_field(7)):
        q = field.q
        for k in range(1, q - 1):
            c = rs(field, k)
            for _ in range(5):
                coeffs = [rng.randrange(q) for _ in range(k)] + [rng.randrange(1, q)]
                f = Poly(field, coeffs)
                assert c.error_distance(c.word(f)) == c.n - k


def test_degree_bounds_inequality():
    # n - deg(f) <= d(u_f, RS(D,k)) <= n - k for k <= deg f <= n-1
    rng = random.Random(2)
    for field in (G5, make_field(7)):
        q = field.q
        for k in range(1, q - 1):
            c = rs(field, k)
            for _ in range(10):
                deg = rng.randrange(k, q)
                coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
                d = c.error_distance(c.word(Poly(field, coeffs)))
                assert c.n - deg <= d <= c.n - k


def test_covering_radius_examples():
    assert prs(G5, 4).covering_radius() == 1
    assert rs(G5, 2).covering_radius() == 3
    assert prs(G5, 3).covering_radius() == 2


def test_even_q_exceptional_covering_radii():
    # for even q and k in {2, q-2} the projective covering radius is q-k+1,
    # one larger than elsewhere; verified exhaustively at q = 4 and q = 8
    g4 = make_field(2, 2)
    assert prs(g4, 2).covering_radius() == 3
    g8 = make_field(2, 3)
    assert prs(g8, 2).covering_radius() == 7
    assert prs(g8, 6).covering_radius() == 3
    # while the interior even-q dimensions stay at q-k
    for k in (3, 4, 5):
        assert prs(g8, k).covering_radius() == 8 - k


def test_all_small_codes_are_mds():
    for field in (G5, make_field(7), make_field(2, 3), make_field(3, 2)):
        q = field.q
        for k in range(1, q + 1):
            assert prs(field, k).is_mds()
        for k in range(1, q):
            assert rs(field, k).is_mds()
    assert rs(G5, 2, D=(0, 2, 3, 4)).is_mds()


def test_exhaustive_vs_syndrome_span_on_random_words():
    rng = random.Random(42)
    cases = []
    for q in (5, 7):
        field = make_field(q)
        for k in range(max(1, q - 3), q):  # redundancy <= 4 affine
            cases.append(rs(field, k))
        for k in range(max(1, q - 3), q + 1):  # redundancy <= 4 projective
            cases.append(prs(field, k))
    for c in cases:
        for _ in range(200):
            w = tuple(rng.randrange(c.field.q) for _ in range(c.n))
            assert c.error_distance(w, method="exhaustive") == c.error_distance(
                w, method="syndrome_span"
            )


def test_scaling_and_coset_invariance():
    rng = random.Random(9)
    for c in (prs(G5, 3), rs(G5, 2), prs(make_field(7), 5)):
        q = c.field.q
        for _ in range(30):
            w = tuple(rng.randrange(q) for _ in range(c.n))
            d = c.error_distance(w)
            s = rng.randrange(1, q)
            scaled = tuple(c.field.mul(s, e) for e in w)
            assert c.error_distance(scaled) == d
            f = Poly(c.field, [rng.randrange(q) for _ in range(c.k)])
            cw = c.encode(f)
            moved = tuple(c.field.add(a, b) for a, b in zip(w, cw))
            assert c.error_distance(moved) == d


def test_coset_leader_weights_structure():
    c = prs(G5, 3)
    w = c.coset_leader_weights()
    assert int(w.min()) == 1 and int(w.max()) == 2
    assert len(w) == (5**3 - 1) // 4  # one entry per scalar class
    # weight counts: the weight-1 classes are those of the q+1 distinct
    # parity-check columns
    assert (w == 1).sum() == 6


def _scalar_class_ids(field, r) -> list[int]:
    """The class id of every packed syndrome of length r, -1 for zero: the
    representative scaled by scalar arithmetic so that its first nonzero
    coordinate is 1, placed in box j, its first nonzero coordinate, after
    the q^(r-1-i) entries of every box i < j, by its later coordinates."""
    q = field.q
    out = []
    for idx in range(q**r):
        s = [idx // q**i % q for i in range(r)]
        if not any(s):
            out.append(-1)
            continue
        j = next(i for i, x in enumerate(s) if x)
        inv = field.inv(s[j])
        rep = [field.mul(inv, x) for x in s]
        place = sum(rep[t] * q ** (t - j - 1) for t in range(j + 1, r))
        out.append(sum(q ** (r - 1 - i) for i in range(j)) + place)
    return out


def _vectors(q, m) -> np.ndarray:
    """Every vector of GF(q)^m as a (q^m, m) array, row i holding the
    digits of i base q, lowest first."""
    return np.arange(q**m)[:, None] // q ** np.arange(m) % q


def _weights_by_packed_id(code) -> np.ndarray:
    """The weight table read at every packed syndrome through class_ids, 0
    at the zero syndrome."""
    classes = codes.class_ids(code.field, _vectors(code.field.q, code.redundancy))
    return np.where(classes >= 0, code.coset_leader_weights()[classes], 0)


# a code is small enough when all its q^n words scan quickly: q^n * n <= this
SCAN_BUDGET = 5 * 10**7


@st.composite
def small_codes(draw, scan_budget=SCAN_BUDGET):
    """Affine codes on a random evaluation set with a random nonzero scale,
    and projective codes, with q^r <= 1000 syndromes and r >= 1; only codes
    with q^n * n <= scan_budget are drawn."""
    field = field_of_order(draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9))))
    q = field.q
    projective = q ** (q + 1) * (q + 1) <= scan_budget and draw(st.booleans())
    if projective:
        n = q + 1
    else:
        n = draw(st.integers(2, max(m for m in range(2, q + 1) if q**m * m <= scan_budget)))
    r = draw(st.integers(1, max(r for r in range(1, n) if q**r <= 1000)))
    return _draw_code(draw, field, n, n - r, projective)


def _draw_code(draw, field, n, k, projective):
    """PRS(q+1,k), or RS(D,k) on a random n-point D with a random nonzero scale."""
    q = field.q
    if projective:
        return prs(field, k)
    D = draw(st.permutations(range(q)))[:n]
    scale = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    return rs(field, k, D=D, scale=scale)


@st.composite
def few_codeword_codes(draw, max_codewords=3000):
    """Affine and projective codes over GF(2)-GF(9) with q^k <= max_codewords."""
    field = field_of_order(draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9))))
    q = field.q
    projective = draw(st.booleans())
    n = q + 1 if projective else draw(st.integers(2, q))
    k = draw(st.integers(1, max(k for k in range(1, n) if q**k <= max_codewords)))
    return _draw_code(draw, field, n, k, projective)


def _scan_cases(code, data):
    """A SCAN_CHUNK and eight words: codewords with 0 to n random symbols
    overwritten, the first left as it is."""
    q, n = code.field.q, code.n
    # n builds the information-set tables one set per block; values in
    # between give ragged last blocks
    chunk = data.draw(
        st.sampled_from((n, codes.SCAN_CHUNK)) | st.integers(n, q**code.k * n)
    )
    table = code.codewords()
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    words = []
    for j in range(8):
        w = table[rng.randrange(len(table))].tolist()
        for i in rng.sample(range(n), rng.randrange(n + 1) if j else 0):
            w[i] = rng.randrange(q)
        words.append(tuple(w))
    return chunk, table, words


def _assert_scan_matches_table(code, chunk, table, words):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "SCAN_CHUNK", chunk)
        for w in words:
            expected = int((table != np.asarray(w)).sum(axis=1).min())
            assert code.error_distance(w, method="exhaustive") == expected


@given(few_codeword_codes(), st.data())
def test_exhaustive_scan_matches_codeword_table(code, data):
    _assert_scan_matches_table(code, *_scan_cases(code, data))


@given(st.data())
def test_exhaustive_scan_counts_past_255(data):
    # n = 258: uint8 mismatch counts would wrap, and symbols need uint16
    code = prs(field_of_order(257), 1)
    _assert_scan_matches_table(code, *_scan_cases(code, data))


def test_exhaustive_scan_memory_is_bounded():
    code = prs(9, 7)  # its full codeword table is 9^7 x 10 bytes, 48 MB
    word = tuple(range(9)) + (4,)
    code.field.add_table, code.field.mul_table  # built once per field, not per call
    tracemalloc.start()
    try:
        d = code.error_distance(word, method="exhaustive")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d == code.error_distance(word, method="syndrome_span")
    assert peak < 4 * 2**20


@pytest.mark.parametrize(
    "code",
    [
        prs(G5, 3),
        prs(field_of_order(8), 4),
        prs(field_of_order(9), 1),
        rs(field_of_order(7), 3, D=(6, 2, 5, 0, 3), scale=(3, 1, 5, 2, 6)),
        rs(field_of_order(9), 4, D=(8, 0, 3, 1, 7, 5, 2), scale=(2, 7, 1, 4, 8, 3, 6)),
    ],
)
def test_information_set_tables_span_the_code(code):
    n, k = code.n, code.k
    # the same code from its generator rows reversed, so that the
    # elimination needs row exchanges where a column is 0 in the last row
    reversed_rows = copy.copy(code)
    rows = code.generator_matrix()[::-1]
    reversed_rows.generator_matrix = lambda: rows
    tab = code._info_sets
    for mine, theirs in zip(tab, reversed_rows._info_sets):
        assert np.array_equal(mine, theirs)
    assert tab.subsets.tolist() == [list(s) for s in itertools.combinations(range(n), k)]
    powers = code.field.q ** np.arange(n)  # a word packed base q
    codewords = np.sort(code.codewords() @ powers)
    for i, (subset, complement) in enumerate(zip(tab.subsets, tab.complements)):
        assert sorted(subset.tolist() + complement.tolist()) == list(range(n))
        rows = np.zeros((k, n), dtype=np.intp)
        rows[:, subset] = np.eye(k, dtype=np.intp)
        rows[:, complement] = tab.parity[:, i]
        spanned = codes._combinations(code.field, rows, n)
        assert np.array_equal(np.sort(spanned @ powers), codewords)


@pytest.mark.parametrize("chunk", [1, codes.SCAN_CHUNK])
def test_dependent_generator_columns_raise(chunk, monkeypatch):
    monkeypatch.setattr(codes, "SCAN_CHUNK", chunk)
    code = prs(G5, 3)  # a fresh Code, with no tables yet
    rows = code.generator_matrix()
    for row in rows:
        row[4] = row[1]  # so every k-set holding columns 1 and 4 is dependent
    monkeypatch.setattr(code, "generator_matrix", lambda: rows)
    for _ in range(2):  # a failed build is not kept
        with pytest.raises(AssertionError):
            code.error_distance((0,) * code.n, method="exhaustive")
        assert not code.is_mds()


def _raise(*args, **kwargs):
    raise RuntimeError("the other oracle was consulted")


def test_exhaustive_oracle_reads_only_the_generator_matrix(monkeypatch):
    for name in ("_h", "syndromes", "coset_leader_weights"):
        monkeypatch.setattr(Code, name, property(_raise) if name == "_h" else _raise)
    rng = random.Random(3)
    scaled = rs(make_field(7), 4, D=(1, 2, 4, 0, 6), scale=(1, 3, 2, 6, 5))
    for code in (prs(G5, 3), scaled):  # fresh Codes
        table = code.codewords()
        for _ in range(20):
            w = tuple(rng.randrange(code.field.q) for _ in range(code.n))
            expected = int((table != np.asarray(w)).sum(axis=1).min())
            assert code.error_distance(w, method="exhaustive") == expected
        with pytest.raises(RuntimeError):
            code.error_distance(w, method="syndrome_span")


def test_syndrome_span_oracle_never_reads_the_generator_matrix(monkeypatch):
    monkeypatch.setattr(Code, "generator_matrix", _raise)
    code = prs(G5, 3)  # a fresh Code
    assert code.error_distance((0, 0, 0, 1, 2, 3), method="syndrome_span") == 2
    assert code.covering_radius() == 2
    with pytest.raises(RuntimeError):
        code.error_distance((0,) * code.n, method="exhaustive")


@pytest.mark.parametrize("q, k", [(9, 7), (11, 6)])
def test_scan_tables_kept_per_code_are_bounded(q, k):
    field = field_of_order(q)
    field.add_table, field.mul_table  # built once per field, not per code
    code = prs(field, k)  # a fresh Code, with no tables yet
    word = tuple(range(q)) + (4,)
    tracemalloc.start()
    try:
        code.error_distance(word, method="exhaustive")
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "_info_sets" in vars(code)
    assert kept <= codes.SCAN_CHUNK + 2**14


@given(small_codes())
def test_weight_table_matches_exhaustive_distances(code):
    # one word per packed syndrome: the q^r words supported on the first r
    # coordinates, whose r columns of H are independent, sorted by syndrome
    q, r = code.field.q, code.redundancy
    syns = _vectors(q, r)
    words = np.zeros((q**r, code.n), dtype=np.intp)
    words[:, :r] = syns
    words = words[np.argsort(code.syndromes(words) @ q ** np.arange(r))]
    weights = _weights_by_packed_id(code)
    for s, word in enumerate(words.tolist()):
        assert code.syndrome(word) == tuple(syns[s].tolist())
        assert weights[s] == code.error_distance(word, method="exhaustive")


@pytest.mark.parametrize(
    "q, k", [(11, 9), (11, 8), (13, 11), (13, 10)], ids=lambda v: str(v)
)
def test_every_class_of_the_sweep_codes_matches_the_exhaustive_oracle(q, k):
    # the r = 3 and 4 codes of the family sweeps, which the hypothesis
    # strategies (q <= 9) never draw: one word per class, supported on the
    # first r coordinates, whose r columns of H are independent
    field = field_of_order(q)
    code = prs(field, k)
    r = code.redundancy
    words = np.zeros((q**r, code.n), dtype=np.intp)
    words[:, :r] = _vectors(q, r)
    word_of = np.empty(q**r, dtype=np.intp)
    word_of[code.syndromes(words) @ q ** np.arange(r)] = np.arange(q**r)
    weights = code.coset_leader_weights()
    reps = codes.class_representatives(q, r, np.arange(len(weights)))
    for c, word in enumerate(words[word_of[reps @ q ** np.arange(r)]].tolist()):
        assert weights[c] == code.error_distance(word, method="exhaustive"), c


@st.composite
def column_sets(draw):
    """(field, columns): 0 to r+3 random columns of length r, q^r <= 1000,
    each coordinate zero about half the time, so that every coordinate is
    some column's first nonzero one and zero columns occur."""
    field = field_of_order(draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9))))
    q = field.q
    r = draw(st.integers(1, max(r for r in range(1, 11) if q**r <= 1000)))
    symbol = st.just(0) | st.integers(1, q - 1)
    column = st.lists(symbol, min_size=r, max_size=r)
    columns = draw(st.lists(column, max_size=r + 3))
    return field, np.array(columns, dtype=np.intp).reshape(-1, r)


def _bfs_leader_weights(field, columns, r) -> list[int]:
    """Breadth-first search from the zero syndrome, one step adding a nonzero
    multiple of a column, in scalar field arithmetic over syndrome tuples;
    r + 1 for a syndrome no column set reaches."""
    q = field.q
    steps = {tuple(field.mul(c, x) for x in col) for col in columns.tolist() for c in range(1, q)}
    steps.discard((0,) * r)
    dist = {(0,) * r: 0}
    frontier = [(0,) * r]
    while frontier:
        reached = []
        for s in frontier:
            for step in steps:
                t = tuple(field.add(a, b) for a, b in zip(s, step))
                if t not in dist:
                    dist[t] = dist[s] + 1
                    reached.append(t)
        frontier = reached
    # packed ids put coordinate 0 in the least significant digit
    return [
        dist.get(tuple(idx // q**i % q for i in range(r)), r + 1) for idx in range(q**r)
    ]


@given(column_sets())
def test_leader_weight_kernel_matches_scalar_bfs(case):
    field, columns = case
    r = columns.shape[1]
    compact = codes._leader_weights(field, columns)
    assert compact.dtype == np.int8
    assert len(compact) == (field.q**r - 1) // (field.q - 1)
    table = [int(compact[c]) if c >= 0 else 0 for c in _scalar_class_ids(field, r)]
    assert table == _bfs_leader_weights(field, columns, r)


@given(column_sets())
def test_hyperplane_holds_the_pivot_columns_of_rref(case):
    # the reference: the pivots among the first m columns of the reduced
    # [C' | I], C' the first r-1 coordinates of the m columns, are the
    # greedy basis B, and l = E_B^T times the last coordinates of B
    field, columns = case
    m, r = columns.shape
    if r < 2:
        return
    d = r - 1
    rows = [list(h) + [int(i == t) for i in range(d)] for t, h in enumerate(columns[:, :d].T.tolist())]
    reduced, pivots = linalg.rref(field, rows)
    basis = [b for b in pivots if b < m]
    reference = [0] * d
    for row, b in zip(reduced, pivots):
        if b < m:
            reference = [field.add(x, field.mul(int(columns[b, d]), e)) for x, e in zip(reference, row[m:])]
    ell, inside, outside = codes._hyperplane(field, columns)

    def on_w(col, ell):
        dot = 0
        for e, x in zip(ell, col[:d]):
            dot = field.add(dot, field.mul(e, x))
        return dot == col[d]

    cols = columns.tolist()
    assert set(basis) <= set(inside)
    assert all(on_w(cols[b], ell) for b in basis)
    assert inside == [j for j, col in enumerate(cols) if on_w(col, reference)]
    assert sorted(inside + outside) == list(range(m))
    if len(basis) == d:  # B spans GF(q)^(r-1), so l is unique
        assert ell == reference


# (q, columns, the indices of the columns in the seed's hyperplane W)
CHART_CASES = {
    "r=1": (5, [[0], [3], [3]], None),
    "r=1, only a zero column": (5, [[0]], None),
    # the third column is twice the first
    "r=2": (7, [[1, 2], [0, 3], [2, 4], [0, 0]], [0, 2, 3]),
    "e_(r-1), a zero column and a repeated column": (
        3,
        [[0, 0, 0, 1], [0, 0, 0, 0], [1, 2, 0, 1], [1, 2, 0, 1], [0, 1, 1, 2], [1, 1, 1, 0]],
        [1, 2, 3, 4, 5],
    ),
    # the first three coordinates of the columns span a plane
    "rank-deficient": (
        5,
        [[1, 0, 0, 1], [2, 0, 0, 2], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 1, 1]],
        [0, 1, 4],
    ),
    # the third column is the sum of the first two, which are the greedy basis
    "a sum of basis columns in W": (
        5,
        [[1, 0, 1], [0, 1, 2], [1, 1, 3], [1, 1, 0], [2, 3, 0]],
        [0, 1, 2],
    ),
}


@pytest.mark.parametrize("q, columns, inside", CHART_CASES.values(), ids=CHART_CASES)
def test_seeded_table_matches_scalar_bfs_at_the_chart_edges(q, columns, inside):
    field = field_of_order(q)
    columns = np.array(columns, dtype=np.intp)
    r = columns.shape[1]
    if inside is not None:
        assert codes._hyperplane(field, columns)[1] == inside
    compact = codes._leader_weights(field, columns)
    table = [int(compact[c]) if c >= 0 else 0 for c in _scalar_class_ids(field, r)]
    assert table == _bfs_leader_weights(field, columns, r)


@pytest.mark.parametrize(
    "code",
    [
        prs(field_of_order(4), 1),
        prs(G5, 2),
        prs(field_of_order(8), 5),
        prs(field_of_order(9), 6),
        rs(field_of_order(7), 2, D=(6, 2, 5, 0, 3), scale=(3, 1, 5, 2, 6)),
    ],
    ids=repr,
)
def test_one_compact_entry_is_the_distance_of_every_syndrome(code):
    # one word per packed syndrome, supported on the first r coordinates,
    # whose r columns of H are independent
    q, r = code.field.q, code.redundancy
    words = np.zeros((q**r, code.n), dtype=np.intp)
    words[:, :r] = _vectors(q, r)
    ids = code.syndromes(words) @ q ** np.arange(r)
    assert np.array_equal(np.sort(ids), np.arange(q**r))
    distances = [code.error_distance(w, "syndrome_span") for w in words.tolist()]
    assert len(code.coset_leader_weights()) == (q**r - 1) // (q - 1)
    assert distances == _weights_by_packed_id(code)[ids].tolist()
    assert code.covering_radius() == int(code.coset_leader_weights().max())


def test_covering_radius_keeps_the_table_compact():
    field = field_of_order(13)
    field.add_table, field.mul_table, field.inv_table  # built once per field
    code = prs(field, 8)  # a fresh Code: 13^6 syndromes
    tracemalloc.start()
    try:
        rho = code.covering_radius()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho == 13 - 8
    # the one table a Code keeps: an int8 entry per class
    assert code._weights.nbytes == (13**6 - 1) // 12
    assert peak < 13**6 / 4


# the six covering-radius codes of the benchmark, and a generalized RS code
# on a proper evaluation set with a non-unit scale
CLOSED_FORM_CODES = [
    ("rs", 9, 3),
    ("rs", 8, 1),
    ("prs", 13, 8),
    ("prs", 11, 6),
    ("prs", 8, 2),
    ("rs", 7, 1),
]


@pytest.mark.parametrize(
    "code",
    [rs(q, k) if kind == "rs" else prs(q, k) for kind, q, k in CLOSED_FORM_CODES]
    + [rs(field_of_order(9), 3, D=(8, 0, 3, 1, 7, 5, 2), scale=(2, 7, 1, 4, 8, 3, 6))],
    ids=repr,
)
def test_weight_table_counts_match_mds_closed_form(code):
    # in an MDS code every vector of weight w <= r/2 is the only leader of its
    # coset, so C(n, w)*(q-1)^w syndromes, (q-1) per class, have weight w
    fld = code.field
    q, n, r = fld.q, code.n, code.redundancy
    assert code.is_mds()
    weights = code.coset_leader_weights()
    counts = np.bincount(weights, minlength=r + 1)
    assert len(counts) == r + 1 and counts.sum() == (q**r - 1) // (q - 1)
    assert counts[0] == 0
    for w in range(1, r // 2 + 1):
        assert (q - 1) * counts[w] == comb(n, w) * (q - 1) ** w
    # scaling a representative by a generator of GF(q)* keeps its class
    sample = np.random.default_rng(q).integers(0, len(weights), size=4096)
    scaled = fld.mul_table[fld.generator(), codes.class_representatives(q, r, sample)]
    assert np.array_equal(codes.class_ids(fld, scaled), sample)


def _every_column_passed(field, columns) -> np.ndarray:
    """The weight table of the module's pass step run over every column,
    unseeded: the reference of the seeded build."""
    r = columns.shape[1]
    offsets = codes._box_offsets(field.q, r)
    compact = np.full(offsets[-1], r + 1, dtype=np.int8)
    for h in columns:
        codes._column_pass(field, compact, h, offsets)
    return compact


@pytest.mark.parametrize(
    "kind, q, k", CLOSED_FORM_CODES + [("prs", 11, 8), ("prs", 13, 10)]
)
def test_only_the_columns_off_the_hyperplane_pass_over_the_full_table(
    kind, q, k, monkeypatch
):
    field = field_of_order(q)
    code = rs(field, k) if kind == "rs" else prs(field, k)
    n, r, columns = code.n, code.redundancy, code._h.T
    reference = _every_column_passed(field, columns)
    sizes = []
    pass_step = codes._column_pass

    def counted(field, compact, h, offsets):
        # one size per column passed: the step takes an (m, r) array of them
        sizes.extend([len(compact)] * len(np.reshape(h, (-1, len(offsets) - 1))))
        pass_step(field, compact, h, offsets)

    monkeypatch.setattr(codes, "_column_pass", counted)
    table = codes._leader_weights(field, columns)
    # an MDS code's hyperplane holds r - 1 columns
    assert sizes.count((q**r - 1) // (q - 1)) == n - r + 1
    assert table.dtype == np.int8
    assert table.tobytes() == reference.tobytes()


@pytest.mark.parametrize("split", ["columns", "lines"])
@pytest.mark.parametrize("q, k", [(7, 5), (7, 4), (7, 3)], ids=["r=3", "r=4", "r=5"])
def test_weight_table_blocks_give_the_one_block_table(q, k, split, monkeypatch):
    # a block of two columns' lines splits the column groups; a quarter of
    # one column's lines splits the lines of every column; and no block of
    # positions holds more than _block() entries
    field = field_of_order(q)
    one_block = prs(field, k).coset_leader_weights()
    lines = (q ** (q - k) - 1) // (q - 1)  # per column, r = q + 1 - k
    block = 2 * q * lines if split == "columns" else q * lines // 4
    monkeypatch.setattr(codes, "SCAN_CHUNK", 16 * block)
    assert codes._block() == block
    shapes = []
    positions = codes._line_positions

    def recording(*args):
        for at in positions(*args):
            shapes.append(at.shape)
            yield at

    monkeypatch.setattr(codes, "_line_positions", recording)
    table = prs(field, k).coset_leader_weights()
    assert table.tobytes() == one_block.tobytes()
    assert max(math.prod(shape) for shape in shapes) <= block
    full = [shape for shape in shapes if shape[1:] == (q, lines)]
    if split == "columns":
        assert (2, q, lines) in full and len(full) > 1
    else:
        assert not full and sum(shape[2] < lines for shape in shapes) > 4


def test_weight_table_memory_is_bounded():
    field = field_of_order(13)
    field.add_table, field.mul_table, field.inv_table  # built once per field
    code = prs(field, 8)  # a fresh Code: 13^6 syndromes
    tracemalloc.start()
    try:
        code.coset_leader_weights()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the int8 table holds (13^6 - 1)/12 bytes, and no table over all 13^6
    # syndromes is built beside it
    assert kept < 13**6 / 8
    assert peak < 13**6 / 4


def _class_span_by_scalars(code, words):
    """The class ids of the combinations of the words whose first nonzero
    coefficient is 1, in box order, each combination built with scalar field
    arithmetic; None when one is a codeword, so that the syndromes of the
    words are dependent."""
    f, q, m = code.field, code.field.q, len(words)
    ids = []
    for rep in codes.class_representatives(q, m, np.arange((q**m - 1) // (q - 1))).tolist():
        combo = [0] * code.n
        for c, w in zip(rep, words):
            combo = [f.add(x, f.mul(c, y)) for x, y in zip(combo, w)]
        ids.append(int(codes.class_ids(f, code.syndrome(combo))))
    return None if -1 in ids else ids


@given(small_codes(scan_budget=float("inf")), st.data())
def test_class_span_is_syndrome_linearity(code, data):
    # the syndromes themselves are checked against a scalar H*w in
    # test_syndromes_match_scalar_h_times_w; with four words, boxes 2 and 3
    # are strided views of the combinations of the later syndromes
    q = code.field.q
    words = data.draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=code.n, max_size=code.n),
            min_size=1,
            max_size=4,
        )
    )
    expected = _class_span_by_scalars(code, words)
    syndromes = [code.syndrome(w) for w in words]
    if expected is None:
        with pytest.raises(ValueError, match="linearly dependent"):
            code.class_span(syndromes)
    else:
        assert code.class_span(syndromes).tolist() == expected


@st.composite
def syndrome_cases(draw):
    """An affine or projective code over GF(2)-GF(16) and a (rows, n), (n,)
    or (a, b, n) array of words of it."""
    field = field_of_order(draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 11, 13, 16))))
    q = field.q
    projective = draw(st.booleans())
    n = q + 1 if projective else draw(st.integers(2, q))
    code = _draw_code(draw, field, n, draw(st.integers(1, n - 1)), projective)
    shape = draw(st.sampled_from(((), (1,), (5,), (2, 3))))
    size = int(np.prod(shape, dtype=int)) * n
    symbols = draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
    return code, np.array(symbols, dtype=np.intp).reshape(shape + (n,))


@given(syndrome_cases())
def test_syndromes_match_scalar_h_times_w(case):
    code, words = case
    f, h = code.field, code.parity_check_matrix()
    out = code.syndromes(words)
    assert out.shape == words.shape[:-1] + (code.redundancy,)
    for idx in np.ndindex(words.shape[:-1]):
        w = words[idx].tolist()
        expected = []
        for row in h:
            acc = 0
            for hj, wj in zip(row, w):
                acc = f.add(acc, f.mul(hj, wj))
            expected.append(acc)
        assert out[idx].tolist() == expected
    if words.ndim == 1:
        assert code.syndrome(tuple(words.tolist())) == tuple(out.tolist())


@pytest.mark.parametrize(
    "code, word",
    [
        (prs(5, 3), (7, 1, 2, 3, 4, -1)),
        (prs(5, 3), (0, 1, 2, 3, 4, -1)),
        (prs(5, 3), (0, 1, 2, 3, 5, 4)),
        (prs(9, 6), (10, 0, 0, 0, 0, 0, 0, 0, 0, 0)),
        (prs(9, 6), (0, 0, 0, 0, 0, 0, 0, 0, 0, -3)),
        (rs(8, 5), (0, 1, 2, 3, 4, 5, 6, 8)),
    ],
)
def test_both_oracles_reject_symbols_outside_the_field(code, word):
    messages = set()
    for method in ("syndrome_span", "exhaustive"):
        with pytest.raises(ValueError) as err:
            code.error_distance(word, method=method)
        messages.add(str(err.value))
    with pytest.raises(ValueError) as err:
        code.syndromes(np.array([word, (0,) * code.n]))
    messages.add(str(err.value))
    assert messages == {f"word has a symbol outside {code.field!r}"}


@given(small_codes(scan_budget=float("inf")), st.data())
def test_class_span_over_a_batch_axis_matches_one_span_each(code, data):
    q, r = code.field.q, code.redundancy
    m = data.draw(st.integers(1, 2))
    shape = data.draw(st.sampled_from(((1,), (3,), (2, 2))))
    size = int(np.prod(shape, dtype=int)) * m * r
    symbols = data.draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
    syns = np.array(symbols, dtype=np.intp).reshape(shape + (m, r))

    def one_span(syn):
        try:
            return code.class_span(syn.tolist()).tolist()
        except ValueError:
            return None

    each = {idx: one_span(syns[idx]) for idx in np.ndindex(shape)}
    if None in each.values():
        with pytest.raises(ValueError, match="linearly dependent"):
            code.class_span(syns)
        return
    ids = code.class_span(syns)
    assert ids.shape == shape + ((q**m - 1) // (q - 1),)
    for idx, expected in each.items():
        assert ids[idx].tolist() == expected


def _column_triples(q):
    """PRS(q+1, q-3), r = 4, and every triple of its parity-check columns as
    a (triples, 3, 4) array: C(q+1, 3) spans of q^2 + q + 1 classes, fewer
    than q^4 each and at least q^4 in all for q >= 7."""
    code = prs(field_of_order(q), q - 3)
    return code, np.array(list(itertools.combinations(code.h_columns(), 3)))


@pytest.mark.parametrize("q", [7, 8, 9])
def test_class_span_lookup_gives_the_ids_of_class_ids(q, monkeypatch):
    code, syns = _column_triples(q)
    calls = []
    real = codes.class_ids
    monkeypatch.setattr(
        codes, "class_ids", lambda field, v: calls.append(np.shape(v)) or real(field, v)
    )
    batch = code.class_span(syns)
    # the batch packs its combinations and reads them from a table of the
    # ids of all q^4 vectors
    assert calls == [(q**4, 4)]
    calls.clear()
    each = [code.class_span(s) for s in syns]
    # one set at a time, each span takes class_ids of its combinations
    assert calls == [(q * q + q + 1, 4)] * len(syns)
    assert batch.tolist() == [ids.tolist() for ids in each]


def test_class_span_keeps_no_table():
    code, syns = _column_triples(9)
    before = (set(vars(code)), set(vars(codes)))
    code.class_span(syns)  # the field's tables are built once
    tracemalloc.start()
    try:
        ids = code.class_span(syns)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (set(vars(code)), set(vars(codes))) == before
    # the int64 table of the 9^4 vectors' ids was built, and only the ids
    # returned are kept
    assert peak > 9**4 * 8
    assert kept < ids.nbytes + 2**12


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_class_ids_match_scalar_normalisation(m, q):
    field = field_of_order(q)
    vectors = _vectors(q, m)
    expected = _scalar_class_ids(field, m)
    assert codes.class_ids(field, vectors).tolist() == expected
    assert codes.class_ids(field, vectors.reshape(q, -1, m)).ravel().tolist() == expected
    # every class id names its representative, the vector whose first
    # nonzero coordinate is 1
    ids = np.arange((q**m - 1) // (q - 1))
    reps = codes.class_representatives(q, m, ids)
    assert reps.shape == (len(ids), m)
    assert codes.class_ids(field, reps).tolist() == ids.tolist()
    for v, c in zip(vectors.tolist()[1:], expected[1:]):
        if next(x for x in v if x) == 1:
            assert reps[c].tolist() == v
    assert codes.class_representatives(q, m, ids.reshape(-1, 1)).shape == (len(ids), 1, m)


def test_class_ids_reads_the_product_table_once(monkeypatch):
    # the benchmark wraps GF.mul_table as a span, so a read per coordinate
    # would add m - 1 spans per call
    reads = []
    table = GF.mul_table

    def counting(self):
        reads.append(self)
        return table.fget(self)

    monkeypatch.setattr(GF, "mul_table", property(counting))
    field = make_field(3, 2)
    vectors = _vectors(field.q, 4)
    assert codes.class_ids(field, vectors).tolist() == _scalar_class_ids(field, 4)
    assert len(reads) == 1


def test_class_mask_is_the_union_of_id_arrays():
    code = prs(G5, 3)
    mask = code.class_mask([np.array([0, 4]), np.array([4, 30]), np.array([], dtype=int)])
    assert mask.shape == (31,) and np.flatnonzero(mask).tolist() == [0, 4, 30]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: rs(G5, 2, scale=(6, 1, 1, 1, 1)), "scale vector"),
        (lambda: rs(5, 2, scale=(-1, 1, 1, 1, 1)), "scale vector"),
        (lambda: rs(make_field(3, 2), 2, scale=(10,) + (1,) * 8), "scale vector"),
        (lambda: numbertheory.subset_sum_row(G5, (0, 1, 7), 2), "outside GF(5)"),
        (lambda: numbertheory.subset_sum_row(G5, (-1, 1), 1), "outside GF(5)"),
        (lambda: numbertheory.zero_sum_violations(G5, (7, 3), 2), "outside GF(5)"),
        (lambda: numbertheory.zero_sum_violations(G5, (-1, 1), 2), "outside GF(5)"),
    ],
)
def test_library_inputs_outside_the_field_raise(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_bounds():
    big = prs(make_field(13), 2)
    word = (0,) * big.n
    tight = contextvars.copy_context()
    tight.run(codes.LIMITS.set, codes.Limits(codewords=10, syndromes=1000))
    for build in (
        big.coset_leader_weights,
        big.codewords,
        lambda: big.error_distance(word, method="exhaustive"),
        lambda: big.error_distance(word, method="syndrome_span"),
    ):
        with pytest.raises(BoundExceededError):
            tight.run(build)
    assert codes.LIMITS.get() == codes.Limits()


def test_auto_distance_scans_when_the_weight_table_is_over_the_limit():
    code = prs(make_field(5), 2)  # 5^4 = 625 syndromes, 25 codewords
    word = (0, 0, 0, 1, 2, 3)  # a deep hole, at distance 3
    no_table = contextvars.copy_context()
    no_table.run(codes.LIMITS.set, codes.Limits(syndromes=100))
    assert no_table.run(code.error_distance, word) == 3
    assert code._weights is None
    assert code.error_distance(word) == 3
    assert code._weights is not None


def test_exhaustive_oracle_is_bounded_by_its_tables():
    # PRS(14,2) over GF(13): 13^2 codewords, but C(14,2)*2*12 = 2184 entries
    small = prs(make_field(13), 2)
    word = (0,) * small.n
    tight = contextvars.copy_context()
    tight.run(codes.LIMITS.set, codes.Limits(codewords=2000))
    assert len(tight.run(small.codewords)) == 13**2
    for check in (lambda: small.error_distance(word, "exhaustive"), small.is_mds):
        with pytest.raises(BoundExceededError, match="entries = 2184 exceeds bound 2000"):
            tight.run(check)
    assert small.is_mds()
    # PRS(12,8) over GF(11): 11^8 codewords, over the bound, but 15840 entries
    big = prs(make_field(11), 8)
    with pytest.raises(BoundExceededError):
        big.codewords()
    p = monic_irreducibles(big.field, 3)[0]
    deep = [big.field.div(1, p(x)) for x in big.D] + [0]  # the word of 1/p
    assert big.error_distance(deep, method="exhaustive") == 3
    # an auto distance over the weight table's limit falls back to the oracle
    no_table = contextvars.copy_context()
    no_table.run(codes.LIMITS.set, codes.Limits(syndromes=100))
    assert no_table.run(big.error_distance, deep) == 3


def test_code_validation():
    with pytest.raises(ValueError):
        Code("affine", G5, 5)
    with pytest.raises(ValueError):
        Code("affine", G5, 2, D=(1, 1, 2))
    with pytest.raises(ValueError):
        Code("affine", G5, 2, D=(1, 2, 3), scale=(1, 0, 2))
    with pytest.raises(ValueError):
        Code("projective", G5, 2, D=(1, 2, 3))
    with pytest.raises(ValueError):
        Code("nonsense", G5, 2)
    with pytest.raises(ValueError):
        prs(G5, 3).word(Poly.x(G5), last=7779)  # out-of-range last coordinate


def test_codewords_table_matches_encode():
    c = prs(G5, 2)
    cw = c.codewords()
    assert cw.shape == (25, 6)
    for idx in range(25):
        f = Poly(G5, (idx % 5, idx // 5))
        assert tuple(int(v) for v in cw[idx]) == c.encode(f)
    a = rs(G5, 2, D=(1, 2, 4), scale=(2, 1, 3))
    aw = a.codewords()
    for idx in range(25):
        f = Poly(G5, (idx % 5, idx // 5))
        assert tuple(int(v) for v in aw[idx]) == a.encode(f)
