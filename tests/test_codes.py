import contextvars
import copy
import functools
import itertools
import random
import re
import tracemalloc
import types
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deephole import codes, linalg, numbertheory
from deephole.codes import Code, prs, rs
from deephole.errors import BoundExceededError
from deephole.gf import field_of_order, make_field
from deephole.poly import Poly, RationalFunction, monic_irreducibles

G5 = make_field(5)


def test_encode_examples():
    c = prs(G5, 3)
    assert c.encode(Poly.monomial(G5, 2)) == (1, 4, 4, 1, 0, 1)
    assert c.encode(Poly.zero(G5)) == (0,) * 6
    assert c.encode(Poly.x(G5)) == (1, 2, 3, 4, 0, 0)
    with pytest.raises(ValueError):
        c.encode(Poly.monomial(G5, 3))


def test_rational_words_examples():
    c = prs(G5, 3)
    p = (2, 0, 1)
    assert c.rational_words([(1,), (0, 1)], [p, p]).tolist() == [
        [2, 1, 1, 2, 3, 0],
        [2, 2, 3, 3, 0, 0],
    ]
    f = Poly(G5, (3, 1, 2))
    (asrat,) = c.rational_words([f.coeffs], [(1,)], last=f.coeffs[2])
    assert tuple(asrat.tolist()) == c.encode(f)
    with pytest.raises(ValueError):
        c.rational_words([(1,)], [(4, 1)])


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
        assert linalg.rank(g7, c.generator_matrix()) == k


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
            assert linalg.rank(field, c.parity_check_matrix()) == q + 1 - k


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


def test_pack_unpack_roundtrip():
    c = prs(G5, 2)
    for idx in range(c.field.q**c.redundancy):
        assert c.pack_syndrome(c.unpack_syndrome(idx)) == idx


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


def test_minimum_distance():
    assert prs(G5, 4).minimum_distance() == 3
    # q + 2 - k with q = 5, k = 3
    assert prs(G5, 3).minimum_distance() == 4
    assert prs(G5, 3).minimum_distance(method="exhaustive") == 4
    c = rs(make_field(7), 3)
    assert c.minimum_distance() == 5
    assert c.minimum_distance(method="exhaustive") == 5


@st.composite
def parity_columns(draw):
    """n random columns of length r over GF(2)-GF(5), zero and repeated
    columns included, with r < n and q^n <= 3125."""
    field = make_field(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r + 1, r + 3).filter(lambda n: field.q**n <= 3125))
    column = st.tuples(*[st.integers(0, field.q - 1)] * r)
    return field, r, draw(st.lists(column, min_size=n, max_size=n))


@given(parity_columns())
def test_dual_minimum_distance_matches_kernel_enumeration(case):
    # RS and PRS codes are MDS, so the upward search runs only on these
    field, r, cols = case
    expected = min(
        sum(1 for v in x if v)
        for x in itertools.product(range(field.q), repeat=len(cols))
        if any(x)
        and all(
            functools.reduce(field.add, (field.mul(v, c[t]) for v, c in zip(x, cols)), 0) == 0
            for t in range(r)
        )
    )
    fake = types.SimpleNamespace(field=field, redundancy=r, h_columns=lambda: cols)
    assert Code.minimum_distance(fake) == expected


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
    assert w[0] == 0 and int(w.max()) == 2
    assert len(w) == 5**3
    # weight counts: weight-1 syndromes are the nonzero scalar multiples of
    # the q+1 distinct parity-check columns
    assert (w == 1).sum() == 6 * 4


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
    words = np.zeros((q**r, code.n), dtype=np.intp)
    words[:, :r] = np.arange(q**r)[:, None] // q ** np.arange(r) % q
    words = words[np.argsort(code.syndromes(words) @ q ** np.arange(r))]
    weights = code.coset_leader_weights()
    for s, word in enumerate(words.tolist()):
        assert code.syndrome(word) == code.unpack_syndrome(s)
        assert weights[s] == code.error_distance(word, method="exhaustive")


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
    table = codes._leader_weights(field, columns)
    assert table.dtype == np.int8
    assert table.tolist() == _bfs_leader_weights(field, columns, r)


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
    # coset, so C(n, w)*(q-1)^w syndromes have weight w
    fld = code.field
    q, n, r = fld.q, code.n, code.redundancy
    assert code.is_mds()
    weights = code.coset_leader_weights()
    counts = np.bincount(weights)
    assert len(counts) <= r + 1 and counts.sum() == q**r
    for w in range(r // 2 + 1):
        assert counts[w] == comb(n, w) * (q - 1) ** w
    # w(c*s) = w(s): scaling by a generator of GF(q)* reaches every c != 0
    scaled = codes._packed(q, [fld.mul_table[fld.generator()]] * r)
    assert np.array_equal(weights[scaled], weights)


def test_weight_table_memory_is_bounded():
    field = field_of_order(13)
    field.add_table, field.mul_table, field.inv_table  # built once per field
    code = prs(field, 8)  # a fresh Code: 13^6 syndromes
    tracemalloc.start()
    try:
        code.coset_leader_weights()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the int8 table itself is 13^6 bytes; the DP runs on (13^6 - 1)/12
    # entries before it is expanded
    assert peak <= 1.5 * 13**6


@given(small_codes(scan_budget=float("inf")), st.data())
def test_span_ids_is_syndrome_linearity(code, data):
    # every combination word is built with scalar field arithmetic; the
    # syndromes themselves are checked against a scalar H*w in
    # test_syndromes_match_scalar_h_times_w
    f, q = code.field, code.field.q
    words = data.draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=code.n, max_size=code.n),
            max_size=3,
        )
    )
    ids = code.span_ids([code.syndrome(w) for w in words])
    assert len(ids) == q ** len(words)
    for i, cid in enumerate(ids):
        combo = [0] * code.n
        for j, w in enumerate(words):
            c = i // q**j % q
            combo = [f.add(x, f.mul(c, y)) for x, y in zip(combo, w)]
        assert cid == code.coset_id(combo)


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
def test_span_ids_over_a_batch_axis_match_one_span_each(code, data):
    q, r = code.field.q, code.redundancy
    m = data.draw(st.integers(0, 2))
    shape = data.draw(st.sampled_from(((1,), (3,), (2, 2))))
    size = int(np.prod(shape, dtype=int)) * m * r
    symbols = data.draw(st.lists(st.integers(0, q - 1), min_size=size, max_size=size))
    syns = np.array(symbols, dtype=np.intp).reshape(shape + (m, r))
    ids = code.span_ids(syns)
    assert ids.shape == shape + (q**m,)
    for idx in np.ndindex(shape):
        assert ids[idx].tolist() == code.span_ids(syns[idx].tolist()).tolist()


@pytest.mark.parametrize("q, k", [(4, 1), (5, 3), (8, 5), (9, 6)])
def test_projective_ids_match_normalize_syndrome(q, k):
    code = prs(q, k)
    ids = np.arange(q**code.redundancy)
    expected = [
        code.pack_syndrome(code.normalize_syndrome(code.unpack_syndrome(i)))
        for i in ids.tolist()
    ]
    assert code.projective_ids(ids).tolist() == expected
    assert code.projective_ids(ids.reshape(q, -1)).ravel().tolist() == expected


def test_rational_words_match_pointwise_evaluation():
    field = make_field(3, 2)
    code = prs(field, 6)
    dens = [monic_irreducibles(field, d)[3].coeffs for d in (2, 3)]
    nums = [(0, 1), (4, 3, 5)]
    words = code.rational_words(nums, dens, last=7)
    for word, num, den in zip(words.tolist(), nums, dens):
        rat = RationalFunction(Poly(field, num), Poly(field, den))
        assert word == [rat(x) for x in code.D] + [7]
    assert code.rational_words([], []).shape == (0, code.n)
    with pytest.raises(ValueError):
        code.rational_words([(1,)], [(0, 1)])  # x has the root 0
    with pytest.raises(ValueError):
        code.rational_words([(1,)], [])
    with pytest.raises(ValueError):
        rs(field, 3).rational_words([(1,)], [dens[0]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: rs(G5, 2, scale=(6, 1, 1, 1, 1)), "scale vector"),
        (lambda: rs(5, 2, scale=(-1, 1, 1, 1, 1)), "scale vector"),
        (lambda: rs(make_field(3, 2), 2, scale=(10,) + (1,) * 8), "scale vector"),
        (lambda: prs(5, 3).rational_words([(1,)], [(2, 0, 1)], last=9),
         "extension coordinate 9 out of range"),
        (lambda: prs(5, 3).rational_words([(1,)], [(2, 0, 1)], last=-1),
         "extension coordinate -1 out of range"),
        (lambda: numbertheory.subset_sum_row(G5, (0, 1, 7), 2), "outside GF(5)"),
        (lambda: numbertheory.subset_sum_row(G5, (-1, 1), 1), "outside GF(5)"),
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
