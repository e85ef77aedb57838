import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deephole import linalg
from deephole.codes import Code, prs, rs
from deephole.errors import BoundExceededError
from deephole.gf import field_of_order, make_field
from deephole.poly import Poly, RationalFunction

G5 = make_field(5)


def test_encode_examples():
    c = prs(G5, 3)
    assert c.encode(Poly.monomial(G5, 2)) == (1, 4, 4, 1, 0, 1)
    assert c.encode(Poly.zero(G5)) == (0,) * 6
    assert c.encode(Poly.x(G5)) == (1, 2, 3, 4, 0, 0)
    with pytest.raises(ValueError):
        c.encode(Poly.monomial(G5, 3))


def test_word_from_rational():
    c = prs(G5, 3)
    p = Poly(G5, (2, 0, 1))
    assert c.word_from_rational(RationalFunction(Poly.one(G5), p)) == (2, 1, 1, 2, 3, 0)
    assert c.word_from_rational(RationalFunction(Poly.x(G5), p)) == (2, 2, 3, 3, 0, 0)
    f = Poly(G5, (3, 1, 2))
    asrat = c.word_from_rational(
        RationalFunction(f, Poly.one(G5)), last=f.coeffs[2]
    )
    assert asrat == c.encode(f)
    with pytest.raises(ValueError):
        c.word_from_rational(RationalFunction(Poly.one(G5), Poly(G5, (4, 1))))


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
            h, g = c.parity_check_matrix(), c.generator_matrix()
            prod = linalg.matmul(field, h, [list(col) for col in zip(*g)])
            assert all(v == 0 for row in prod for v in row)
            assert linalg.rank(field, h) == q + 1 - k


def test_affine_parity_check_annihilates_generator():
    g7 = make_field(7)
    rng = random.Random(5)
    cases = [
        rs(G5, 2),
        rs(G5, 2, D=(1, 2, 3, 4)),
        rs(g7, 3, D=(0, 1, 3, 5, 6), scale=(1, 2, 3, 1, 5)),
    ]
    for c in cases:
        h = c.parity_check_matrix()
        g = c.generator_matrix()
        prod = linalg.matmul(c.field, h, [list(col) for col in zip(*g)])
        assert all(v == 0 for row in prod for v in row)
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


def test_word_from_syndrome():
    for c in (prs(G5, 3), rs(G5, 2), rs(make_field(7), 4)):
        for idx in range(0, c.field.q**c.redundancy, 7):
            s = c.unpack_syndrome(idx)
            assert c.syndrome(c.word_from_syndrome(s)) == s


def test_error_distance_examples():
    c = prs(G5, 3)
    w = (2, 1, 1, 2, 3, 0)
    assert c.error_distance(w, method="exhaustive") == 2
    assert c.error_distance(w, method="syndrome_span") == 2
    assert c.error_distance(c.encode(Poly(G5, (2, 1, 4))), method="exhaustive") == 0
    with pytest.raises(ValueError):
        c.error_distance(w, method="nonsense")


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
    if projective:
        return prs(field, n - r)
    D = draw(st.permutations(range(q)))[:n]
    scale = draw(st.lists(st.integers(1, q - 1), min_size=n, max_size=n))
    return rs(field, n - r, D=D, scale=scale)


@given(small_codes())
def test_weight_table_matches_exhaustive_distances(code):
    weights = code.coset_leader_weights()
    for s in range(code.field.q**code.redundancy):
        word = code.word_from_syndrome(code.unpack_syndrome(s))
        assert weights[s] == code.error_distance(word, method="exhaustive")


@given(small_codes(scan_budget=float("inf")), st.data())
def test_span_ids_is_syndrome_linearity(code, data):
    # every combination word is built with scalar field arithmetic, so the
    # check does not go through the numpy tables that span_ids reads
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


def test_bounds():
    big = prs(make_field(13), 2)
    with pytest.raises(BoundExceededError):
        big.coset_leader_weights(max_syndromes=1000)
    with pytest.raises(BoundExceededError):
        big.codewords(max_codewords=10)
    with pytest.raises(BoundExceededError):
        big.error_distance((0,) * big.n, method="syndrome_span", max_span_redundancy=6)


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
