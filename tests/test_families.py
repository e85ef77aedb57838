import dataclasses
import functools
import itertools
import re
import tracemalloc
from math import comb

import numpy as np
import pytest

from deephole import classify, codes, families
from deephole.codes import Code, prs, rs
from deephole.errors import TheoremAssertionError
from deephole.gf import field_of_order, make_field
from deephole.poly import Poly, monic_irreducibles
from deephole.families import (
    TAGS,
    coset_array,
    cubic_families,
    cubic_family,
    cubic_nondeep_by_splitting,
    degree_k_family,
    dh_intersection,
    family_table,
    inverse_monomial_family,
    quadratic_families,
    quadratic_family,
    zero_sum_free_family,
)
from references import encode

G5 = make_field(5)
G7 = make_field(7)
G13 = make_field(13)
G8 = make_field(2, 3)
G9 = make_field(3, 2)

# (construction of many polynomials, its block of one, field, k, degree)
BLOCK_CASES = [
    (quadratic_families, quadratic_family, G7, 5, 2),
    (quadratic_families, quadratic_family, G9, 6, 2),
    (quadratic_families, quadratic_family, G8, 5, 2),
    (cubic_families, cubic_family, G7, 4, 3),
    (cubic_families, cubic_family, G8, 5, 3),
]


def _word(code, num, den):
    """The word (num/den on D, 0) of a PRS code, point by point."""
    return [code.field.div(num(x), den(x)) for x in code.D] + [0]


def _assert_coset_array(ids):
    assert ids.dtype == np.int64 and ids.ndim == 1
    assert not ids.flags.writeable
    assert (np.diff(ids) > 0).all()  # sorted and unique


# one construction of each tag, all on GF(7) but zero_sum_free, whose smallest
# tested example lives on GF(13)
FAMILY_BUILDERS = {
    "degree_k": lambda c, aff: degree_k_family(c),
    "inverse_monomial": lambda c, aff: inverse_monomial_family(aff, 0),
    "zero_sum_free": lambda c, aff: zero_sum_free_family(G13, (0, 1, 2, 3, 4), 2),
    "quadratic": lambda c, aff: quadratic_family(c, monic_irreducibles(G7, 2)[0]),
    "cubic": lambda c, aff: cubic_family(c, monic_irreducibles(G7, 3)[0]),
}


@pytest.mark.parametrize("tag", TAGS)
def test_cosets_are_sorted_unique_read_only_int64_arrays(tag):
    c, aff = prs(G7, 4), rs(G7, 2, D=(1, 2, 3, 4, 5))
    fam = FAMILY_BUILDERS[tag](c, aff)
    assert fam.tag == tag
    _assert_coset_array(fam.cosets)
    with pytest.raises(ValueError):
        fam.cosets[0] = 0
    # == compares the fields that fix the cosets, and never the arrays
    again = FAMILY_BUILDERS[tag](c, aff)
    if tag == "zero_sum_free":  # builds its own code
        again = dataclasses.replace(again, code=fam.code)
    assert fam == again
    assert fam != dataclasses.replace(fam, tag="other")


def test_coset_array_matches_np_unique():
    rng = np.random.default_rng(5)
    for ids in ([], [7], [[3, 3], [1, 9]], rng.integers(0, 50, size=(40, 3))):
        out = coset_array(ids)
        _assert_coset_array(out)
        assert out.tolist() == np.unique(np.asarray(ids, dtype=np.int64)).tolist()


def test_deep_set_and_intersection_are_coset_arrays():
    _assert_coset_array(classify.deep_syndromes(prs(G7, 4)))
    quads = monic_irreducibles(G5, 2)
    _assert_coset_array(dh_intersection(prs(G5, 3), quads[0], quads[1]))


def test_degree_k_family_counts_and_distance():
    c = prs(G5, 3)
    fam = degree_k_family(c)
    assert fam.coset_count == 5 * 4 and len(fam.cosets) == 5
    w = c.word(Poly.monomial(G5, 3), last=0)
    assert w == (1, 3, 2, 4, 0, 0)
    assert c.error_distance(w, method="exhaustive") == 2
    # scaling a member keeps it in the family
    for s in range(2, 5):
        scaled = tuple(G5.mul(s, e) for e in w)
        assert codes.class_ids(G5, c.syndrome(scaled)) in fam.cosets


def test_a_family_off_the_covering_radius_names_its_first_coset(monkeypatch):
    code = prs(G7, 4)  # a fresh Code, so its table can be patched
    cosets = degree_k_family(code).cosets
    rho = code.covering_radius()
    weights = code.coset_leader_weights().copy()
    weights[cosets[1::3]] -= 1
    monkeypatch.setattr(code, "_weights", weights)
    # the message of the scalar check, which walked the cosets in this order
    bad = [c for c in cosets if int(weights[c]) != rho]
    expected = f"degree-k family: {len(bad)} classes not at distance {rho} (e.g. class {bad[0]})"
    with pytest.raises(TheoremAssertionError, match=f"^{re.escape(expected)}$"):
        degree_k_family(code)


def test_degree_k_family_range_validation():
    with pytest.raises(ValueError):
        degree_k_family(prs(G5, 4))  # k = q-1 outside the admissible range
    with pytest.raises(ValueError):
        degree_k_family(rs(G5, 2))
    with pytest.raises(ValueError):
        # even q only admits 3 <= k <= q-3, which is empty at q = 4
        degree_k_family(prs(make_field(2, 2), 2))
    # k = q-2 at even q: rho = q-k+1, and the q-1 cosets of weight rho, one
    # class, are deep
    assert len(classify.deep_syndromes(prs(make_field(2, 2), 2))) == 1


def test_inverse_monomial_family():
    c = rs(G5, 2, D=(1, 2, 3, 4))
    fam = inverse_monomial_family(c, 0)
    assert fam.words[0] == (1, 3, 2, 4)
    assert c.error_distance(fam.words[0], method="exhaustive") == 2
    assert fam.coset_count == 4  # distinct cosets per leading scalar
    assert len(fam.cosets) == 1  # one class
    # (x - delta)^(q-2) agrees with 1/(x - delta) pointwise on D
    for x in c.D:
        assert G5.pow(G5.sub(x, 0), 3) == G5.inv(G5.sub(x, 0))
    with pytest.raises(ValueError):
        inverse_monomial_family(c, 1)  # delta inside D
    with pytest.raises(ValueError):
        inverse_monomial_family(rs(G5, 2), 0)  # D not proper


@pytest.mark.parametrize("delta", [5, 6, -1])
def test_inverse_monomial_delta_outside_the_field_fails(delta):
    # 6 = 1 mod 5 lies in D, and -1 = 4 does not: neither is an element
    with pytest.raises(ValueError, match=f"delta = {delta} is not an element"):
        inverse_monomial_family(rs(G5, 1, D=(1, 2, 3)), delta)


def test_zero_sum_free_family_example():
    fam = zero_sum_free_family(G13, (0, 1, 2, 3, 4), 2)
    code = fam.code
    assert fam.params["k"] == 2
    w = fam.words[0]
    assert code.error_distance(w, method="exhaustive") == 3  # n - k
    # differs from the degree-k cosets and every inverse-monomial coset
    degree_cosets = {code.syndrome(code.word(Poly.monomial(G13, 2, a))) for a in range(1, 13)}
    assert code.syndrome(w) not in degree_cosets
    own = codes.class_ids(G13, code.syndrome(w))
    for delta in range(5, 13):
        assert own not in inverse_monomial_family(code, delta).cosets


def test_zero_sum_free_family_rejects_bad_set():
    with pytest.raises(ValueError):
        zero_sum_free_family(G7, (0, 1, 2, 3, 4), 2)  # {3,4} sums to zero


def test_quadratic_family_counts():
    c = prs(G5, 3)
    p = Poly(G5, (2, 0, 1))
    fam = quadratic_family(c, p)
    assert fam.coset_count == 24
    assert len(fam.cosets) == 6
    # the (a, b) = (1, 0) word
    assert fam.words[0] == (2, 1, 1, 2, 3, 0)
    assert c.error_distance(fam.words[0], method="exhaustive") == 2
    with pytest.raises(ValueError):
        quadratic_family(c, Poly(G5, (2, 1)))  # not a quadratic
    with pytest.raises(ValueError):
        quadratic_family(c, Poly(G5, (2, 0, 2)))  # not monic


def test_quadratic_families_disjoint_below_q_minus_2():
    for field, k in ((G5, 2), (G7, 4), (G7, 3)):
        c = prs(field, k)
        fams = [quadratic_family(c, p) for p in monic_irreducibles(field, 2)]
        for f1, f2 in itertools.combinations(fams, 2):
            assert len(np.intersect1d(f1.cosets, f2.cosets)) == 0


def test_degree_k_disjoint_from_quadratic_below_q_minus_2():
    for field, k in ((G5, 2), (G5, 3), (G7, 4)):
        if k > field.q - 3:
            continue
        c = prs(field, k)
        dk = degree_k_family(c).cosets
        for p in monic_irreducibles(field, 2):
            assert len(np.intersect1d(dk, quadratic_family(c, p).cosets)) == 0


def test_degree_k_contained_in_quadratic_union_at_q_minus_2():
    for field in (G5, G7):
        q = field.q
        c = prs(field, q - 2)
        union = np.concatenate(
            [quadratic_family(c, p).cosets for p in monic_irreducibles(field, 2)]
        )
        assert np.isin(degree_k_family(c).cosets, union).all()


@pytest.mark.parametrize("field", [G5, G7, G9], ids=repr)
def test_dh_intersection_all_pairs(field):
    # dh_intersection raises unless the congruence class, built with the
    # inverse b^(q^2-2) in GF(q)[x]/(p1), is the brute-force intersection
    q = field.q
    c = prs(field, q - 2)
    quads = monic_irreducibles(field, 2)
    assert len(quads) == (q * q - q) // 2
    for p1, p2 in itertools.combinations(quads, 2):
        shared = dh_intersection(c, p1, p2)
        assert len(shared) == 1  # one class of q - 1 cosets
    with pytest.raises(ValueError):
        dh_intersection(c, quads[0], quads[0])
    with pytest.raises(ValueError):
        dh_intersection(prs(field, q - 3), quads[0], quads[1])


def test_fact3_multiway_intersections():
    for field, jmax in ((G5, 4), (G7, 3)):
        q = field.q
        c = prs(field, q - 2)
        fams = [
            quadratic_family(c, p).cosets for p in monic_irreducibles(field, 2)
        ]
        for j in range(2, jmax + 1):
            seen_nonempty = 0
            for combo in itertools.combinations(fams, j):
                inter = functools.reduce(np.intersect1d, combo)
                if len(inter):
                    seen_nonempty += 1
                    assert len(inter) == 1  # one class of q - 1 cosets
            if j == 2:
                assert seen_nonempty == comb(len(fams), 2)  # Fact 1: all pairs meet


def test_fact2_triple_intersection_criterion():
    q = 5
    c = prs(G5, q - 2)
    quads = monic_irreducibles(G5, 2)
    fams = {p: quadratic_family(c, p).cosets for p in quads}
    for p1, p2, p3 in itertools.permutations(quads, 3):
        shared = functools.reduce(np.intersect1d, (fams[p1], fams[p2], fams[p3]))
        cs = [
            cc
            for cc in range(2, q)  # c outside {0, 1}
            if p2.scale(cc) + p3.scale(G5.sub(1, cc)) == p1
        ]
        assert (len(shared) > 0) == bool(cs)
        assert len(cs) <= 1  # the affine coefficient is unique


def test_cubic_family_counts():
    c = prs(G5, 2)
    for p in monic_irreducibles(G5, 3)[:5]:
        fam = cubic_family(c, p)
        assert fam.coset_count == 64 and len(fam.cosets) == 16
    c7 = prs(G7, 4)
    fam7 = cubic_family(c7, monic_irreducibles(G7, 3)[0])
    assert fam7.coset_count == 174 and len(fam7.cosets) == 29
    with pytest.raises(ValueError):
        cubic_family(prs(G5, 3), monic_irreducibles(G5, 3)[0])  # k != q-3


def test_cubic_family_new_cosets():
    for field in (G5, G7):
        q = field.q
        c = prs(field, q - 3)
        known = np.concatenate(
            [degree_k_family(c).cosets]
            + [quadratic_family(c, p).cosets for p in monic_irreducibles(field, 2)]
        )
        for p in monic_irreducibles(field, 3)[:4]:
            fam = cubic_family(c, p)
            assert len(np.setdiff1d(fam.cosets, known)) >= 1  # q - 1 cosets


def test_cubic_splitting_count_cross_check():
    for field in (G5, G7):
        q = field.q
        c = prs(field, q - 3)
        for p in monic_irreducibles(field, 3)[:3]:
            near, far = cubic_nondeep_by_splitting(c, p)
            assert len(near) == (q - 1) * comb(q, 2)
            assert len(far) == (q - 1) * q
            assert not (near & far)
            fam = cubic_family(c, p)
            # splitting triples are exactly the complement of the deep ones
            words = [_word(c, Poly.monomial(field, i), p) for i in range(3)]
            terms = field.mul_table[np.array(sorted(near | far))[:, :, None], c.syndromes(words)]
            combos = field.add_table[field.add_table[terms[:, 0], terms[:, 1]], terms[:, 2]]
            nondeep = codes.class_ids(field, combos)
            assert not np.isin(nondeep, fam.cosets).any()
            assert len(near | far) + fam.coset_count == q**3 - 1


def test_section5_footnote_degree_k_overlap():
    # for a fixed cubic p with x^2-coefficient alpha, the only degree-k cosets
    # reachable from p are those of e*(x^k - alpha x^(k-1))
    for field in (G5, G7):
        q = field.q
        k = q - 3
        c = prs(field, k)
        dk = degree_k_family(c).cosets
        for p in monic_irreducibles(field, 3)[:3]:
            alpha = p.coeffs[2]
            fam = cubic_family(c, p)
            predicted = set()
            for e in range(1, q):
                f = Poly.monomial(field, k, e) + Poly.monomial(
                    field, k - 1, field.neg(field.mul(e, alpha))
                )
                predicted.add(int(codes.class_ids(field, c.syndrome(c.word(f, last=0)))))
            assert np.array_equal(np.intersect1d(fam.cosets, dk), sorted(predicted))


def test_deep_holes_are_words_at_the_covering_radius():
    c = prs(G5, 3)
    assert c.error_distance(encode(c, Poly(G5, (1, 2, 3)))) != c.covering_radius()
    assert c.error_distance((2, 1, 1, 2, 3, 0)) == c.covering_radius()
    # degree k+2 words are not deep holes of the affine code
    aff = rs(G5, 2)
    assert aff.error_distance(aff.word(Poly.monomial(G5, 4))) != aff.covering_radius()


def test_cosets_are_syndromes():
    c = prs(G5, 3)
    w = (2, 1, 1, 2, 3, 0)
    cw = encode(c, Poly(G5, (1, 0, 2)))
    shifted = tuple(G5.add(a, b) for a, b in zip(w, cw))
    assert c.syndrome(w) == c.syndrome(shifted)
    scaled = tuple(G5.mul(3, e) for e in w)
    assert c.syndrome(w) != c.syndrome(scaled)
    assert codes.class_ids(G5, c.syndrome(w)) == codes.class_ids(G5, c.syndrome(scaled))
    # different quadratics on the k = q-3 code give different cosets
    c2 = prs(G5, 2)
    quads = monic_irreducibles(G5, 2)
    w1 = quadratic_family(c2, quads[0]).words[0]
    w2 = quadratic_family(c2, quads[1]).words[0]
    assert c2.syndrome(w1) != c2.syndrome(w2)


def test_deep_holes_of_k_are_not_deep_in_k_minus_1():
    # every word deep for RS(q,k) sits at distance <= q-k from RS(q,k-1),
    # within the k-range of the descent theorem (at q = 8, k = 6 the covering
    # radius hypothesis fails and counterexamples exist)
    cases = []
    for q in (5, 7, 8, 9):
        field = make_field(2, 3) if q == 8 else (make_field(3, 2) if q == 9 else make_field(q))
        lo, hi = (2, q - 2) if q % 2 else (3, q - 3)
        for k in range(lo, hi + 1):
            if q ** (q - k + 1) <= 600_000:
                cases.append((field, q, k))
    assert cases
    for field, q, k in cases:
        ck = rs(field, k)
        ck1 = rs(field, k - 1)
        r = q - k
        # the RS(q,k) parity-check rows are the first r rows for RS(q,k-1),
        # so syndromes project by dropping their last coordinate
        syns = np.arange(1, q ** (r + 1))[:, None] // q ** np.arange(r + 1) % q
        projected = codes.class_ids(field, syns[:, :r])
        deep = np.zeros(len(syns), dtype=bool)
        deep[projected >= 0] = ck.coset_leader_weights()[projected[projected >= 0]] == r
        assert (ck1.coset_leader_weights()[codes.class_ids(field, syns[deep])] <= r).all()


def test_families_on_extension_field():
    # all constructions run on GF(9) arithmetic and emit verified deep holes
    g9 = make_field(3, 2)
    c = prs(g9, 7)
    fam = degree_k_family(c)
    assert fam.coset_count == 9 * 8
    p = monic_irreducibles(g9, 2)[0]
    qf = quadratic_family(c, p)
    assert qf.coset_count == 80
    for w in qf.words:
        assert c.error_distance(w) == c.covering_radius()
    aff = rs(g9, 3, D=tuple(range(8)))
    imf = inverse_monomial_family(aff, 8)
    assert imf.coset_count == 8
    for w in imf.words:
        assert aff.error_distance(w) == aff.n - aff.k


def test_family_table():
    fam = quadratic_family(prs(G5, 3), Poly(G5, (2, 0, 1)))
    [d] = family_table([fam]).rows()
    assert d["tag"] == "quadratic"
    assert d["coset_count"] == 24
    assert d["params"] == {"poly": [2, 0, 1]}
    assert len(d["sample_words"]) == 3


def _same_family(a, b):
    assert (a.tag, a.params, a.words) == (b.tag, b.params, b.words)
    assert np.array_equal(a.cosets, b.cosets)


def _use_blocks_of(monkeypatch, code, d, size):
    """Set codes.SCAN_CHUNK so that the families are built in blocks of size
    polynomials: each one's span holds (q^d - 1)/(q - 1) * r entries."""
    q = code.field.q
    span = (q**d - 1) // (q - 1) * code.redundancy
    monkeypatch.setattr(codes, "SCAN_CHUNK", size * span)


@pytest.mark.parametrize("build_all, build_one, field, k, d", BLOCK_CASES)
def test_families_do_not_depend_on_the_block_split(
    monkeypatch, build_all, build_one, field, k, d
):
    code = prs(field, k)
    polys = monic_irreducibles(field, d)[:7]
    runs = []
    for size, blocks in ((1, 7), (2, 4), (7, 1)):
        _use_blocks_of(monkeypatch, code, d, size)
        assert len(list(families._rational_spans(code, polys, d))) == blocks
        got = build_all(code, iter(polys))
        assert [fam.params["poly"] for fam in got] == [list(p.coeffs) for p in polys]
        runs.append(got)
    for got in runs[:-1]:
        for a, b in zip(got, runs[-1]):
            _same_family(a, b)
    assert build_all(code, []) == []
    _same_family(build_one(code, polys[3]), runs[-1][3])


@pytest.mark.parametrize("size", [1, 2, 6])
@pytest.mark.parametrize("build_all, build_one, field, k, d", BLOCK_CASES)
def test_a_class_lowered_in_the_third_family_names_its_polynomial(
    monkeypatch, size, build_all, build_one, field, k, d
):
    code = Code("projective", field, k)  # uncached, so the patch stays local
    polys = monic_irreducibles(field, d)[:6]
    fams = build_all(code, polys)
    # a deep class of the third family that the first two do not hold, and
    # one of the last family that the first three do not, so that the check
    # must name the first failing polynomial of its block
    fresh = np.setdiff1d(fams[2].cosets, np.union1d(fams[0].cosets, fams[1].cosets))
    last = np.setdiff1d(fams[-1].cosets, np.concatenate([fam.cosets for fam in fams[:3]]))
    weights = code.coset_leader_weights().copy()
    weights[[fresh[0], last[0]]] -= 1
    monkeypatch.setattr(code, "_weights", weights)
    _use_blocks_of(monkeypatch, code, d, size)
    # the class count of the deep numerators, q + 1 for a quadratic
    kind = "quadratic" if d == 2 else "cubic"
    count = len(fams[2].cosets)
    expected = f"{kind} family of {polys[2]!r} has {count - 1} classes, expected {count}"
    with pytest.raises(TheoremAssertionError, match=f"^{re.escape(expected)}$"):
        build_all(code, polys)


@pytest.mark.parametrize("build_all, build_one, field, k, d", BLOCK_CASES)
def test_no_polynomials_build_no_weight_table(build_all, build_one, field, k, d):
    code = Code("projective", field, k)  # uncached, so no table is built yet
    assert build_all(code, []) == []
    assert code._weights is None
    # the code is still checked
    with pytest.raises(ValueError):
        build_all(Code("projective", field, 1), [])


@pytest.mark.parametrize("size", [3, 9])
@pytest.mark.parametrize("build_all, build_one, field, k, d", BLOCK_CASES)
def test_a_reducible_polynomial_is_named(monkeypatch, size, build_all, build_one, field, k, d):
    # a monic polynomial of degree 2 or 3 is reducible exactly when it has a
    # root in GF(q); the basis words x^i/p(x) have a pole there
    code = prs(field, k)
    polys = list(monic_irreducibles(field, d)[:8])
    lin = Poly(field, (field.neg(1), 1))  # x - 1
    reducible = lin * (lin if d == 2 else monic_irreducibles(field, 2)[0])
    named = f"denominator {reducible!r} has a root in {field!r}"
    _use_blocks_of(monkeypatch, code, d, size)  # the fifth of nine is mid-block
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        build_all(code, polys[:4] + [reducible] + polys[4:])
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        build_one(code, reducible)


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11])
@pytest.mark.parametrize("d", [2, 3])
def test_power_sums_are_the_syndromes_of_the_basis_words(monkeypatch, q, d):
    # every monic irreducible p of degree d on PRS(q+1, q+1-(d+1)), where the
    # families of degree d live
    field = field_of_order(q)
    code = prs(field, q - d)
    polys = list(monic_irreducibles(field, d))
    spanned = []
    real = code.class_span
    monkeypatch.setattr(code, "class_span", lambda syns: spanned.append(syns) or real(syns))
    blocks = list(families._rational_spans(code, polys, d))
    monomials = [Poly.monomial(field, i) for i in range(d)]
    words = np.array([[_word(code, x_i, p) for x_i in monomials] for p in polys])
    assert [p for chunk, _, _ in blocks for p in chunk] == polys
    assert np.concatenate([basis for _, basis, _ in blocks]).tolist() == words.tolist()
    assert np.concatenate(spanned).tolist() == code.syndromes(words).tolist()


@pytest.mark.parametrize("field", [G7, G8, G9])
def test_first_deep_numerators_match_a_scan_of_every_numerator(field):
    # class ids over the coefficients (a, b, c) of a + b x + c x^2 in the
    # order of Code.class_span, by scalar arithmetic: box j holds the
    # classes whose first nonzero coefficient is j, packed by the rest
    q = field.q
    offsets = (0, q * q, q * q + q)

    def class_of(t):
        coeffs = (t % q, t // q % q, t // q**2)
        j = next(i for i, x in enumerate(coeffs) if x)
        inv = field.inv(coeffs[j])
        rest = [field.mul(inv, x) for x in coeffs[j + 1 :]]
        return offsets[j] + sum(x * q**i for i, x in enumerate(rest))

    classes = [None] + [class_of(t) for t in range(1, q**3)]
    rng = np.random.default_rng(q)
    deep = rng.random((5, q * q + q + 1)) < 0.5
    # rows 3 and 4 have no deep numerator of degree < 2, whose classes are
    # (1, b, 0) and (0, 1, 0), so their first three lie past index q^2; row
    # 4 only the class of x^2
    linear = [classes[t] for t in range(1, q * q)]
    deep[3:, linear] = False
    deep[4] = False
    deep[4, offsets[2]] = True
    expected = [
        [t for t in range(1, q**3) if row[classes[t]]][:3] for row in deep
    ]
    numerators = np.array([(t % q, t // q % q, t // q**2) for t in range(1, q**3)])
    first = families._first_deep_numerators(deep, numerators, codes.class_ids(field, numerators))
    assert (first @ q ** np.arange(3)).tolist() == expected
    assert expected[4] == [q * q, 2 * q * q, 3 * q * q]


# the codes of the benchmark sweep's family commands: (construction of every
# family, covering radius); PRS(12,8)/GF(11), PRS(14,11) and PRS(14,9) over
# GF(13) hold more than the codeword table's 10^7 bound of codewords
SWEEP_FAMILIES = {
    "cubic q=9": (lambda: cubic_families(prs(G9, 6), monic_irreducibles(G9, 3)), 3),
    "cubic q=11": (
        lambda: cubic_families(prs(make_field(11), 8), monic_irreducibles(make_field(11), 3)),
        3,
    ),
    "quadratic q=13 k=11": (
        lambda: quadratic_families(prs(G13, 11), monic_irreducibles(G13, 2)),
        2,
    ),
    "degree_k q=13 k=9": (lambda: [degree_k_family(prs(G13, 9))], 4),
    "zero_sum_free q=13": (lambda: [zero_sum_free_family(G13, (0, 1, 2, 3, 4), 2)], 3),
}


@pytest.mark.parametrize("case", SWEEP_FAMILIES)
def test_sample_words_read_rho_by_the_exhaustive_oracle(case):
    # the oracle reads only the generator matrix: not H, a syndrome or the
    # weight table that picked the words
    build, rho = SWEEP_FAMILIES[case]
    fams = build()
    assert fams and all(fam.words for fam in fams)
    for fam in fams:
        for w in fam.words:
            assert fam.code.error_distance(w, method="exhaustive") == rho, (fam.params, w)


def test_cubic_families_memory_is_bounded():
    code = prs(13, 10)
    cubics = monic_irreducibles(code.field, 3)
    code.coset_leader_weights()  # built once per code, not per block
    code.field.add_table, code.field.mul_table, code.field.inv_table
    tracemalloc.start()
    try:
        fams = cubic_families(code, cubics)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fams) == 728
    # built in one block, the class spans of all 728 cubics peak 3.2 MB
    # above what the families keep; in blocks of SCAN_CHUNK entries, 2.1 MB
    assert peak - retained < 2.5 * 2**20
    # the 728 families keep 92 int64 class ids each, 1.3 MB in all
    assert retained < 2 * 2**20


def test_quadratic_families_memory_is_bounded():
    code = prs(13, 11)
    quads = monic_irreducibles(code.field, 2)
    code.coset_leader_weights()  # built once per code, not per block
    code.field.add_table, code.field.mul_table, code.field.inv_table
    tracemalloc.start()
    try:
        fams = quadratic_families(code, quads)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fams) == 78
    # the 78 spans of 14 classes each are one block, and peak 0.06 MB above
    # what the families keep
    assert peak - retained < 2**17
    # the families keep 14 int64 class ids and three sample words each,
    # 0.08 MB in all
    assert retained < 2**17
