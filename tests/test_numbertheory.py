import itertools
import random
from collections import Counter

import pytest

from deephole.codes import rs
from deephole.gf import field_of_order, make_field
from deephole.numbertheory import (
    QuadraticExtension,
    degree_k1_nondeephole,
    initial_segment,
    is_zero_sum_free,
    n3_bruteforce,
    n3_formula,
    n3_sweep,
    r3,
    subset_sum_closed_row,
    subset_sum_count,
    subset_sum_row,
    zero_sum_violations,
)
from deephole.poly import Poly, is_irreducible, monic_irreducibles

G5 = make_field(5)
G7 = make_field(7)
G13 = make_field(13)


def brute_subset_sum(field, D, k, g):
    return sum(
        1
        for sub in itertools.combinations(D, k)
        if not field.sub(sum_all(field, sub), g)
    )


def sum_all(field, xs):
    total = 0
    for x in xs:
        total = field.add(total, x)
    return total


def test_subset_sum_examples():
    assert subset_sum_count(G5, G5.element_reprs(), 2, 0) == 2  # {1,4},{2,3}
    assert subset_sum_count(G5, G5.element_reprs(), 0, 0) == 1
    assert subset_sum_count(G5, G5.element_reprs(), 0, 3) == 0
    with pytest.raises(ValueError):
        subset_sum_count(G5, (1, 1, 2), 2, 0)
    with pytest.raises(ValueError):
        subset_sum_count(G5, (1, 2), 3, 0)


def test_subset_sum_dp_matches_enumeration():
    rng = random.Random(17)
    for field in (G5, G7, make_field(2, 3), make_field(3, 2), G13):
        q = field.q
        for _ in range(8):
            size = rng.randrange(2, min(q, 12) + 1)
            D = tuple(rng.sample(range(q), size))
            k = rng.randrange(0, size + 1)
            row = subset_sum_row(field, D, k)
            for g in range(q):
                assert row[g] == brute_subset_sum(field, D, k, g)


def test_full_field_positivity():
    # odd q: every k-SSP over the full field has solutions for 1 <= k <= q-1
    for field in (G5, G7, make_field(3)):
        q = field.q
        for k in range(1, q):
            row = subset_sum_row(field, field.element_reprs(), k)
            assert all(c > 0 for c in row)
    # even q: for 3 <= k <= q-3
    g8 = make_field(2, 3)
    for k in range(3, 6):
        row = subset_sum_row(g8, g8.element_reprs(), k)
        assert all(c > 0 for c in row)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_subset_sum_closed_forms_match_dp(q):
    # Li-Wan closed forms for D = GF(q) and D = GF(q)*, every k and every g
    field = field_of_order(q)
    for nonzero, D in ((False, range(q)), (True, range(1, q))):
        for k in range(len(D) + 1):
            assert subset_sum_closed_row(field, k, nonzero) == subset_sum_row(
                field, D, k
            ), (nonzero, k)


def test_is_zero_sum_free():
    assert is_zero_sum_free(G13, (0, 1, 2, 3, 4), 2)
    assert not is_zero_sum_free(G7, (0, 1, 2, 3, 4), 2)  # 3 + 4 = 0
    assert zero_sum_violations(G7, (0, 1, 2, 3, 4), 2) == [(3, 4)]
    # odd q with D disjoint from -D (outside zero) is 2-zero-sum-free
    assert is_zero_sum_free(G7, (0, 1, 2, 3), 2)
    # even q: any subset is 2-zero-sum-free
    g8 = make_field(2, 3)
    assert is_zero_sum_free(g8, (0, 1, 2, 3, 4, 5), 2)
    with pytest.raises(ValueError):
        is_zero_sum_free(G5, (1, 2, 3), 1)
    with pytest.raises(ValueError):
        is_zero_sum_free(G5, (1, 2), 3)


def test_initial_segment():
    assert initial_segment(7, 2) == [0, 1, 2, 3, 4]
    assert initial_segment(13, 3) == [0, 1, 2, 3, 4, 5, 6]


def test_degree_k1_nondeephole():
    # over the full field the k-SSP always has solutions, so degree-(k+1)
    # words are never deep holes
    for a in range(5):
        assert degree_k1_nondeephole(G5, G5.element_reprs(), 2, a)
    # zero-sum-free direction: the target sum(D) is unreachable
    D = (0, 1, 2, 3, 4)
    assert not degree_k1_nondeephole(G13, D, 2, 10)
    # |D| = k+1: a single subset
    assert degree_k1_nondeephole(G5, (1, 2), 1, 3)
    assert not degree_k1_nondeephole(G5, (1, 2), 1, 4)


def test_nondeephole_criterion_matches_exact_distance():
    # x^(k+1) - a x^k (+ lower terms) is a deep hole iff N(k+1, a, D) = 0
    rng = random.Random(23)
    cases = [
        (G5, G5.element_reprs(), 2),
        (G5, G5.element_reprs(), 3),
        (G5, (0, 1, 2, 4), 2),
        (G7, G7.element_reprs(), 2),
        (G7, G7.element_reprs(), 3),
        (G7, (0, 1, 2, 3, 5), 3),
        (G13, (0, 1, 2, 3, 4), 2),
    ]
    for field, D, k in cases:
        code = rs(field, k, D=D)
        for a in range(field.q):
            f = Poly.monomial(field, k + 1) + Poly.monomial(field, k, field.neg(a))
            f = f + Poly(field, [rng.randrange(field.q) for _ in range(k)])
            dist = code.error_distance(code.word(f), method="exhaustive")
            not_deep = dist < code.n - code.k
            assert not_deep == degree_k1_nondeephole(field, D, k, a)


def test_quadratic_extension_is_field_homomorphism():
    for base in (make_field(2), make_field(3), G5, make_field(2, 2)):
        qpoly = monic_irreducibles(base, 2)[0]
        ring = QuadraticExtension(qpoly)
        ext = ring.ext
        assert ext.q == base.q**2
        for a in range(base.q):
            for b in range(base.q):
                assert ring.embed(base.add(a, b)) == ext.add(
                    ring.embed(a), ring.embed(b)
                )
                assert ring.embed(base.mul(a, b)) == ext.mul(
                    ring.embed(a), ring.embed(b)
                )
        # theta is a root of the embedded quadratic
        emb = [ring.embed(c) for c in qpoly.coeffs]
        acc = 0
        for c in reversed(emb):
            acc = ext.add(ext.mul(acc, ring.theta), c)
        assert acc == 0
        # every residue class appears exactly once
        assert sorted(ring.residue_classes()) == list(range(1, ext.q))


def test_n3_q2():
    g2 = make_field(2)
    ring = QuadraticExtension(monic_irreducibles(g2, 2)[0])
    values = {ring.residue(a): n3_bruteforce(ring, a) for a in ring.residue_classes()}
    assert values[(1, 0)] == 0  # the constant class has no cubic
    assert values[(0, 1)] == 1
    assert values[(1, 1)] == 1
    for a in ring.residue_classes():
        assert n3_formula(ring, a) == n3_bruteforce(ring, a)


def test_n3_q4_constant():
    g4 = make_field(2, 2)
    for qpoly in monic_irreducibles(g4, 2)[:2]:
        ring = QuadraticExtension(qpoly)
        for a in ring.residue_classes():
            assert n3_bruteforce(ring, a) == 4  # q(q-1)/3 with q = 1 mod 3
            assert r3(ring, a) == 0


def test_n3_q5_sweep():
    seen = set()
    for qpoly in monic_irreducibles(G5, 2):
        ring = QuadraticExtension(qpoly)
        for a in ring.residue_classes():
            bf = n3_bruteforce(ring, a)
            assert bf == n3_formula(ring, a)
            seen.add(bf)
    assert seen == {6, 7}  # both character values occur at q = 2 mod 3


def test_n3_bruteforce_matches_scalar_recount():
    # an independent recount: cubics by the irreducibility test, lifted one
    # at a time by the scalar Horner rule of QuadraticExtension.lift
    for base in (make_field(2), make_field(3), make_field(2, 2), G5, G7):
        q = base.q
        cubics = [
            Poly(base, low + (1,))
            for low in itertools.product(range(q), repeat=3)
            if is_irreducible(Poly(base, low + (1,)))
        ]
        for qpoly in monic_irreducibles(base, 2):
            ring = QuadraticExtension(qpoly)
            ext = ring.ext
            lifted = Counter(ring.lift(p) for p in cubics)
            for alpha in ring.residue_classes():
                recount = sum(
                    lifted[ext.mul(ring.embed(l), alpha)] for l in range(1, q)
                )
                assert n3_bruteforce(ring, alpha) == recount


def test_n3_sweep_rows_match_per_alpha_functions():
    rows = n3_sweep(G5)
    expected = []
    for qpoly in monic_irreducibles(G5, 2):
        ring = QuadraticExtension(qpoly)
        for alpha in ring.residue_classes():
            expected.append(
                {
                    "qpoly": list(qpoly.coeffs),
                    "alpha": list(ring.residue(alpha)),
                    "n3_bruteforce": n3_bruteforce(ring, alpha),
                    "n3_formula": n3_formula(ring, alpha),
                    "r3": r3(ring, alpha),
                }
            )
    assert rows.rows() == expected
    assert len(rows) == 10 * 24


def test_n3_sweep_columns_match_per_alpha_functions_on_small_fields():
    # both r3 branches (q = 2 mod 3 or not), prime and extension fields
    for q in (2, 3, 4, 7, 8, 9):
        base = field_of_order(q)
        table = n3_sweep(base)
        cols = {name: col.tolist() for name, col in table.columns.items()}
        expected = {name: [] for name in cols}
        for qpoly in monic_irreducibles(base, 2):
            ring = QuadraticExtension(qpoly)
            for alpha in ring.residue_classes():
                expected["qpoly"].append(list(qpoly.coeffs))
                expected["alpha"].append(list(ring.residue(alpha)))
                expected["n3_bruteforce"].append(n3_bruteforce(ring, alpha))
                expected["n3_formula"].append(n3_formula(ring, alpha))
                expected["r3"].append(r3(ring, alpha))
        assert list(cols) == ["qpoly", "alpha", "n3_bruteforce", "n3_formula", "r3"]
        assert cols == expected, q
        assert len(table) == (q * q - q) // 2 * (q * q - 1)


def test_n3_pair_accounting():
    # summing N3 over all classes counts every (cubic, scalar) pair once
    for base in (make_field(2), make_field(3), G5, make_field(2, 2)):
        q = base.q
        qpoly = monic_irreducibles(base, 2)[0]
        ring = QuadraticExtension(qpoly)
        total = sum(n3_bruteforce(ring, a) for a in ring.residue_classes())
        assert total == (q**3 - q) // 3 * (q - 1)


def test_r3_is_generator_independent():
    for base in (make_field(2), G5):
        ring = QuadraticExtension(monic_irreducibles(base, 2)[0])
        ext = ring.ext
        gens = [g for g in range(1, ext.q) if ext.is_generator(g)]
        for a in ring.residue_classes():
            kernel = {ext.discrete_log(a, g) % 3 == 0 for g in gens}
            assert len(kernel) == 1  # cube-subgroup membership is canonical


def test_r3_errors():
    ring = QuadraticExtension(monic_irreducibles(G5, 2)[0])
    with pytest.raises(ValueError):
        n3_bruteforce(ring, 0)
    with pytest.raises(ValueError):
        r3(ring, 0)
    with pytest.raises(ValueError):
        QuadraticExtension(Poly(G5, (4, 0, 1)))  # reducible
