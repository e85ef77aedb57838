import functools
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from deephole import codes, numbertheory
from deephole.codes import rs
from deephole.gf import field_of_order, make_field
from deephole.numbertheory import (
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
from deephole.poly import Poly, evaluate, is_irreducible, monic_irreducibles

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


def test_zero_sum_violations_stop_at_violations_shown():
    # the first VIOLATIONS_SHOWN zero-sum subsets in enumeration order
    for r in (2, 3):
        every = [
            sub for sub in itertools.combinations(range(13), r)
            if sum(sub) % 13 == 0
        ]
        shown = zero_sum_violations(G13, range(13), r)
        assert shown == every[:numbertheory.VIOLATIONS_SHOWN]
    assert len(every) > numbertheory.VIOLATIONS_SHOWN > len(
        zero_sum_violations(G13, range(13), 2)
    )


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


def _classes(q):
    """Every nonzero residue class (c0, c1), in the order of n3_sweep's rows."""
    return [(c % q, c // q) for c in range(1, q * q)]


def test_embedding_is_a_homomorphism_and_residue_maps_biject():
    for q in (2, 3, 4, 5, 8, 9):
        base = field_of_order(q)
        ext, embed = numbertheory._embedding(base)
        assert ext.q == q * q
        for a in range(q):
            for b in range(q):
                assert embed[base.add(a, b)] == ext.add(int(embed[a]), int(embed[b]))
                assert embed[base.mul(a, b)] == ext.mul(int(embed[a]), int(embed[b]))
        quadratics = [p.coeffs for p in monic_irreducibles(base, 2)]
        linear = embed[_classes(q)]
        thetas, maps = numbertheory._residue_maps(ext, embed[quadratics], linear)
        assert maps.shape == (len(quadratics), q * q - 1)
        for coeffs, theta, row in zip(quadratics, thetas.tolist(), maps.tolist()):
            # theta is the smallest root of the embedded quadratic, by scalar
            # Horner steps over all of GF(q^2)
            emb = [int(embed[c]) for c in coeffs]
            roots = [
                x for x in range(ext.q)
                if ext.add(ext.mul(ext.add(ext.mul(emb[2], x), emb[1]), x), emb[0]) == 0
            ]
            assert theta == roots[0]
            # every nonzero class maps to a distinct nonzero element
            assert sorted(row) == list(range(1, ext.q))


def test_n3_q2():
    g2 = make_field(2)
    qpoly = monic_irreducibles(g2, 2)[0]
    values = {alpha: n3_bruteforce(qpoly, alpha) for alpha in _classes(2)}
    assert values[(1, 0)] == 0  # the constant class has no cubic
    assert values[(0, 1)] == 1
    assert values[(1, 1)] == 1
    for alpha in _classes(2):
        assert n3_formula(qpoly, alpha) == n3_bruteforce(qpoly, alpha)


def test_n3_q4_constant():
    g4 = make_field(2, 2)
    for qpoly in monic_irreducibles(g4, 2)[:2]:
        for alpha in _classes(4):
            assert n3_bruteforce(qpoly, alpha) == 4  # q(q-1)/3 with q = 1 mod 3
            assert r3(qpoly, alpha) == 0


def test_n3_q5_sweep():
    seen = set()
    for qpoly in monic_irreducibles(G5, 2):
        for alpha in _classes(5):
            bf = n3_bruteforce(qpoly, alpha)
            assert bf == n3_formula(qpoly, alpha)
            seen.add(bf)
    assert seen == {6, 7}  # both character values occur at q = 2 mod 3


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_n3_sweep_columns_match_the_poly_references(q, monkeypatch):
    # every row against the references in GF(q)[x]/(q(x)): both r3 branches
    # (q = 2 mod 3 or not), prime and extension fields.  Each cubic residue
    # count is reduced once per quadratic, and checked against a recount over
    # the cubics that the irreducibility test finds
    monkeypatch.setattr(
        numbertheory, "_cubic_residues", functools.cache(numbertheory._cubic_residues)
    )
    base = field_of_order(q)
    table = n3_sweep(base)
    cols = {name: col.tolist() for name, col in table.columns.items()}
    assert list(cols) == ["qpoly", "alpha", "n3_bruteforce", "n3_formula", "r3"]
    cubics = [
        Poly(base, low + (1,))
        for low in itertools.product(range(q), repeat=3)
        if is_irreducible(Poly(base, low + (1,)))
    ]
    expected = {name: [] for name in cols}
    for qpoly in monic_irreducibles(base, 2):
        assert numbertheory._cubic_residues(qpoly) == Counter(p % qpoly for p in cubics)
        for alpha in _classes(q):
            expected["qpoly"].append(list(qpoly.coeffs))
            expected["alpha"].append(list(alpha))
            expected["n3_bruteforce"].append(n3_bruteforce(qpoly, alpha))
            expected["n3_formula"].append(n3_formula(qpoly, alpha))
            expected["r3"].append(r3(qpoly, alpha))
    assert cols == expected
    assert len(table) == (q * q - q) // 2 * (q * q - 1)


@pytest.mark.parametrize("q", [5, 8, 9])
def test_n3_sweep_blocks_give_the_one_block_table(q, monkeypatch):
    # a SCAN_CHUNK of three quadratics' worth forces several blocks (the last
    # one short at q = 5 and 8), and no evaluation in them holds more than
    # SCAN_CHUNK entries
    base = field_of_order(q)
    one_block = n3_sweep(base).rows()
    quadratics = len(monic_irreducibles(base, 2))
    chunk = 3 * max(q * q, len(monic_irreducibles(base, 3)))
    monkeypatch.setattr(codes, "SCAN_CHUNK", chunk)
    sizes = []

    def recording_evaluate(field, coeffs, xs):
        out = evaluate(field, coeffs, xs)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(numbertheory, "evaluate", recording_evaluate)
    assert n3_sweep(base).rows() == one_block
    blocks = -(-quadratics // 3)
    assert blocks > 3
    assert len(sizes) == 2 + 3 * blocks  # the embedding, then three per block
    assert max(sizes) <= chunk


def test_n3_pair_accounting():
    # summing N3 over all classes counts every (cubic, scalar) pair once
    for base in (make_field(2), make_field(3), G5, make_field(2, 2)):
        q = base.q
        qpoly = monic_irreducibles(base, 2)[0]
        total = sum(n3_bruteforce(qpoly, alpha) for alpha in _classes(q))
        assert total == (q**3 - q) // 3 * (q - 1)


def test_r3_log_reads_cube_subgroup_membership():
    # n3_sweep reads cube-subgroup membership from the logs of GF(q^2) to its
    # generator: 3 divides log a exactly when a^((q^2-1)/3) = 1
    for base in (make_field(2), G5, make_field(2, 3)):
        ext = make_field(base.p, 2 * base.m)
        for a in range(1, ext.q):
            cube = ext.pow(a, (ext.q - 1) // 3) == 1
            assert (ext.log_table[a] % 3 == 0) == cube


def test_r3_errors():
    qpoly = monic_irreducibles(G5, 2)[0]
    for reference in (n3_bruteforce, n3_formula, r3):
        with pytest.raises(ValueError):
            reference(qpoly, (0, 0))
        for bad in ((4, 0, 1), (2, 0, 2), (2, 1)):  # reducible, not monic, linear
            with pytest.raises(ValueError):
                reference(Poly(G5, bad), (1, 0))
