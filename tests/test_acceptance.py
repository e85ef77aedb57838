"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a PASS line on success (visible with pytest -s); the
structural expectations inside library calls raise on mismatch, so a green
test is an exact reproduction of the corresponding results.
"""

import random
import time

import numpy as np

from deephole import classify, codes, families, numbertheory
from deephole.codes import prs, rs
from deephole.gf import field_of_order, make_field
from deephole.poly import Poly, monic_irreducibles

AFFINE_CASES = [
    (q, k)
    for q in (5, 7, 8, 9)
    for k in range(1, q)
    if q ** (q - k) <= 10**7
]

PRS_RADIUS_CASES = (
    [(q, q - 2, 2) for q in (5, 7, 9, 11)]
    + [(q, q - 3, 3) for q in (5, 7, 8, 9)]
    + [(5, 4, 1)]
)


def test_criterion_01_covering_radii():
    for q, k in AFFINE_CASES:
        t0 = time.time()
        assert rs(q, k).covering_radius() == q - k, (q, k)
        assert time.time() - t0 < 60
    for q, k, expected in PRS_RADIUS_CASES:
        t0 = time.time()
        assert prs(q, k).covering_radius() == expected, (q, k)
        assert time.time() - t0 < 60
    print(
        f"\nACCEPTANCE 1 PASS: covering radii exact on {len(AFFINE_CASES)} affine "
        f"and {len(PRS_RADIUS_CASES)} projective codes"
    )


def test_criterion_02_deep_coset_counts():
    for q in (5, 7, 9, 11, 13):
        total = classify.count_deep_cosets(prs(q, q - 2))
        assert total == (q - 1) * q * q, q
    for q in (5, 7, 8, 9):
        total = classify.count_deep_cosets(prs(q, q - 3))
        assert total == (q - 1) * (q**3 + 2 * q**2 + q) // 2, q
    print("\nACCEPTANCE 2 PASS: deep-coset counts match the closed formulas")


def test_criterion_03_completeness():
    for q in (5, 7, 9, 11):
        res = classify.completeness_check(field_of_order(q))
        assert res["equal"], res
        assert res["union_size"] == (q - 1) * q * q
    print("\nACCEPTANCE 3 PASS: quadratic families exhaust the deep cosets at k=q-2")


def test_criterion_04_hypergraph_structure():
    for q in (5, 7, 9, 11):
        h = classify.build_hypergraph(field_of_order(q))
        stats = classify.hypergraph_stats(h)
        assert stats["num_vertices"] == q * q
        assert stats["num_edges"] == (q * q - q) // 2
        assert all(stats["checks"].values()), (q, stats["checks"])
    print("\nACCEPTANCE 4 PASS: hypergraph sizes, intersections and degrees exact")


def test_criterion_05_quadratic_families():
    for q, k in [(5, 3), (7, 5), (5, 2), (7, 4), (8, 5)]:
        code = prs(q, k)
        field = code.field
        rho = q - k
        weights = code.coset_leader_weights()
        quads = monic_irreducibles(field, 2)
        for p in quads:
            fam = families.quadratic_family(code, p)  # verifies all q^2-1 words
            assert fam.coset_count == q * q - 1
        # exhaustive spot checks on deterministic samples
        rng = random.Random(q * 100 + k)
        for p in rng.sample(quads, min(3, len(quads))):
            fam = families.quadratic_family(code, p)
            for w in fam.words:
                assert code.error_distance(w, method="exhaustive") == rho
    print("\nACCEPTANCE 5 PASS: every quadratic-family word at distance q-k")


def test_criterion_06_cubic_families():
    for q in (5, 7):
        field = make_field(q)
        code = prs(q, q - 3)
        expected = (q - 1) * (q * q + q + 2) // 2
        quad_union = np.unique(
            np.concatenate(
                [
                    families.quadratic_family(code, p).cosets
                    for p in monic_irreducibles(field, 2)
                ]
            )
        )
        dk = families.degree_k_family(code).cosets
        cubic_union = np.empty(0, dtype=np.int64)
        for p in monic_irreducibles(field, 3):
            fam = families.cubic_family(code, p)
            assert fam.coset_count == expected, (q, p)
            # class ids: each new class is q - 1 new cosets
            assert len(np.setdiff1d(np.setdiff1d(fam.cosets, dk), quad_union)) >= 1
            cubic_union = np.union1d(cubic_union, fam.cosets)
        assert np.isin(quad_union, cubic_union).all()
        assert np.isin(dk, cubic_union).all()
    print("\nACCEPTANCE 6 PASS: cubic-family counts and containments exact at q=5,7")


def test_criterion_07_cubic_coverage_experiment():
    t0 = time.time()
    results = {}
    for q in (5, 7, 8):
        res = classify.cubic_coverage_experiment(field_of_order(q))
        results[q] = res
        print(
            f"\ncubic coverage q={q}: covered {res['covered']} of {res['total']} "
            f"deep cosets (fraction {res['fraction']:.4f})"
        )
    assert results[5]["total"] == 360
    assert results[7]["total"] == 1344
    assert results[8]["total"] == 7 * (256 + 64 + 4)
    # recorded observation, not a pass/fail condition: whether the cubic
    # construction already reaches every deep coset at q = 8
    print(
        "observation q=8: covered == total"
        if results[8]["covered"] == results[8]["total"]
        else "observation q=8: covered < total"
    )
    assert time.time() - t0 < 600
    print("ACCEPTANCE 7 PASS: cubic coverage reported for q=5,7,8")


def test_criterion_08_n3_distribution():
    t0 = time.time()
    rows = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for row in numbertheory.n3_sweep(field_of_order(q)).rows():
            assert row["n3_bruteforce"] == row["n3_formula"], (q, row)
            rows += 1
    assert time.time() - t0 < 60
    print(f"\nACCEPTANCE 8 PASS: N3 formula = brute force on {rows} classes")


def test_criterion_09_subset_sums():
    for q in (3, 5, 7, 9, 11, 13):
        field = field_of_order(q)
        for k in range(1, q):
            row = numbertheory.subset_sum_row(field, field.element_reprs(), k)
            assert all(c > 0 for c in row), (q, k)
    for q in (2, 4, 8):
        field = field_of_order(q)
        for k in range(3, q - 2):
            row = numbertheory.subset_sum_row(field, field.element_reprs(), k)
            assert all(c > 0 for c in row), (q, k)
    # criterion equivalence against exact distances
    rng = random.Random(99)
    for q in (5, 7):
        field = make_field(q)
        sets = [field.element_reprs(), tuple(range(q - 1))]
        for D in sets:
            for k in range(1, 4):
                if k + 1 > len(D):
                    continue
                code = rs(field, k, D=D)
                for a in range(q):
                    f = Poly.monomial(field, k + 1) + Poly.monomial(
                        field, k, field.neg(a)
                    )
                    f = f + Poly(field, [rng.randrange(q) for _ in range(k)])
                    dist = code.error_distance(code.word(f), method="exhaustive")
                    assert (dist < code.n - k) == numbertheory.degree_k1_nondeephole(
                        field, D, k, a
                    )
    print("\nACCEPTANCE 9 PASS: subset-sum positivity and deep-hole criterion exact")


def test_criterion_10_zero_sum_free_deep_holes():
    g13 = make_field(13)
    fam = families.zero_sum_free_family(g13, (0, 1, 2, 3, 4), 2)
    code = fam.code
    w = fam.words[0]
    assert code.error_distance(w, method="exhaustive") == 3
    degree_cosets = {code.syndrome(code.word(Poly.monomial(g13, 2, a))) for a in range(1, 13)}
    inv_cosets = np.concatenate(
        [
            families.inverse_monomial_family(code, d).cosets
            for d in range(13)
            if d not in (0, 1, 2, 3, 4)
        ]
    )
    assert code.syndrome(w) not in degree_cosets
    assert not np.isin(codes.class_ids(g13, code.syndrome(w)), inv_cosets)
    # the initial-segment candidate sets: every tested (p, r) turns out to
    # contain a zero-sum subset, so each verdict is recorded explicitly
    verdicts = {}
    for p in (5, 7, 11, 13):
        field = make_field(p)
        for r in (2, 3):
            D = numbertheory.initial_segment(p, r)
            ok = numbertheory.is_zero_sum_free(field, D, r)
            verdicts[(p, r)] = ok
            bad = numbertheory.zero_sum_violations(field, D, r, limit=1)
            print(
                f"\ninitial segment p={p} r={r} set={D}: "
                + ("zero-sum-free" if ok else f"violation {list(bad[0])}")
            )
    assert all(v is False for v in verdicts.values()), verdicts
    print("ACCEPTANCE 10 PASS: zero-sum-free deep hole exact; segment verdicts recorded")


def _criterion_11_codes():
    out = [rs(q, k) for q, k in AFFINE_CASES]
    prs_cases = {(q, k) for q, k, _ in PRS_RADIUS_CASES}
    prs_cases |= {(q, q - 2) for q in (5, 7, 9, 11, 13)}
    prs_cases |= {(q, q - 3) for q in (5, 7, 8, 9, 11, 13)}
    return out + [prs(q, k) for q, k in sorted(prs_cases)]


def test_criterion_11_oracle_equivalence():
    for code in _criterion_11_codes():
        q = code.field.q
        rng = random.Random(code.n * 1000 + code.k)
        for _ in range(200):
            w = tuple(rng.randrange(q) for _ in range(code.n))
            a = code.error_distance(w, method="exhaustive")
            b = code.error_distance(w, method="syndrome_span")
            assert a == b, (code, w, a, b)
    print(
        f"\nACCEPTANCE 11 PASS: exhaustive and syndrome-span distances agree on "
        f"200 random words for each of {len(_criterion_11_codes())} codes"
    )
