"""The class ids that the families and the deep sets hold stand for exactly
the packed cosets that the full q^m spans of their syndromes give, filtered
by the scalar weight of each coset: every such set is a union of scalar
classes, except the single zero_sum_free coset.  The packed sets are rebuilt
here as a family construction over all q^m coefficient tuples would build
them, with the weight of each packed syndrome found in scalar arithmetic."""

import functools

import numpy as np
import pytest

from deephole import classify, codes, families
from deephole.cli import run_command
from deephole.codes import prs, rs
from deephole.gf import field_of_order
from deephole.poly import Poly, monic_irreducibles


@functools.cache
def _scalar_tables(code):
    """(weight, reps): weight[s] the weight-table entry of the class of every
    packed syndrome s (0 for s = 0), and reps[c] the packed representative of
    class c, by scaling each syndrome so that its first nonzero coordinate is
    1 and placing it in the box layout of the compact table, in scalar
    arithmetic."""
    field, q, r = code.field, code.field.q, code.redundancy
    compact = code.coset_leader_weights()
    assert len(compact) == (q**r - 1) // (q - 1)
    offsets = [sum(q ** (r - 1 - i) for i in range(j)) for j in range(r)]
    weight = np.zeros(q**r, dtype=np.int64)
    reps = np.full(len(compact), -1, dtype=np.int64)
    for s in range(1, q**r):
        syndrome = [s // q**i % q for i in range(r)]
        j = next(t for t, x in enumerate(syndrome) if x)
        rep = [field.mul(field.inv(syndrome[j]), x) for x in syndrome]
        cid = offsets[j] + sum(x * q ** (t - j - 1) for t, x in enumerate(rep) if t > j)
        weight[s] = compact[cid]
        if rep == syndrome:
            reps[cid] = s
    assert (reps > 0).all()
    return weight, reps


def _full_span(code, syndromes) -> np.ndarray:
    """Packed id of every combination sum c_j*s_j, indexed by (c_0, c_1, ...)
    packed base q with c_0 the least significant digit."""
    q, r = code.field.q, code.redundancy
    combos = codes._combinations(code.field, syndromes, r)
    return combos.astype(np.int64) @ q ** np.arange(r)


def _multiples(code, class_ids) -> np.ndarray:
    """The packed ids of the q - 1 nonzero multiples of every class."""
    fld, q, r = code.field, code.field.q, code.redundancy
    _, reps = _scalar_tables(code)
    digits = reps[np.asarray(class_ids)][:, None] // q ** np.arange(r) % q
    scaled = fld.mul_table[np.arange(1, q)[:, None, None], digits]
    return np.sort(scaled.astype(np.int64) @ q ** np.arange(r), axis=None)


def _basis_syndromes(code, p):
    d = p.degree
    monomials = [(0,) * i + (1,) for i in range(d)]
    return code.syndromes(code.rational_words(monomials, [p.coeffs] * d))


def _assert_classes_stand_for(code, fam, packed):
    packed = np.unique(packed)
    assert fam.scale_closed
    assert np.array_equal(_multiples(code, fam.cosets), packed)
    assert families.family_table([fam]).rows()[0]["coset_count"] == len(packed)


# the sizes of tests/fixtures/report_digests.json
CUBIC_Q = (5, 7, 8, 9, 11)
QUADRATIC_QK = ((5, 3), (5, 2), (7, 5), (7, 4), (9, 7), (9, 6), (13, 11), (13, 10), (8, 5))


@pytest.mark.parametrize("q", CUBIC_Q)
def test_cubic_classes_are_the_deep_numerators(q):
    field = field_of_order(q)
    code = prs(field, q - 3)
    weight, _ = _scalar_tables(code)
    rho = code.covering_radius()
    polys = monic_irreducibles(field, 3)
    for p, fam in zip(polys, families.cubic_families(code, polys)):
        span = _full_span(code, _basis_syndromes(code, p))
        deep = np.flatnonzero(weight[span] == rho)
        _assert_classes_stand_for(code, fam, span[deep])
        # the sample words are the words of the first three deep numerators
        # a + b x + c x^2, at index a + q*b + q^2*c
        nums = [(t % q, t // q % q, t // q**2) for t in deep[:3].tolist()]
        expected = [tuple(code.rational_words([num], [p.coeffs])[0].tolist()) for num in nums]
        assert fam.words == tuple(expected)


@pytest.mark.parametrize("q, k", QUADRATIC_QK)
def test_quadratic_classes_are_the_nonzero_numerators(q, k):
    field = field_of_order(q)
    code = prs(field, k)
    polys = monic_irreducibles(field, 2)
    for p, fam in zip(polys, families.quadratic_families(code, polys)):
        _assert_classes_stand_for(code, fam, _full_span(code, _basis_syndromes(code, p))[1:])


@pytest.mark.parametrize("q, k", [(7, 4), (8, 5)])
def test_degree_k_classes_are_the_words_with_nonzero_last_coordinate(q, k):
    field = field_of_order(q)
    code = prs(field, k)
    xk = code.syndrome(code.word(Poly.monomial(field, k)))
    # (a*u_{x^k}, v) has index a + q*v
    span = _full_span(code, (xk, code.h_columns()[-1])).reshape(q, q)[:, 1:]
    _assert_classes_stand_for(code, families.degree_k_family(code), span)


@pytest.mark.parametrize("q, D, k", [(7, (1, 2, 3, 4, 5), 2), (9, (0, 1, 2, 3, 4, 5), 3)])
def test_inverse_monomial_classes_are_the_nonzero_multiples(q, D, k):
    code = rs(field_of_order(q), k, D=D)
    for delta in range(q):
        if delta not in D:
            fam = families.inverse_monomial_family(code, delta)
            span = _full_span(code, (code.syndrome(fam.words[0]),))[1:]
            _assert_classes_stand_for(code, fam, span)


@pytest.mark.parametrize("q", [7, 11])
def test_the_zero_sum_free_coset_is_not_scale_closed(q):
    D = (0, 1, 2, 3)
    fam = families.zero_sum_free_family(field_of_order(q), D, 2)
    code = fam.code
    own = code.syndrome(fam.words[0])
    assert not fam.scale_closed
    assert fam.cosets.tolist() == codes.class_ids(code.field, [own]).tolist()
    # its class holds q - 1 cosets, and the family only the one
    assert len(_multiples(code, fam.cosets)) == q - 1
    assert families.family_table([fam]).rows()[0]["coset_count"] == 1
    argv = ["family", "zero_sum_free", "--q", str(q), "--set", "0,1,2,3", "--r", "2"]
    report, exit_code = run_command(argv)
    assert exit_code == 0
    assert report["result"]["total_distinct_cosets"] == 1
    assert report["result"]["families"].rows()[0]["coset_count"] == 1


@pytest.mark.parametrize("q, k", [(7, 5), (13, 11), (7, 4), (8, 5), (11, 8)])
def test_deep_classes_are_the_packed_syndromes_at_the_radius(q, k):
    code = prs(field_of_order(q), k)
    weight, _ = _scalar_tables(code)
    deep = classify.deep_syndromes(code)
    packed = np.flatnonzero(weight == code.covering_radius())
    assert np.array_equal(_multiples(code, deep), packed)
    assert classify.count_deep_cosets(code) == len(packed)
