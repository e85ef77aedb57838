import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deephole.gf import field_of_order, make_field
from deephole.poly import (
    NEG_INF,
    Poly,
    distinct_roots,
    evaluate,
    gcd,
    is_irreducible,
    monic_irreducibles,
    pow_mod,
)
from references import is_square

G5 = make_field(5)


def x_pow_q_minus_x(field):
    return Poly(field, (0,) * field.q + (1,)) - Poly.x(field)


def test_eval():
    f = Poly(G5, (2, 0, 1))  # x^2 + 2
    assert f(1) == 3
    assert Poly.zero(G5)(4) == 0
    assert Poly.monomial(G5, 3)(4) == 4  # 64 mod 5
    assert Poly.zero(G5).degree == NEG_INF


def test_divmod_examples():
    a = Poly(G5, (4, 0, 1))  # x^2 - 1
    b = Poly(G5, (4, 1))  # x - 1
    q, r = divmod(a, b)
    assert q == Poly(G5, (1, 1)) and not r
    q, r = divmod(Poly.monomial(G5, 3), Poly(G5, (2, 0, 1)))
    assert q == Poly.x(G5) and r == Poly(G5, (0, 3))
    c = Poly(G5, (3,))
    q, r = divmod(c, Poly(G5, (2, 0, 1)))
    assert not q and r == c
    with pytest.raises(ZeroDivisionError):
        divmod(a, Poly.zero(G5))


def test_divmod_roundtrip():
    rng = random.Random(11)
    for field in [G5, make_field(2, 2), make_field(7)]:
        for _ in range(200):
            a = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(7))])
            b = Poly(field, [rng.randrange(field.q) for _ in range(rng.randrange(1, 5))])
            if not b:
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


@st.composite
def dividend_divisor(draw):
    field = field_of_order(draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 16, 25, 27))))
    digit = st.integers(0, field.q - 1)
    a = Poly(field, draw(st.lists(digit, max_size=9)))
    b = draw(st.lists(digit, max_size=5)) + [draw(st.integers(1, field.q - 1))]
    return a, Poly(field, b)


@given(dividend_divisor())
def test_divmod_roundtrip_property(pair):
    a, b = pair
    quo, rem = divmod(a, b)
    assert quo * b + rem == a
    assert rem.degree < b.degree
    assert a // b == quo and a % b == rem


def test_gcd():
    f = Poly(G5, (2, 0, 1))
    assert gcd(f, x_pow_q_minus_x(G5)).degree == 0
    assert gcd(Poly(G5, (4, 0, 1)), Poly(G5, (4, 1))) == Poly(G5, (4, 1))
    g = Poly(G5, (2, 4))
    assert gcd(g, Poly.zero(G5)) == g.monic()
    with pytest.raises(ValueError):
        gcd(Poly.zero(G5), Poly.zero(G5))


def test_mod_inverse():
    # modulo an irreducible quadratic, GF(q)[x]/(p) is GF(q^2) and the
    # inverse dh_intersection takes is b^(q^2-2)
    mod = Poly(G5, (2, 0, 1))  # x^2 + 2
    assert pow_mod(Poly.x(G5), 23, mod) == Poly(G5, (0, 2))  # x * 2x = 2x^2 = -4 = 1
    assert pow_mod(Poly.one(G5), 23, mod) == Poly.one(G5)
    c = Poly(G5, (3,))
    assert pow_mod(c, 23, mod) == Poly(G5, (G5.pow(3, G5.q - 2),))
    # x - 1 divides x^2 - 1, so it has no inverse there and the power is none
    a, reducible = Poly(G5, (4, 1)), Poly(G5, (4, 0, 1))
    assert a * pow_mod(a, 23, reducible) % reducible != Poly.one(G5)


def test_mod_inverse_all_residues_mod_irreducible_quadratics():
    for q in (2, 3, 4, 5, 7, 9):
        field = field_of_order(q)
        for mod in monic_irreducibles(field, 2):
            for c1 in range(field.q):
                for c0 in range(field.q):
                    a = Poly(field, (c0, c1))
                    if not a:
                        continue
                    assert (a * pow_mod(a, q * q - 2, mod)) % mod == Poly.one(field)


def test_is_irreducible():
    assert is_irreducible(Poly(G5, (2, 0, 1)))  # disc -8 = 2, a non-square
    assert not is_irreducible(Poly(G5, (4, 0, 1)))  # root 1
    g2 = make_field(2)
    assert is_irreducible(Poly(g2, (1, 1, 0, 1)))
    with pytest.raises(ValueError):
        is_irreducible(Poly(G5, (2, 0, 2)))  # not monic
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(G5))


def test_quadratic_irreducibility_matches_discriminant():
    for q in [3, 5, 7, 9]:
        field = make_field(3, 2) if q == 9 else make_field(q)
        for b in range(q):
            for c in range(q):
                f = Poly(field, (c, b, 1))
                disc = field.sub(field.mul(b, b), field.mul(4 % field.p, c))
                assert is_irreducible(f) == (not is_square(field, disc))


def test_monic_irreducible_counts():
    assert len(monic_irreducibles(G5, 2)) == 10
    assert len(monic_irreducibles(G5, 3)) == 40
    assert [f.coeffs for f in monic_irreducibles(make_field(2), 3)] == [
        (1, 1, 0, 1),
        (1, 0, 1, 1),
    ]


def necklace_count(q, d):
    mu = {1: 1, 2: -1, 3: -1, 4: 0}
    return sum(mu[e] * q ** (d // e) for e in mu if d % e == 0) // d


def test_monic_irreducible_necklace_counts():
    for q, field in [
        (2, make_field(2)),
        (3, make_field(3)),
        (4, make_field(2, 2)),
        (5, make_field(5)),
        (7, make_field(7)),
        (9, make_field(3, 2)),
    ]:
        for d in (2, 3, 4):
            assert len(monic_irreducibles(field, d)) == necklace_count(q, d)


@pytest.mark.parametrize(
    "q, d", [(q, d) for q in (2, 3, 4, 5, 7, 8, 9) for d in (1, 2, 3)]
    + [(q, 4) for q in (2, 3, 4, 5)],
)
def test_monic_irreducibles_sieve_matches_irreducibility_test(q, d):
    field = field_of_order(q)
    # ascending encoding: the constant coefficient varies fastest
    monic = (
        Poly(field, low[::-1] + (1,))
        for low in itertools.product(range(q), repeat=d)
    )
    expected = [f for f in monic if is_irreducible(f)]
    assert list(monic_irreducibles(field, d)) == expected


@st.composite
def coefficient_rows(draw):
    # GF(17^2): its q*q table indices pass 2^16
    field = field_of_order(draw(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 289))))
    digit = st.integers(0, field.q - 1)
    width = draw(st.integers(1, 7))  # degree 0 to 6
    rows = draw(st.lists(st.lists(digit, min_size=width, max_size=width), max_size=5))
    if rows and draw(st.booleans()):
        rows[0] = [0] * width  # the zero polynomial
    xs = draw(st.lists(digit, max_size=2 * min(field.q, 16)))
    return field, rows, width, xs


@given(coefficient_rows())
def test_evaluate_matches_scalar_poly_calls(case):
    field, rows, width, xs = case
    got = evaluate(field, np.array(rows, dtype=np.intp).reshape(-1, width), xs)
    assert got.shape == (len(rows), len(xs))
    assert got.tolist() == [[Poly(field, row)(x) for x in xs] for row in rows]


def test_distinct_roots():
    assert distinct_roots(x_pow_q_minus_x(G5)) == set(range(5))
    assert distinct_roots(Poly(G5, (2, 0, 1))) == set()
    assert distinct_roots(Poly(G5, (4, 1))) == {1}
    f = Poly(G5, (4, 1)) * Poly(G5, (4, 1)) * Poly(G5, (3, 1))  # (x-1)^2 (x-2)
    assert distinct_roots(f) == {1, 2}
    assert len(distinct_roots(f)) < f.degree  # not split into distinct factors
    with pytest.raises(ValueError):
        distinct_roots(Poly.zero(G5))


def test_pow_mod():
    mod = Poly(G5, (2, 0, 1))
    assert pow_mod(Poly.x(G5), 25, mod) == Poly.x(G5) % mod  # x^(q^2) = x


def test_poly_validation():
    with pytest.raises(ValueError):
        Poly(G5, (5,))
    with pytest.raises(ValueError):
        Poly(G5, (1,)) + Poly(make_field(7), (1,))
    assert list(itertools.chain.from_iterable([Poly(G5, (0, 0)).coeffs])) == []
