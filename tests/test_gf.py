import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deephole.errors import BoundExceededError
from deephole.gf import FieldElement, field_of_order, make_field

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3)]


def brute_smallest_irreducible_quadratic(p):
    # independent oracle: scan monic quadratics low-degree-coefficient-first,
    # keep the first without a root
    for c0 in range(p):
        for c1 in range(p):
            if all((x * x + c1 * x + c0) % p for x in range(p)):
                return (c0, c1, 1)
    raise AssertionError


def test_make_field_examples():
    g5 = make_field(5)
    assert (g5.p, g5.m, g5.q) == (5, 1, 5)
    g4 = make_field(2, 2)
    assert g4.modulus == (1, 1, 1)  # the unique monic irreducible quadratic
    g9 = make_field(3, 2)
    assert g9.modulus == brute_smallest_irreducible_quadratic(3) == (1, 0, 1)


def test_make_field_errors_and_idempotence():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(BoundExceededError):
        make_field(2, 21)  # 2^21 over the default bound
    assert make_field(3, 2) is make_field(3, 2)
    assert field_of_order(9) is make_field(3, 2)
    with pytest.raises(ValueError):
        field_of_order(12)


def test_basic_arithmetic():
    g5 = make_field(5)
    assert g5.add(2, 4) == 1
    assert g5.div(1, 3) == 2
    g4 = make_field(2, 2)
    assert g4.mul(2, 2) == 3  # t*t = t+1 mod t^2+t+1


def test_field_element_operators():
    g5 = make_field(5)
    a, b = g5.element(2), g5.element(4)
    assert (a + b).r == 1
    assert (a - b).r == 3
    assert (a * b).r == 3
    assert (g5.one / g5.element(3)).r == 2
    assert (-a).r == 3
    assert a == 2 and a != 3
    with pytest.raises(ZeroDivisionError):
        a / g5.zero
    g7 = make_field(7)
    with pytest.raises(ValueError):
        a + g7.element(1)


def test_pow():
    g5 = make_field(5)
    assert g5.pow(3, 2) == 4
    assert g5.pow(3, 3) == g5.inv(3)  # x^(q-2) = 1/x
    assert g5.pow(0, 0) == 1
    g7 = make_field(7)
    for a in range(1, 7):
        assert g7.pow(a, 6) == 1


def test_is_square():
    g5 = make_field(5)
    squares = {g5.mul(y, y) for y in range(5)}
    assert squares == {0, 1, 4}
    assert g5.is_square(4) and not g5.is_square(2)
    g4 = make_field(2, 2)
    assert all(g4.is_square(a) for a in range(4))


def test_square_counts():
    for p, m in SMALL_FIELDS:
        f = make_field(p, m)
        n = sum(1 for a in range(f.q) if f.is_square(a))
        assert n == (f.q if p == 2 else (f.q + 1) // 2)


def test_elements_order():
    assert [e.r for e in make_field(5).elements()] == [1, 2, 3, 4, 0]
    assert [e.r for e in make_field(3).elements()] == [1, 2, 0]
    assert [e.r for e in make_field(2, 2).elements()] == [1, 2, 3, 0]
    for p, m in SMALL_FIELDS:
        f = make_field(p, m)
        order = f.element_reprs()
        assert len(order) == f.q == len(set(order))
        assert order[-1] == 0


def test_discrete_log():
    g5 = make_field(5)
    assert g5.discrete_log(4, 2) == 2
    assert g5.discrete_log(1, 2) == 0
    g7 = make_field(7)
    # oracle: powers of 3 are 3, 2, 6, ...
    assert g7.discrete_log(6, 3) == 3
    with pytest.raises(ValueError):
        g7.discrete_log(0, 3)
    with pytest.raises(ValueError):
        g7.discrete_log(5, 2)  # 2 has order 3 in GF(7)*
    for p, m in SMALL_FIELDS:
        f = make_field(p, m)
        g = f.generator()
        for a in range(1, f.q):
            assert f.pow(g, f.discrete_log(a, g)) == a


def test_field_axioms():
    rng = random.Random(7)
    for p, m in SMALL_FIELDS:
        f = make_field(p, m)
        if f.q <= 5:
            triples = [
                (a, b, c)
                for a in range(f.q)
                for b in range(f.q)
                for c in range(f.q)
            ]
        else:
            triples = [
                tuple(rng.randrange(f.q) for _ in range(3)) for _ in range(300)
            ]
        for a, b, c in triples:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, f.q):
            assert f.mul(a, f.pow(a, f.q - 2)) == 1
            assert f.mul(a, f.inv(a)) == 1
        for a in range(f.q):
            assert f.add(a, f.neg(a)) == 0
            assert f.sub(a, a) == 0


# every prime and extension field with q <= 32
ORDERS_TO_32 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)


@st.composite
def field_triples(draw):
    f = field_of_order(draw(st.sampled_from(ORDERS_TO_32)))
    a, b, c = (draw(st.integers(0, f.q - 1)) for _ in range(3))
    return f, a, b, c


@given(field_triples())
def test_field_axioms_hold_up_to_q32(triple):
    f, a, b, c = triple
    for x, y in ((a, b), (b, c), (a, c)):
        assert 0 <= f.add(x, y) < f.q and 0 <= f.mul(x, y) < f.q
    assert f.add(a, 0) == a and f.mul(a, 1) == a and f.mul(a, 0) == 0
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    assert f.add(f.sub(a, b), b) == a
    if a:
        assert f.mul(a, f.inv(a)) == 1
        assert f.mul(f.div(b, a), a) == b
    # the characteristic kills every element
    acc = 0
    for _ in range(f.p):
        acc = f.add(acc, a)
    assert acc == 0


def test_tables_match_scalar_ops():
    for p, m in [(5, 1), (3, 2), (2, 3)]:
        f = make_field(p, m)
        add_t, mul_t = f.add_table, f.mul_table
        for a in range(f.q):
            for b in range(f.q):
                assert add_t[a, b] == f.add(a, b)
                assert mul_t[a, b] == f.mul(a, b)


def test_element_encoding_range():
    g5 = make_field(5)
    with pytest.raises(ValueError):
        FieldElement(g5, 5)
    assert int(g5.element(3)) == 3
