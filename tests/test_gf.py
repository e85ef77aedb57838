import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from deephole import gf
from deephole.errors import BoundExceededError
from deephole.gf import GF, field_of_order, make_field, prime_factors

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


def test_every_field_up_to_4096_is_pinned():
    # every report over GF(q) embeds its modulus, and the log tables are
    # relative to its generator
    path = Path(__file__).parent / "fixtures" / "fields.json"
    pinned = {int(q): v for q, v in json.loads(path.read_text()).items()}
    assert sorted(pinned) == [q for q in range(2, 4097) if len(prime_factors(q)) == 1]
    assert len(pinned) == 604
    for q, want in pinned.items():
        f = field_of_order(q)
        assert (list(f.modulus), f.generator()) == (want["modulus"], want["generator"]), f


def test_make_field_errors_and_idempotence():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(BoundExceededError):
        make_field(2, 21)  # 2^21 over the default bound
    assert make_field(3, 2) is make_field(3, 2)
    assert field_of_order(9) is make_field(3, 2)
    with pytest.raises(ValueError):
        field_of_order(12)


def test_an_extension_field_builds_one_uncached_base_field(monkeypatch):
    # the modulus and generator searches share one GF(3), and neither reads
    # or fills make_field's cache
    built = []
    init = GF.__init__

    def counting_init(self, p, m=1):
        built.append((p, m))
        init(self, p, m)

    monkeypatch.setattr(GF, "__init__", counting_init)
    before = gf._cached_field.cache_info()
    field = GF(3, 4)
    assert field.mul_table[field.generator(), 1] == field.generator()
    assert built == [(3, 4), (3, 1)]
    assert gf._cached_field.cache_info() == before


def test_basic_arithmetic():
    g5 = make_field(5)
    assert g5.add(2, 4) == 1
    assert g5.div(1, 3) == 2
    g4 = make_field(2, 2)
    assert g4.mul(2, 2) == 3  # t*t = t+1 mod t^2+t+1


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
    assert make_field(5).element_reprs() == (1, 2, 3, 4, 0)
    assert make_field(3).element_reprs() == (1, 2, 0)
    assert make_field(2, 2).element_reprs() == (1, 2, 3, 0)
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


@pytest.mark.parametrize(
    "call", [("discrete_log", 7), ("discrete_log", -1), ("discrete_log", 3, 9),
             ("discrete_log", 3, -2), ("is_generator", 7), ("is_generator", -3)],
)
def test_log_arguments_outside_the_field_fail(call):
    name, *args = call
    with pytest.raises(ValueError, match="is not an element of GF\\(5\\)"):
        getattr(make_field(5), name)(*args)


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
    # every field with q <= 64, and GF(13^2), the largest field the n3 sweep
    # of the benchmark builds
    orders = ORDERS_TO_32 + (37, 41, 43, 47, 49, 53, 59, 61, 64, 169)
    for f in map(field_of_order, orders):
        elems = range(f.q)
        add = [[f.add(a, b) for b in elems] for a in elems]
        mul = [[f.mul(a, b) for b in elems] for a in elems]
        assert f.add_table.tolist() == add, f
        assert f.mul_table.tolist() == mul, f
        assert f.log_table.tolist() == [0] + [f.discrete_log(a) for a in elems[1:]], f
        assert not f.log_table.flags.writeable, f


def test_log_tables_of_gf_2_16_stay_near_the_kept_lists():
    # the map b -> g*b is built in blocks of TABLE_LIMIT elements; a (q, m)
    # int64 digit array at once would add 128 bytes per element at m = 16
    f = GF(2, 16)
    f.generator()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        f._log_tables()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept - before > 64 * f.q  # the logs and exps lists
    assert peak - kept < 16 * f.q  # measured: 9 bytes per element


def test_a_log_table_builds_no_square_table():
    # the (q,) table of discrete logs, without a (q, q) uint16 array beside
    # it, 32 MiB at q = 4096
    f = GF(2, 12)
    f._log_tables()
    tracemalloc.start()
    try:
        f.log_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * f.q  # measured: 2 bytes per element


_RETAINED_BY_GF_1021_2 = """
import tracemalloc
from deephole.gf import make_field

tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
make_field(1021, 2)
print(tracemalloc.get_traced_memory()[0] - before)
"""


def test_an_extension_field_keeps_no_base_field_tables():
    # in a fresh interpreter, so that no test has built GF(1021) before; its
    # 1021 x 1021 add and mul tables alone take 4 MiB
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    rc = subprocess.run(
        [sys.executable, "-c", _RETAINED_BY_GF_1021_2],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=True,
    )
    assert int(rc.stdout) < 512 * 1024  # measured: 78 KiB
