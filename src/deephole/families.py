"""The explicit deep-hole families and their coset identities.

Scaling a word keeps its distance to the code, so a coset is named by its
class id (codes.class_ids), and each construction returns a DeepHoleFamily
holding the class ids of its cosets as a coset array, a sorted, unique,
read-only int64 array, each id standing for q - 1 cosets, plus a few
representative words.  Only the single coset of zero_sum_free is not closed
under scaling, and counts as 1.  No code here packs a coset into a base-q
integer; only the hypergraph report does.  A union of families is one
boolean mask over the classes (Code.class_mask), an intersection
np.intersect1d.  The degree-k, quadratic and cubic families are GF(q)-spans
of two or three syndromes, so their class ids come from Code.class_span, one
per numerator whose first nonzero coefficient is 1, and the sample words
are combinations of the basis words, by one GF.combine.

quadratic_families and cubic_families build and check many polynomials p at
once, both degrees in one path, per block of at most codes.SCAN_CHUNK span
entries.  On a PRS code the syndrome of the word of x^i/p(x) is a window of
the power sums S_t = sum over GF(q) of x^t/p(x), so one evaluation of every
p in the block over GF(q) and one inverse gather give 1/p(x), one product
gather with x^t the basis words of every p, one GF.combine with x^t the
r + d - 1 power sums that hold their syndromes, and one Code.class_span
call every span, a (P, C) array of class ids.  Every check
then runs once per block, one weight gather for the deep mask and one row
sort with a mask of adjacent duplicates for the class counts, and a failing
check names the first failing polynomial.  The sample words are the first
three deep numerators, found by one codes.class_ids call over the
numerators' coefficient vectors, and built by one more GF.combine.
quadratic_family and cubic_family then hold each checked row as a family,
and check a p given alone as a block of one.  A monic p of degree 2 or 3 is
reducible exactly when it has a root in GF(q), and the block that holds it
raises ValueError naming it.

family_table holds the families of one tag as the report's rows, a
table.Table of their tag, params, coset counts and first three sample words.

Every emitted coset is verified to sit at distance equal to the covering
radius by exact computation; the structural hypotheses behind a construction
(covering radius q-k, expected coset counts) are machine-checked and raise
TheoremAssertionError when they fail at the tested size.  Input outside a
construction's range, such as a reducible polynomial, raises ValueError.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from deephole import codes, numbertheory
from deephole.codes import Code, rs
from deephole.errors import TheoremAssertionError
from deephole.gf import GF
from deephole.poly import Poly, evaluate, is_irreducible, pow_mod
from deephole.table import Table

TAGS = ("degree_k", "inverse_monomial", "zero_sum_free", "quadratic", "cubic")


def coset_array(ids) -> np.ndarray:
    """ids as a coset set: a sorted, unique, read-only int64 array, by a sort
    and a mask of adjacent duplicates (np.unique hashes, several times
    slower on these sizes)."""
    out = np.sort(np.asarray(ids, dtype=np.int64), axis=None)
    out = out[_firsts(out)]
    out.flags.writeable = False
    return out


def _firsts(ids: np.ndarray) -> np.ndarray:
    """Mask of the entries of rows sorted along the last axis that differ
    from the entry before them."""
    keep = np.ones(ids.shape, dtype=bool)
    np.not_equal(ids[..., 1:], ids[..., :-1], out=keep[..., 1:])
    return keep


@dataclasses.dataclass(frozen=True)
class DeepHoleFamily:
    tag: str
    params: dict
    # a coset array of class ids; left out of ==, which it would make
    # ambiguous, and fixed by the tag, params and code that are compared
    cosets: np.ndarray = dataclasses.field(compare=False)
    words: tuple[tuple[int, ...], ...]
    code: Code
    # whether each class id stands for its q - 1 cosets; only the single
    # coset of zero_sum_free does not
    scale_closed: bool = True

    @property
    def coset_count(self) -> int:
        return len(self.cosets) * (self.code.field.q - 1 if self.scale_closed else 1)


def family_table(fams) -> Table:
    """The report rows of families of one tag: the tag, the params, the coset
    count and the first three sample words of each; params or words of
    different shapes raise ValueError."""
    if not fams:
        return Table({})
    return Table(
        {
            "tag": fams[0].tag,
            "params": {name: np.array([f.params[name] for f in fams]) for name in fams[0].params},
            "coset_count": np.array([f.coset_count for f in fams]),
            "sample_words": np.array([f.words[:3] for f in fams]),
        }
    )


def _check_prs_k_range(code: Code):
    q, k = code.field.q, code.k
    if code.kind != "projective":
        raise ValueError("construction applies to projective codes")
    ok = (2 <= k <= q - 2) if q % 2 else (3 <= k <= q - 3)
    if not ok:
        raise ValueError(f"k = {k} outside the admissible range for q = {q}")


def _require_max_distance(code: Code) -> int:
    """Check the hypothesis rho = q - k at this size; return the radius."""
    rho = code.covering_radius()
    expected = code.field.q - code.k
    if rho != expected:
        raise TheoremAssertionError(
            f"covering radius of {code!r} is {rho}, not q-k = {expected}"
        )
    return rho


def _verify_deep(code: Code, cosets: np.ndarray, rho: int, what: str):
    """Check that every class of a coset array sits at the covering radius."""
    bad = cosets[code.coset_leader_weights()[cosets] != rho]
    if len(bad):
        raise TheoremAssertionError(
            f"{what}: {len(bad)} classes not at distance {rho} (e.g. class {bad[0]})"
        )


def _sample_words(field: GF, basis, coeffs) -> list[tuple[tuple[int, ...], ...]]:
    """The words sum c_j*basis_j for the given coefficient vectors
    (c_0, c_1, ...): for a (P, d, n) block of bases and (m, d) or (P, m, d)
    vectors, P tuples of m words, by one GF.combine."""
    words = field.combine(coeffs, np.asarray(basis)[:, None])  # (P, m, n)
    return [tuple(map(tuple, row)) for row in words.tolist()]


def _first_deep_numerators(deep: np.ndarray, numerators, classes) -> np.ndarray:
    """The first three of the (N, d) numerator coefficient vectors, in
    order, whose classes are deep in each row of a (P, C) mask in
    Code.class_span order, as a (P, 3, d) array; classes holds the class id
    of each numerator."""
    # take, not fancy indexing, so that hits is C-contiguous and each argmax
    # stops at the first true entry of its row
    hits = deep.take(classes, axis=1)
    first = np.empty((len(deep), 3), dtype=np.intp)
    rows = np.arange(len(deep))
    for j in range(3):
        first[:, j] = hits.argmax(axis=1)
        hits[rows, first[:, j]] = False
    return numerators[first]


def _monic(polys, d: int, what: str) -> list[Poly]:
    """polys as a list, each checked to be monic of degree d."""
    polys = list(polys)
    for p in polys:
        if p.degree != d or not p.is_monic:
            raise ValueError(f"{p!r} is not a monic {what}")
    return polys


def _rational_spans(code: Code, polys, d: int):
    """(chunk, basis, ids) per block of polynomials whose spans hold at most
    codes.SCAN_CHUNK entries, in order: basis is the (P, d, n) array of the
    words of x^i/p(x), i < d, of the P polynomials of the chunk, and ids
    their (P, C) Code.class_span.  The rows of H are x^t on D and a word's
    extension coordinate is 0, so the syndrome of x^i/p(x) is (S_i, ...,
    S_(i+r-1)), with S_t the sum of x^t/p(x) over GF(q).  A block takes one
    poly.evaluate of its p over D, one inverse gather, the basis words by
    one product gather and the r + d - 1 sums by one GF.combine of the
    inverses with the powers x^t.  A p with a root in GF(q) raises
    ValueError naming it."""
    field = code.field
    q, r = field.q, code.redundancy
    xs = np.asarray(code.D)
    powers = field.powers(xs, r + d - 1)  # 0^0 = 1 as in H
    # window i of the sums is the syndrome of x^i/p(x)
    windows = np.arange(d)[:, None] + np.arange(r)
    block = max(1, codes.SCAN_CHUNK // ((q**d - 1) // (q - 1) * r))
    for start in range(0, len(polys), block):
        chunk = polys[start : start + block]
        den = evaluate(field, [p.coeffs for p in chunk], xs)
        poles = np.flatnonzero((den == 0).any(axis=1))
        if len(poles):
            raise ValueError(f"denominator {chunk[poles[0]]!r} has a root in {field!r}")
        inverses = field.inv_table[den]
        sums = field.combine(inverses, powers.T)  # (P, r + d - 1)
        basis = np.zeros((len(chunk), d, code.n), dtype=inverses.dtype)
        basis[..., :-1] = field.mul_table[powers[:d], inverses[:, None]]
        yield chunk, basis, code.class_span(sums[:, windows])


def _coset_rows(ids: np.ndarray, count: int, what: str, items) -> np.ndarray:
    """The (P, count) read-only coset rows of a (P, C) array of class ids,
    -1 marking an entry left out, by one in-place row sort and a mask of
    adjacent duplicates; a row i with another number of classes raises
    TheoremAssertionError naming it what.format(items[i])."""
    ids.sort(axis=1)
    keep = _firsts(ids)
    keep &= ids >= 0
    counts = np.count_nonzero(keep, axis=1)
    failing = np.flatnonzero(counts != count)
    if len(failing):
        i = failing[0]
        raise TheoremAssertionError(
            f"{what.format(items[i])} has {counts[i]} classes, expected {count}"
        )
    rows = ids[keep].reshape(len(ids), count)
    rows.flags.writeable = False
    return rows


def degree_k_family(code: Code) -> DeepHoleFamily:
    """Cosets of the words (u_f, v) with deg f = k, one per (leading
    coefficient, extension coordinate) pair."""
    _check_prs_k_range(code)
    rho = _require_max_distance(code)
    field = code.field
    q, k = field.q, code.k
    xk = Poly.monomial(field, k)
    # (a*u_{x^k}, v), a != 0, is a times (u_{x^k}, v/a), whose q classes are
    # box 0 of the span of the syndrome of (u_{x^k}, 0) and of (0, ..., 0, 1),
    # the last parity-check column
    span = code.class_span((code.syndrome(code.word(xk)), code.h_columns()[-1]))
    cosets = coset_array(span[:q])
    words = tuple(code.word(xk, last=v) for v in range(3))
    if len(cosets) != q:
        raise TheoremAssertionError(f"degree-k family: {len(cosets)} classes, not q")
    _verify_deep(code, cosets, rho, "degree-k family")
    return DeepHoleFamily("degree_k", {"k": k}, cosets, words, code)


def inverse_monomial_family(code: Code, delta: int) -> DeepHoleFamily:
    """Cosets of a*(x - delta)^(q-2) on an affine code with delta outside D."""
    if code.kind != "affine":
        raise ValueError("inverse-monomial deep holes live in affine codes")
    field = code.field
    q = field.q
    if len(code.D) >= q:
        raise ValueError("evaluation set must be a proper subset of the field")
    if not 0 <= delta < q:
        raise ValueError(f"delta = {delta} is not an element of {field!r}")
    if delta in code.D:
        raise ValueError(f"delta = {delta} lies in the evaluation set")
    base = Poly(field, (field.neg(delta), 1))
    f = Poly.one(field)
    for _ in range(q - 2):
        f = f * base
    u = code.word(f)
    rho = code.covering_radius()
    # the words a*u, a != 0, are one class
    cosets = coset_array(code.class_span((code.syndrome(u),)))
    [words] = _sample_words(field, [[u]], np.arange(1, min(q, 4))[:, None])
    _verify_deep(code, cosets, rho, "inverse-monomial family")
    return DeepHoleFamily("inverse_monomial", {"delta": delta}, cosets, words, code)


def zero_sum_free_family(field: GF, D, r: int) -> DeepHoleFamily:
    """The deep-hole coset of x^(k+1) - (sum D) x^k on RS(D, k = |D|-r-1),
    valid when D is r-zero-sum-free; checked to differ from the degree-k and
    inverse-monomial cosets."""
    D = tuple(D)
    if not numbertheory.is_zero_sum_free(field, D, r):
        raise ValueError(f"D = {D} is not {r}-zero-sum-free in {field!r}")
    k = len(D) - r - 1
    if k < 1:
        raise ValueError(f"|D| - r - 1 = {k} must be >= 1")
    code = rs(field, k, D=D)
    total = 0
    for s in D:
        total = field.add(total, s)
    f = Poly.monomial(field, k + 1) + Poly.monomial(field, k, field.neg(total))
    w = code.word(f)
    dist = code.error_distance(w)
    if dist != code.n - k:
        raise TheoremAssertionError(
            f"zero-sum-free word has distance {dist}, expected n-k = {code.n - k}"
        )
    own = codes.class_ids(field, code.syndromes(w))
    # the class of the words a*x^k, a != 0
    xk = code.syndrome(code.word(Poly.monomial(field, k)))
    others = [code.class_span((xk,))] + [
        inverse_monomial_family(code, delta).cosets
        for delta in range(field.q)
        if delta not in D
    ]
    if np.isin(own, np.concatenate(others)):
        raise TheoremAssertionError(
            "zero-sum-free coset coincides with a previously known family"
        )
    return DeepHoleFamily(
        "zero_sum_free",
        {"D": list(D), "r": r, "k": k},
        coset_array([own]),
        (w,),
        code,
        scale_closed=False,
    )


def _rational_rows(code: Code, polys, d: int):
    """(p, (cosets, words)) for each p of polys, in order: the deep classes
    of the numerators of degree < d over p(x), for d = 2 (quadratic) or 3
    (cubic), checked per block of _rational_spans in array passes: one
    weight gather for the deep mask and one row sort for the class count,
    q + 1 for d = 2 and (q^2 + q + 2)/2 for d = 3, naming the first failing
    polynomial.  The sample words are the first three deep numerators in the
    order of their coefficients' index a + q*b + q^2*c, so the numerators 1,
    2 and 3 for d = 2.  A reducible p raises ValueError naming it.  An empty
    polys checks no radius."""
    field = code.field
    q = field.q
    what = {2: "quadratic", 3: "cubic"}[d]
    if d == 3 and (code.kind != "projective" or code.k != q - 3):
        raise ValueError("cubic construction requires the PRS code with k = q-3")
    _check_prs_k_range(code)
    polys = _monic(polys, d, what)
    if not polys:
        return
    rho = _require_max_distance(code)
    expected = {2: q + 1, 3: (q * q + q + 2) // 2}[d]  # classes, of q - 1 cosets each
    weights = code.coset_leader_weights()
    # the nonzero numerators a + b x + ... as coefficient vectors, in the
    # order of their index a + q*b + ..., and their classes
    numerators = np.indices((q,) * d).reshape(d, -1)[::-1].T[1:]
    classes = codes.class_ids(field, numerators)
    for chunk, basis, ids in _rational_spans(code, polys, d):
        deep = weights[ids] == rho
        ids[~deep] = -1
        cosets = _coset_rows(ids, expected, what + " family of {!r}", chunk)
        words = _sample_words(field, basis, _first_deep_numerators(deep, numerators, classes))
        yield from zip(chunk, zip(cosets, words))


def quadratic_families(code: Code, polys) -> list[DeepHoleFamily]:
    """[quadratic_family(code, p, row) for each p of polys], the rows checked
    in blocks by _rational_rows; one call per polynomial, which
    perfbench/spans.py counts as one construction."""
    return [quadratic_family(code, p, row) for p, row in _rational_rows(code, polys, 2)]


def quadratic_family(code: Code, p: Poly, row=None) -> DeepHoleFamily:
    """DH(p): the q^2 - 1 deep-hole cosets of (a + b x)/p(x) on PRS(q+1,k)
    for a monic irreducible quadratic p, q + 1 classes.  row is p's
    (cosets, words) pair checked by quadratic_families, or None to check p
    as a block of one."""
    if row is None:
        [(_, row)] = _rational_rows(code, [p], 2)
    cosets, words = row
    return DeepHoleFamily("quadratic", {"poly": list(p.coeffs)}, cosets, words, code)


def cubic_families(code: Code, polys) -> list[DeepHoleFamily]:
    """[cubic_family(code, p, row) for each p of polys], the rows checked in
    blocks by _rational_rows; one call per polynomial, which
    perfbench/spans.py counts as one construction."""
    return [cubic_family(code, p, row) for p, row in _rational_rows(code, polys, 3)]


def cubic_family(code: Code, p: Poly, row=None) -> DeepHoleFamily:
    """The deep-hole cosets of (a + b x + c x^2)/p(x) on PRS(q+1,q-3) for a
    monic irreducible cubic p.  row is p's (cosets, words) pair checked by
    cubic_families, or None to check p as a block of one."""
    if row is None:
        [(_, row)] = _rational_rows(code, [p], 3)
    cosets, words = row
    return DeepHoleFamily("cubic", {"poly": list(p.coeffs)}, cosets, words, code)


def cubic_nondeep_by_splitting(code: Code, p: Poly) -> tuple[set, set]:
    """Independent route to the non-deep numerators of the cubic construction:
    residues of d * prod(x - s) mod p over all (q-2)- and (q-1)-subsets S and
    d != 0 give exactly the numerators at distance q-k-1.  Returns the two
    triple sets (as (a, b, c) tuples) from subset sizes q-2 and q-1.  The
    tests check cubic_family against it; no command runs it."""
    field = code.field
    q = field.q
    if code.kind != "projective" or code.k != q - 3:
        raise ValueError("splitting route requires the PRS code with k = q-3")
    if p.degree != 3 or not p.is_monic or not is_irreducible(p):
        raise ValueError(f"{p!r} is not a monic irreducible cubic")
    full = Poly(field, (0,) * q + (1,)) - Poly.x(field)  # x^q - x
    sets = []
    for drop in (2, 1):
        triples = set()
        for removed in itertools.combinations(range(q), drop):
            prod = full
            for s in removed:
                prod = prod // Poly(field, (field.neg(s), 1))
            base = prod % p
            for d in range(1, q):
                t = base.scale(d).coeffs
                triples.add(tuple(t) + (0,) * (3 - len(t)))
        sets.append(triples)
    return sets[0], sets[1]


def dh_intersection(code: Code, p1: Poly, p2: Poly) -> np.ndarray:
    """The class of the q-1 cosets shared by DH(p1) and DH(p2) on
    PRS(q+1,q-2), built from the congruences a1 + b1 x = a (x^q - x)/p2 mod
    p1 and cross-checked against the brute-force intersection of the two
    families; a second route that the tests run and no command does.  Its
    one word is evaluated point by point, so the route does not share the
    power-sum kernel that quadratic_families runs on."""
    field = code.field
    q = field.q
    if q % 2 == 0 or code.kind != "projective" or code.k != q - 2:
        raise ValueError("intersection construction requires odd q and k = q-2")
    for p in (p1, p2):
        if p.degree != 2 or not p.is_monic or not is_irreducible(p):
            raise ValueError(f"{p!r} is not a monic irreducible quadratic")
    if p1 == p2:
        raise ValueError("the two quadratics must differ")
    xq_x = Poly(field, (0,) * q + (1,)) - Poly.x(field)
    # GF(q)[x]/(p1) is the field GF(q^2), so 1/b = b^(q^2-2)
    base = (xq_x % p1) * pow_mod(p2 % p1, q * q - 2, p1) % p1
    # the words of a*base/p1, a != 0, are one class
    w = [field.div(base(x), p1(x)) for x in code.D] + [0]
    shared = coset_array(code.class_span((code.syndrome(w),)))
    dh1, dh2 = quadratic_families(code, (p1, p2))
    if not np.array_equal(shared, np.intersect1d(dh1.cosets, dh2.cosets)):
        raise TheoremAssertionError(
            "congruence construction disagrees with brute-force intersection"
        )
    return shared
