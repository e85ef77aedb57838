"""The explicit deep-hole families and their coset identities.

Scaling a word keeps its distance to the code, so each construction returns
a DeepHoleFamily holding the class ids (Code.class_ids) of its cosets as a
coset array, a sorted, unique, read-only int64 array, each id standing for
q - 1 cosets, plus a few representative words.  Only the single coset of
zero_sum_free is not closed under scaling, and counts as 1.  A union of
families is one boolean mask over the classes (Code.class_mask), an
intersection np.intersect1d.  The degree-k, quadratic and cubic families are
GF(q)-spans of two or three syndromes, so their class ids come from
Code.class_span, one per numerator whose first nonzero coefficient is 1, and
the sample words are combinations of the basis words, by one table gather.

quadratic_families and cubic_families build many polynomials p at once: per
block of at most codes.SCAN_CHUNK span entries, one Code.rational_words call
gives the basis words x^i/p(x) of every p in the block, one Code.syndromes
call their syndromes and one Code.class_span call every span.  Each
polynomial's row then goes to quadratic_family or cubic_family, which runs
every check of a standalone call on it; a standalone call builds its row as
a block of one.  A monic p of degree 2 or 3 is reducible exactly when it
has a root in GF(q), and Code.rational_words then raises ValueError naming it.

Every emitted coset is verified to sit at distance equal to the covering
radius by exact computation; the structural hypotheses behind a construction
(covering radius q-k, expected coset counts) are machine-checked and raise
TheoremAssertionError when they fail at the tested size.  Input outside a
construction's range, such as a reducible polynomial, raises ValueError.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools

import numpy as np

from deephole import codes, numbertheory
from deephole.codes import Code, rs
from deephole.errors import TheoremAssertionError
from deephole.gf import GF
from deephole.poly import Poly, is_irreducible, mod_inverse

TAGS = ("degree_k", "inverse_monomial", "zero_sum_free", "quadratic", "cubic")


def coset_array(ids) -> np.ndarray:
    """ids as a coset set: a sorted, unique, read-only int64 array, by a sort
    and a mask of adjacent duplicates (np.unique hashes, several times
    slower on these sizes)."""
    out = np.sort(np.asarray(ids, dtype=np.int64), axis=None)
    keep = np.ones(len(out), dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    out = out[keep]
    out.flags.writeable = False
    return out


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

    def describe(self, sample_words: int = 3) -> dict:
        return {
            "tag": self.tag,
            "params": self.params,
            "coset_count": self.coset_count,
            "sample_words": [list(w) for w in self.words[:sample_words]],
        }


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
    bad = cosets[code.coset_leader_weights()[cosets] != rho]
    if len(bad):
        raise TheoremAssertionError(
            f"{what}: {len(bad)} classes not at distance {rho} (e.g. class {bad[0]})"
        )


def _sample_words(field: GF, basis, indices) -> tuple[tuple[int, ...], ...]:
    """The words sum c_j*basis_j at the given indices, (c_0, c_1, ...) packed
    base q with c_0 the least significant digit: one gather of every product
    c_j*basis_j, then a sum over j."""
    basis = np.asarray(basis)
    digits = np.asarray(indices)[:, None] // field.q ** np.arange(len(basis)) % field.q
    terms = field.mul_table[digits[..., None], basis]  # (len(indices), m, n)
    words = terms[:, 0]
    for j in range(1, len(basis)):
        words = field.add_table[words, terms[:, j]]
    return tuple(map(tuple, words.tolist()))


@functools.cache
def _numerators(q: int, d: int) -> np.ndarray:
    """The numerators of degree < d whose first nonzero coefficient is 1 as
    rows of coefficients (low degree first), in the order of Code.class_span."""
    packed = codes.class_representatives(q, d, np.arange((q**d - 1) // (q - 1)))
    rows = packed[:, None] // q ** np.arange(d) % q
    rows.flags.writeable = False  # one array for every caller
    return rows


def _rational_spans(code: Code, polys, d: int):
    """(p, (basis, ids)) for each p in polys, in order: basis is the (d, n)
    array of the words of x^i/p(x), i < d, and ids their Code.class_span.
    Built per block of polynomials whose spans hold at most codes.SCAN_CHUNK
    entries, each block by one Code.rational_words, one Code.syndromes and
    one Code.class_span call."""
    polys = list(polys)
    q = code.field.q
    monomials = [(0,) * i + (1,) for i in range(d)]
    block = max(1, codes.SCAN_CHUNK // ((q**d - 1) // (q - 1) * code.redundancy))
    for start in range(0, len(polys), block):
        chunk = polys[start : start + block]
        dens = [p.coeffs for p in chunk for _ in monomials]
        basis = code.rational_words(monomials * len(chunk), dens).reshape(-1, d, code.n)
        yield from zip(chunk, zip(basis, code.class_span(code.syndromes(basis))))


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
    words = _sample_words(field, (u,), range(1, min(q, 4)))
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
    own = code.class_ids(code.coset_id(w))
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


def quadratic_families(code: Code, polys) -> list[DeepHoleFamily]:
    """[quadratic_family(code, p) for p in polys], with the basis words and
    span ids of the polynomials built in blocks."""
    _check_prs_k_range(code)
    spans = _rational_spans(code, polys, 2)
    return [quadratic_family(code, p, span) for p, span in spans]


def quadratic_family(code: Code, p: Poly, span=None) -> DeepHoleFamily:
    """DH(p): the q^2 - 1 deep-hole cosets of (a + b x)/p(x) on PRS(q+1,k)
    for a monic irreducible quadratic p, q + 1 classes.  span is p's (basis,
    ids) pair from quadratic_families, or None to build it as a block of
    one; either way a reducible p raised ValueError when it was built."""
    _check_prs_k_range(code)
    if p.degree != 2 or not p.is_monic:
        raise ValueError(f"{p!r} is not a monic quadratic")
    rho = _require_max_distance(code)
    field = code.field
    q = field.q
    if span is None:
        [(_, span)] = _rational_spans(code, [p], 2)
    basis, ids = span
    cosets = coset_array(ids)
    # numerator a + b x has index a + q*b
    words = _sample_words(field, basis, range(1, 4))
    if len(cosets) != q + 1:
        raise TheoremAssertionError(f"DH(p) has {len(cosets)} classes, expected q+1")
    _verify_deep(code, cosets, rho, f"quadratic family of {p!r}")
    return DeepHoleFamily("quadratic", {"poly": list(p.coeffs)}, cosets, words, code)


def _check_cubic_code(code: Code):
    if code.kind != "projective" or code.k != code.field.q - 3:
        raise ValueError("cubic construction requires the PRS code with k = q-3")
    _check_prs_k_range(code)


def cubic_families(code: Code, polys) -> list[DeepHoleFamily]:
    """[cubic_family(code, p) for p in polys], with the basis words and span
    ids of the polynomials built in blocks."""
    _check_cubic_code(code)
    spans = _rational_spans(code, polys, 3)
    return [cubic_family(code, p, span) for p, span in spans]


def cubic_family(code: Code, p: Poly, span=None) -> DeepHoleFamily:
    """Deep-hole cosets of (a + b x + c x^2)/p(x) on PRS(q+1,q-3) for a monic
    irreducible cubic p, found by exact distance filtering of the nonzero
    numerators, one per class.  span is p's (basis, ids) pair from
    cubic_families, or None to build it as a block of one; either way a
    reducible p raised ValueError when it was built."""
    _check_cubic_code(code)
    if p.degree != 3 or not p.is_monic:
        raise ValueError(f"{p!r} is not a monic cubic")
    rho = _require_max_distance(code)
    field = code.field
    q = field.q
    if span is None:
        [(_, span)] = _rational_spans(code, [p], 3)
    basis, ids = span
    deep = np.flatnonzero(code.coset_leader_weights()[ids] == rho)
    cosets = coset_array(ids[deep])
    expected = (q * q + q + 2) // 2  # classes, of q - 1 cosets each
    if len(cosets) != expected:
        raise TheoremAssertionError(
            f"cubic family of {p!r} has {len(cosets)} classes, expected {expected}"
        )
    # the deep numerators a + b x + c x^2, at index a + q*b + q^2*c, are the
    # nonzero multiples of the representatives of the deep classes
    scalars = np.arange(1, q)[:, None, None]
    multiples = field.mul_table[scalars, _numerators(q, 3)[deep]] @ q ** np.arange(3)
    words = _sample_words(field, basis, np.sort(multiples, axis=None)[:3])
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
    families; a second route that the tests run and no command does."""
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
    base = (xq_x % p1) * mod_inverse(p2 % p1, p1) % p1
    # the words of a*base/p1, a != 0, are one class
    w = code.rational_words([base.coeffs], [p1.coeffs])
    shared = coset_array(code.class_span(code.syndromes(w)))
    dh1, dh2 = quadratic_families(code, (p1, p2))
    if not np.array_equal(shared, np.intersect1d(dh1.cosets, dh2.cosets)):
        raise TheoremAssertionError(
            "congruence construction disagrees with brute-force intersection"
        )
    return shared
