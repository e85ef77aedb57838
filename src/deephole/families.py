"""The explicit deep-hole families and their coset identities.

Each construction returns a DeepHoleFamily holding the set of raw coset ids
(packed syndromes) plus a few representative words.  The degree-k, quadratic
and cubic families are GF(q)-spans of two or three syndromes, so their coset
ids come from one Code.span_ids call, in the order of the coefficient tuples,
and only the sample words are built as words.  Every emitted coset is verified
to sit at distance equal to the covering radius by exact computation; the
structural hypotheses behind a construction (covering radius q-k, expected
coset counts) are machine-checked and raise TheoremAssertionError when they
fail at the tested size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from deephole import numbertheory
from deephole.codes import Code, rs
from deephole.errors import TheoremAssertionError
from deephole.gf import GF
from deephole.poly import Poly, RationalFunction, is_irreducible, mod_inverse

TAGS = ("degree_k", "inverse_monomial", "zero_sum_free", "quadratic", "cubic")


@dataclass(frozen=True)
class DeepHoleFamily:
    tag: str
    params: dict
    cosets: frozenset[int]
    words: tuple[tuple[int, ...], ...]
    code: Code

    def describe(self, sample_words: int = 3) -> dict:
        return {
            "tag": self.tag,
            "params": self.params,
            "coset_count": len(self.cosets),
            "sample_words": [list(w) for w in self.words[:sample_words]],
        }

    def projective_cosets(self) -> frozenset[int]:
        code = self.code
        return frozenset(
            code.pack_syndrome(code.normalize_syndrome(code.unpack_syndrome(c)))
            for c in self.cosets
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


def _verify_deep(code: Code, cosets, rho: int, what: str):
    weights = code.coset_leader_weights()
    bad = [c for c in cosets if int(weights[c]) != rho]
    if bad:
        raise TheoremAssertionError(
            f"{what}: {len(bad)} cosets not at distance {rho} (e.g. {bad[0]})"
        )


def _span_words(field: GF, basis, indices) -> tuple[tuple[int, ...], ...]:
    """The words sum c_j*basis_j at the given Code.span_ids indices."""
    q = field.q
    out = []
    for i in indices:
        w = (0,) * len(basis[0])
        for j, b in enumerate(basis):
            c = i // q**j % q
            w = tuple(field.add(x, field.mul(c, y)) for x, y in zip(w, b))
        out.append(w)
    return tuple(out)


def degree_k_family(code: Code) -> DeepHoleFamily:
    """Cosets of the words (u_f, v) with deg f = k, one per (leading
    coefficient, extension coordinate) pair."""
    _check_prs_k_range(code)
    rho = _require_max_distance(code)
    field = code.field
    q, k = field.q, code.k
    xk = Poly.monomial(field, k)
    # (a*u_{x^k}, v) has index a + q*v in the span of the syndromes of
    # (u_{x^k}, 0) and of (0, ..., 0, 1), the last parity-check column
    ids = code.span_ids((code.syndrome(code.word(xk)), code.h_columns()[-1]))
    cosets = frozenset(ids.reshape(q, q)[:, 1:].ravel().tolist())
    words = tuple(code.word(xk, last=v) for v in range(3))
    if len(cosets) != q * (q - 1):
        raise TheoremAssertionError(
            f"degree-k family has {len(cosets)} cosets, expected q(q-1) = {q * (q - 1)}"
        )
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
    if delta in code.D:
        raise ValueError(f"delta = {delta} lies in the evaluation set")
    base = Poly(field, (field.neg(delta), 1))
    f = Poly.one(field)
    for _ in range(q - 2):
        f = f * base
    u = code.word(f)
    rho = code.covering_radius()
    # a*u has index a in the span of the syndrome of u
    cosets = frozenset(code.span_ids((code.syndrome(u),))[1:].tolist())
    words = _span_words(field, (u,), range(1, min(q, 4)))
    if len(cosets) != q - 1:
        raise TheoremAssertionError(
            f"inverse-monomial family has {len(cosets)} cosets, expected {q - 1}"
        )
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
    own = code.coset_id(w)
    # the words a*x^k, a != 0
    xk = code.syndrome(code.word(Poly.monomial(field, k)))
    others = set(code.span_ids((xk,))[1:].tolist())
    for delta in range(field.q):
        if delta in D:
            continue
        others |= inverse_monomial_family(code, delta).cosets
    if own in others:
        raise TheoremAssertionError(
            "zero-sum-free coset coincides with a previously known family"
        )
    return DeepHoleFamily(
        "zero_sum_free",
        {"D": list(D), "r": r, "k": k},
        frozenset({own}),
        (w,),
        code,
    )


def quadratic_family(code: Code, p: Poly) -> DeepHoleFamily:
    """DH(p): the q^2 - 1 deep-hole cosets of (a + b x)/p(x) on PRS(q+1,k)
    for a monic irreducible quadratic p."""
    _check_prs_k_range(code)
    if p.degree != 2 or not p.is_monic or not is_irreducible(p):
        raise ValueError(f"{p!r} is not a monic irreducible quadratic")
    rho = _require_max_distance(code)
    field = code.field
    q = field.q
    w1 = code.word_from_rational(RationalFunction(Poly.one(field), p))
    wx = code.word_from_rational(RationalFunction(Poly.x(field), p))
    ids = code.span_ids((code.syndrome(w1), code.syndrome(wx)))
    cosets = frozenset(ids[1:].tolist())
    # numerator a + b x has index a + q*b
    words = _span_words(field, (w1, wx), range(1, 4))
    if len(cosets) != q * q - 1:
        raise TheoremAssertionError(
            f"|DH(p)| = {len(cosets)}, expected q^2-1 = {q * q - 1}"
        )
    _verify_deep(code, cosets, rho, f"quadratic family of {p!r}")
    return DeepHoleFamily("quadratic", {"poly": list(p.coeffs)}, cosets, words, code)


def cubic_family(code: Code, p: Poly) -> DeepHoleFamily:
    """Deep-hole cosets of (a + b x + c x^2)/p(x) on PRS(q+1,q-3) for a monic
    irreducible cubic p, found by exact distance filtering of all nonzero
    numerator triples."""
    field = code.field
    q = field.q
    if code.kind != "projective" or code.k != q - 3:
        raise ValueError("cubic construction requires the PRS code with k = q-3")
    _check_prs_k_range(code)
    if p.degree != 3 or not p.is_monic or not is_irreducible(p):
        raise ValueError(f"{p!r} is not a monic irreducible cubic")
    rho = _require_max_distance(code)
    basis = [
        code.word_from_rational(RationalFunction(Poly.monomial(field, i), p))
        for i in range(3)
    ]
    ids = code.span_ids([code.syndrome(w) for w in basis])
    # numerator a + b x + c x^2 has index a + q*b + q^2*c; index 0 has weight 0
    deep = np.flatnonzero(code.coset_leader_weights()[ids] == rho)
    cosets = frozenset(ids[deep].tolist())
    expected = (q - 1) * (q * q + q + 2) // 2
    if len(cosets) != expected or len(deep) != expected:
        raise TheoremAssertionError(
            f"cubic family of {p!r} has {len(cosets)} cosets "
            f"({len(deep)} generators), expected {expected}"
        )
    words = _span_words(field, basis, deep[:3].tolist())
    return DeepHoleFamily("cubic", {"poly": list(p.coeffs)}, cosets, words, code)


def cubic_nondeep_by_splitting(code: Code, p: Poly) -> tuple[set, set]:
    """Independent route to the non-deep numerators of the cubic construction:
    residues of d * prod(x - s) mod p over all (q-2)- and (q-1)-subsets S and
    d != 0 give exactly the numerators at distance q-k-1.  Returns the two
    triple sets (as (a, b, c) tuples) from subset sizes q-2 and q-1."""
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


def is_deep_hole(code: Code, word) -> bool:
    return code.error_distance(word) == code.covering_radius()


def same_coset(code: Code, w1, w2) -> bool:
    return code.syndrome(w1) == code.syndrome(w2)


def dh_intersection(code: Code, p1: Poly, p2: Poly) -> frozenset[int]:
    """The q-1 cosets shared by DH(p1) and DH(p2) on PRS(q+1,q-2), built from
    the congruences a1 + b1 x = a (x^q - x)/p2 mod p1 and cross-checked against
    the brute-force intersection of the two families."""
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
    shared = set()
    for a in range(1, q):
        lin = base.scale(a)
        w = code.word_from_rational(RationalFunction(lin, p1))
        shared.add(code.coset_id(w))
    if len(shared) != q - 1:
        raise TheoremAssertionError(
            f"congruence sweep produced {len(shared)} cosets, expected {q - 1}"
        )
    brute = quadratic_family(code, p1).cosets & quadratic_family(code, p2).cosets
    if frozenset(shared) != brute:
        raise TheoremAssertionError(
            "congruence construction disagrees with brute-force intersection"
        )
    return frozenset(shared)
