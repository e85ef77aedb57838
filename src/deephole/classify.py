"""Full enumeration of deep-hole cosets at redundancy 3 and 4, the
irreducible-quadratic hypergraph, and coverage experiments.

A coset of PRS(q+1,k) with covering radius rho is deep exactly when its
syndrome avoids the span of every (rho-1)-subset of the normal rational curve.
Its q+1 points (1, x, ..., x^(r-1)) and (0, ..., 0, 1) are the parity-check
columns of the code, in order, so they are read from Code.h_columns.
The primary enumeration below marks those spans with Code.class_span; the
coset-leader weight table of the code is computed independently and the two
routes are required to agree.  The experiments build the families of all
monic irreducible quadratics or cubics with families.quadratic_families or
families.cubic_families, which build the basis words, syndromes and spans of
a block of polynomials, and check all the families of the block, in array
passes.

Deepness does not change when a syndrome is scaled, so a coset is named by
its class id (codes.class_ids), coset sets are coset arrays
(families.coset_array) of class ids, each of q - 1 cosets, and every count
is q - 1 times a count of classes.  A union of families is one boolean mask
over the classes (Code.class_mask), compared with the deep set by one
masked test.  The hypergraph's vertices are the q^2 deep classes, and its
statistics are read from its (edges x vertices) 0/1 incidence matrix:
degrees are its column sums, pairwise edge intersections the entries of
E.E^T, and the even split of each edge one product with the indicator of
the high degree.  Nothing here packs a class into a base-q integer; the
hypergraph report alone does, from codes.class_representatives.
"""

from __future__ import annotations

import dataclasses
from itertools import combinations
from math import comb

import numpy as np

from deephole import families
from deephole.codes import Code, prs
from deephole.errors import TheoremAssertionError
from deephole.gf import GF
from deephole.poly import monic_irreducibles
from deephole.table import Table


def prs_covering_radius(q: int, k: int) -> int:
    """Covering radius of PRS(q+1,k): q-k, except q-k+1 at even q with
    k in {2, q-2}."""
    return q - k + 1 if q % 2 == 0 and k in (2, q - 2) else q - k


def deep_syndromes(code: Code) -> np.ndarray:
    """Coset array of the class ids of all deep-hole cosets of a PRS code
    with redundancy 3 or 4, by direct span enumeration, cross-checked
    against the coset-leader weight table."""
    if code.kind != "projective":
        raise ValueError("deep-coset enumeration is defined for PRS codes")
    q, k, r = code.field.q, code.k, code.redundancy
    if r not in (3, 4):
        raise ValueError(f"redundancy {r} unsupported; classification needs 3 or 4")
    rho = code.covering_radius()
    if rho != prs_covering_radius(q, k):
        raise TheoremAssertionError(
            f"covering radius of {code!r} is {rho}, not {prs_covering_radius(q, k)}"
        )
    subsets = np.array(list(combinations(code.h_columns(), rho - 1)))
    deep = np.flatnonzero(~code.class_mask([code.class_span(subsets)]))
    if not np.array_equal(deep, np.flatnonzero(code.coset_leader_weights() == rho)):
        raise TheoremAssertionError(
            "span enumeration and coset-leader weights disagree on the deep set"
        )
    return families.coset_array(deep)


def deep_count_formula(q: int, r: int) -> int:
    """Closed-form count of deep cosets for redundancy 3 and 4."""
    if r == 3:
        return (q - 1) * q * q
    if r == 4:
        return q**4 - (comb(q + 1, 2) * (q - 1) ** 2 + (q + 1) * (q - 1) + 1)
    raise ValueError(f"no closed form for redundancy {r}")


def in_theorem_range(q: int, k: int) -> bool:
    """Whether the counting theorems cover (q, k): k = q-2 needs odd q and
    k >= 2; k = q-3 needs k >= 2."""
    r = q + 1 - k
    if r == 3:
        return q % 2 == 1 and k >= 2
    if r == 4:
        return k >= 2
    return False


def count_deep_cosets(code: Code) -> int:
    """The number of deep cosets, q - 1 per deep class, checked against the
    closed formula whenever the counting theorems apply; outside their range
    the count is informational."""
    return _checked_count(code, deep_syndromes(code))


def _checked_count(code: Code, deep: np.ndarray) -> int:
    """q - 1 times the number of deep classes, checked as count_deep_cosets
    says."""
    q, k = code.field.q, code.k
    total = (q - 1) * len(deep)
    if in_theorem_range(q, k) and total != deep_count_formula(q, code.redundancy):
        raise TheoremAssertionError(
            f"deep-coset count {total} differs from the closed formula "
            f"{deep_count_formula(q, code.redundancy)} at (q, k) = ({q}, {k})"
        )
    return total


# -- the irreducible-quadratic hypergraph -------------------------------------


@dataclasses.dataclass(frozen=True)
class Hypergraph:
    code: Code
    # coset arrays of class ids, left out of == as in families.DeepHoleFamily
    vertices: np.ndarray = dataclasses.field(compare=False)
    # monic irreducible quadratic coefficients -> coset array of its vertices
    edges: dict = dataclasses.field(compare=False)


def build_hypergraph(field: GF) -> Hypergraph:
    """Vertices: the class ids of the deep-hole cosets of PRS(q+1,q-2); one
    edge of q+1 vertices per monic irreducible quadratic."""
    q = field.q
    if q % 2 == 0 or q < 5:
        raise ValueError("the hypergraph is defined for odd q >= 5")
    code = prs(field, q - 2)
    quads = monic_irreducibles(field, 2)
    edges = {
        p.coeffs: fam.cosets
        for p, fam in zip(quads, families.quadratic_families(code, quads))
    }
    if len(edges) != (q * q - q) // 2:
        raise TheoremAssertionError(
            f"{len(edges)} edges, expected (q^2-q)/2 = {(q * q - q) // 2}"
        )
    vertices = families.coset_array(np.concatenate(list(edges.values())))
    return Hypergraph(code, vertices, edges)


def hypergraph_stats(h: Hypergraph) -> dict:
    """Degree histogram and the structural checks: edge size q+1, pairwise
    edge intersections of size 1, vertex degrees in {(q-1)/2, (q+1)/2} with
    each edge split evenly between the two."""
    q = h.code.field.q
    edge_sets = list(h.edges.values())
    sizes = np.array([len(verts) for verts in edge_sets])
    # the (edges x vertices) 0/1 incidence matrix, by one scatter
    incidence = np.zeros((len(edge_sets), len(h.vertices)), dtype=np.int64)
    rows = np.repeat(np.arange(len(edge_sets)), sizes)
    incidence[rows, np.searchsorted(h.vertices, np.concatenate(edge_sets))] = 1
    degree = incidence.sum(axis=0)
    degrees, counts = np.unique(degree, return_counts=True)
    hist = dict(zip(degrees.tolist(), counts.tolist()))
    lo, hi = (q - 1) // 2, (q + 1) // 2
    meets = incidence @ incidence.T
    half = (q + 1) // 2
    checks = {
        "vertex_count_is_q_squared": len(h.vertices) == q * q,
        "edge_count": len(h.edges) == (q * q - q) // 2,
        "edges_have_q_plus_1_vertices": bool((sizes == q + 1).all()),
        "pairwise_intersections_size_1": bool(
            (meets[np.triu_indices(len(edge_sets), 1)] == 1).all()
        ),
        "degrees_in_two_classes": set(hist) <= {lo, hi},
        "edges_split_evenly": bool(
            (incidence @ (degree == hi) == half).all()
            and (incidence @ (degree == lo) == half).all()
        ),
        "handshake": int(degree.sum()) == len(h.edges) * (q + 1),
    }
    return {
        "num_vertices": len(h.vertices),
        "num_edges": len(h.edges),
        "degree_histogram": {str(d): c for d, c in sorted(hist.items())},
        "checks": checks,
    }


def completeness_check(field: GF) -> dict:
    """Whether the union of DH(p) over all monic irreducible quadratics equals
    the full deep-coset set of PRS(q+1,q-2) (odd q)."""
    q = field.q
    if q % 2 == 0 or q < 5:
        raise ValueError("completeness is established for odd q >= 5")
    code = prs(field, q - 2)
    deep = deep_syndromes(code)
    quads = monic_irreducibles(field, 2)
    fams = families.quadratic_families(code, quads)
    union = code.class_mask(f.cosets for f in fams)
    union_size = (q - 1) * int(union.sum())
    return {
        "q": q,
        "k": q - 2,
        "num_quadratics": len(quads),
        "union_size": union_size,
        "total_deep_cosets": (q - 1) * len(deep),
        "equal": union_size == (q - 1) * len(deep) and bool(union[deep].all()),
        "per_family": _per_family(quads, fams),
    }


def cubic_coverage_experiment(field: GF) -> dict:
    """How much of the deep-coset set of PRS(q+1,q-3) the cubic construction
    reaches when run over every monic irreducible cubic.  Reported, not
    asserted: completeness here is an open experiment.  The total is checked
    against the closed formula whenever the counting theorems apply."""
    q = field.q
    code = prs(field, q - 3)
    cubics = monic_irreducibles(field, 3)
    fams = families.cubic_families(code, cubics)  # checks k before any deep set
    deep = deep_syndromes(code)
    total = _checked_count(code, deep)
    union = code.class_mask(f.cosets for f in fams)
    if int(union[deep].sum()) != int(union.sum()):
        raise TheoremAssertionError("cubic families produced a non-deep coset")
    covered = (q - 1) * int(union.sum())
    return {
        "q": q,
        "k": q - 3,
        "num_cubics": len(cubics),
        "covered": covered,
        "total": total,
        "fraction": covered / total,
        "per_family": _per_family(cubics, fams),
    }


def _per_family(polys, fams) -> Table:
    """The (poly, cosets) rows of the families of polys, one per
    polynomial."""
    return Table(
        {
            "poly": np.array([p.coeffs for p in polys], dtype=np.int64),
            "cosets": np.array([f.coset_count for f in fams], dtype=np.int64),
        }
    )
