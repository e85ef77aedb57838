import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from deephole import classify, codes, linalg
from deephole.classify import (
    Hypergraph,
    build_hypergraph,
    completeness_check,
    count_deep_cosets,
    cubic_coverage_experiment,
    deep_count_formula,
    deep_syndromes,
    hypergraph_stats,
)
from deephole.codes import prs, rs
from deephole.families import coset_array
from deephole.gf import field_of_order, make_field

G5 = make_field(5)
G7 = make_field(7)


def test_nrc_points_shape_and_independence():
    for q, r in [(5, 3), (5, 4), (7, 3), (7, 4), (8, 4), (9, 3), (9, 4), (3, 3)]:
        field = field_of_order(q)
        pts = prs(field, q + 1 - r).h_columns()
        assert len(pts) == q + 1
        assert pts[:-1] == [
            tuple(field.pow(x, t) for t in range(r)) for x in field.element_reprs()
        ]
        assert pts[-1] == (0,) * (r - 1) + (1,)
        for sub in itertools.combinations(pts, r):
            assert len(linalg.rref(field, sub)[1]) == r


def test_deep_coset_counts():
    assert count_deep_cosets(prs(G5, 3)) == 100
    assert count_deep_cosets(prs(G5, 2)) == 360
    assert count_deep_cosets(prs(G7, 5)) == 294
    assert count_deep_cosets(prs(G7, 4)) == 1344
    assert count_deep_cosets(prs(make_field(3, 2), 7)) == 648


def test_boundary_q3_k1_is_informational():
    # the span criterion applies; the count is reported without a theorem claim
    # 18 deep cosets, 2 per class
    assert len(deep_syndromes(prs(make_field(3), 1))) == 9
    assert count_deep_cosets(prs(make_field(3), 1)) == 18
    assert not classify.in_theorem_range(3, 1)


def test_deep_count_formula_values():
    assert deep_count_formula(7, 4) == 1344  # 6 * (343/2 + 49 + 7/2)
    assert deep_count_formula(9, 3) == 648
    assert deep_count_formula(5, 4) == 360
    with pytest.raises(ValueError):
        deep_count_formula(5, 5)


def test_deep_syndromes_against_exhaustive_word_distances():
    for q, k in [(5, 3), (5, 2), (7, 5)]:
        field = make_field(q)
        code = prs(field, k)
        deep = deep_syndromes(code)
        rho = code.covering_radius()
        # one word per syndrome, supported on the first r coordinates, in the
        # order of the syndromes packed base q
        r = code.redundancy
        syns = np.arange(q**r)[:, None] // q ** np.arange(r) % q
        words = np.zeros((q**r, code.n), dtype=np.intp)
        words[:, :r] = syns
        words = words[np.argsort(code.syndromes(words) @ q ** np.arange(r))]
        classes = codes.class_ids(field, syns)
        for idx, w in enumerate(words.tolist()):
            assert code.syndrome(w) == tuple(syns[idx].tolist())
            d = code.error_distance(w, method="exhaustive")
            assert (d == rho) == (classes[idx] in deep)


def test_deep_syndromes_requires_supported_redundancy():
    with pytest.raises(ValueError):
        deep_syndromes(prs(G7, 2))
    with pytest.raises(ValueError):
        deep_syndromes(rs(G5, 2))


def test_hypergraph_small():
    h = build_hypergraph(G5)
    stats = hypergraph_stats(h)
    assert stats["num_vertices"] == 25
    assert stats["num_edges"] == 10
    assert stats["degree_histogram"] == {"2": 15, "3": 10}
    assert all(stats["checks"].values())
    # handshake: total degree = |E| (q+1)
    assert sum(int(d) * c for d, c in stats["degree_histogram"].items()) == 60
    h7 = build_hypergraph(G7)
    stats7 = hypergraph_stats(h7)
    assert stats7["num_vertices"] == 49
    assert stats7["num_edges"] == 21
    assert all(stats7["checks"].values())
    with pytest.raises(ValueError):
        build_hypergraph(make_field(2, 2))


def _reference_hypergraph_stats(h):
    """hypergraph_stats by sets and loops: a degree dict, and an
    intersection for every pair of edges."""
    q = h.code.field.q
    vertices = set(h.vertices.tolist())
    edges = [set(verts.tolist()) for verts in h.edges.values()]
    degree = {v: 0 for v in vertices}
    for verts in edges:
        for v in verts:
            degree[v] += 1
    hist = {}
    for d in degree.values():
        hist[d] = hist.get(d, 0) + 1
    lo, hi = (q - 1) // 2, (q + 1) // 2
    pairwise_ok = all(len(a & b) == 1 for a, b in itertools.combinations(edges, 2))
    split_ok = all(
        sum(1 for v in verts if degree[v] == hi) == (q + 1) // 2
        and sum(1 for v in verts if degree[v] == lo) == (q + 1) // 2
        for verts in edges
    )
    checks = {
        "vertex_count_is_q_squared": len(vertices) == q * q,
        "edge_count": len(edges) == (q * q - q) // 2,
        "edges_have_q_plus_1_vertices": all(len(v) == q + 1 for v in edges),
        "pairwise_intersections_size_1": pairwise_ok,
        "degrees_in_two_classes": set(hist) <= {lo, hi},
        "edges_split_evenly": split_ok,
        "handshake": sum(degree.values()) == len(edges) * (q + 1),
    }
    return {
        "num_vertices": len(vertices),
        "num_edges": len(edges),
        "degree_histogram": {str(d): c for d, c in sorted(hist.items())},
        "checks": checks,
    }


def _drop_one_edge(h):
    first = next(iter(h.edges))
    return {p: v for p, v in h.edges.items() if p != first}


def _move_one_vertex(h):
    # the first edge trades its smallest vertex for the smallest one it misses
    first, verts = next(iter(h.edges.items()))
    outside = h.vertices[~np.isin(h.vertices, verts)][0]
    return {**h.edges, first: coset_array(np.append(verts[1:], outside))}


@pytest.mark.parametrize("q", [5, 7, 11, 13])
@pytest.mark.parametrize("edit", [None, _drop_one_edge, _move_one_vertex])
def test_hypergraph_stats_match_the_set_reference(q, edit):
    h = build_hypergraph(field_of_order(q))
    if edit is not None:
        h = dataclasses.replace(h, edges=edit(h))
    stats = hypergraph_stats(h)
    assert stats == _reference_hypergraph_stats(h)
    assert all(type(v) is bool for v in stats["checks"].values())
    json.dumps(stats)  # plain Python values only
    assert all(stats["checks"].values()) == (edit is None)


def test_hypergraph_holds_coset_arrays():
    h = build_hypergraph(G5)
    for ids in (h.vertices, *h.edges.values()):
        assert ids.dtype == np.int64 and not ids.flags.writeable
        assert (np.diff(ids) > 0).all()
    assert h == Hypergraph(h.code, h.vertices[:1], {})  # arrays stay out of ==


def test_vertex_count_multiset_identity():
    # |V| = (|E|(q+1)/2)/((q+1)/2) + (|E|(q+1)/2)/((q-1)/2) = q^2
    for q in (5, 7):
        ne = (q * q - q) // 2
        half = ne * (q + 1) // 2
        assert half // ((q + 1) // 2) + half // ((q - 1) // 2) == q * q


def test_completeness_small():
    res = completeness_check(G5)
    assert res["equal"] and res["union_size"] == 100
    res7 = completeness_check(G7)
    assert res7["equal"] and res7["union_size"] == 294
    with pytest.raises(ValueError):
        completeness_check(make_field(2, 3))


def test_cubic_coverage_q5():
    res = cubic_coverage_experiment(G5)
    assert res["total"] == 360
    assert res["num_cubics"] == 40
    assert 0 < res["covered"] <= res["total"]
    assert res["fraction"] == res["covered"] / res["total"]


def test_cubic_coverage_memory_is_bounded():
    field = make_field(11)
    cubic_coverage_experiment(field)  # field tables and irreducibles built once
    tracemalloc.start()
    try:
        cubic_coverage_experiment(field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 440 families hold arrays of class ids and their union is one mask
    # over the 1464 classes, about 2.0 MB at the peak
    assert peak < 3 * 2**20
