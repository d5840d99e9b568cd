"""Graph core: construction invariants, queries, deletions, density."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from listsep.graph import (
    MAX_VERTICES,
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    path_graph,
    petersen_graph,
)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def test_construction_rejects_bad_edges():
    def error(n, edges):
        with pytest.raises(ValueError) as err:
            Graph(n, edges)
        return str(err.value)

    assert error(3, [(0, 0)]) == "self-loop at vertex 0"
    assert error(3, [(0, 1), (1, 0)]) == "duplicate edge (1,0)"
    assert error(3, [(0, 3)]) == "edge (0,3) out of range for n=3"
    assert error(3, [(-1, 2)]) == "edge (-1,2) out of range for n=3"
    assert error(-1, []) == "vertex count must be nonnegative"
    # With two faults, the first in input order is named.
    assert error(3, [(1, 2), (2, 1), (0, 3)]) == "duplicate edge (2,1)"
    assert error(3, [(0, 3), (1, 2), (2, 1)]) == "edge (0,3) out of range for n=3"
    assert error(3, [(0, 1), (0, 1), (2, 2)]) == "duplicate edge (0,1)"
    assert error(3, [(2, 2), (0, 1), (0, 1)]) == "self-loop at vertex 2"
    assert Graph(MAX_VERTICES).n == MAX_VERTICES
    with pytest.raises(ValueError, match="exceed the limit of 100000"):
        Graph(MAX_VERTICES + 1)


def reference_adjacency(n: int, edges) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Sorted neighbor tuples and edge count, built with a set per vertex."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(a)) for a in adj), sum(map(len, adj)) // 2


def test_construction_matches_a_set_built_reference():
    rng = random.Random(2701)
    cases = [(0, []), (1, []), (5, []), (50, [(0, 9), (3, 4)])]
    for _ in range(300):
        n, p = rng.randint(1, 40), rng.choice((0.05, 0.3, 0.8))
        cases.append((n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p]))
    # 2,000-leaf stars with the hub as the first and as the last vertex
    cases += [(2001, [(0, v) for v in range(1, 2001)]),
              (2001, [(v, 2000) for v in range(2000)])]
    for n, edges in cases:
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
        rng.shuffle(pairs)
        g = Graph(n, iter(pairs))
        assert (g.n, g.adjacency, g.m) == (n, *reference_adjacency(n, edges))


def test_degree_examples():
    k5 = complete_graph(5)
    assert all(k5.degree(v) == 4 for v in range(5))
    assert Graph(1).degree(0) == 0
    with pytest.raises(ValueError):
        k5.degree(5)


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(11)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 9))
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
        assert g.adjacency == tuple(g.neighbors(v) for v in range(g.n))


def test_common_neighbors():
    assert complete_graph(3).common_neighbor_count(0, 1) == 1
    assert cycle_graph(5).common_neighbor_count(0, 1) == 0
    assert complete_graph(4).common_neighbor_count(2, 3) == 2
    with pytest.raises(ValueError):
        complete_graph(3).common_neighbor_count(1, 1)


def test_queries_match_edge_list():
    rng = random.Random(23)
    graphs = [complete_graph(n) for n in (2, 5, 9)]
    graphs += [
        random_graph(rng, rng.randint(2, 12), p)
        for p in (0.1, 0.5, 0.9)
        for _ in range(10)
    ]
    for g in graphs:
        edges = set(g.edges())

        def adjacent(a: int, b: int) -> bool:
            return (min(a, b), max(a, b)) in edges

        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == adjacent(u, v)
                if u != v:
                    common = sum(
                        1 for w in range(g.n) if adjacent(u, w) and adjacent(v, w)
                    )
                    assert g.common_neighbor_count(u, v) == common


def without(g: Graph, v: int) -> tuple[Graph, tuple[int, ...]]:
    """G - v as the subgraph induced by every other vertex."""
    return induced_subgraph(g, [w for w in range(g.n) if w != v])


def test_induced_subgraph_deletes_a_vertex_stably():
    k3 = complete_graph(3)
    assert without(k3, 0) == (complete_graph(2), (1, 2))
    # path 0-1-2: removing the middle leaves 0 and 1 (old 2) isolated
    g, kept = without(path_graph(3), 1)
    assert (g.n, g.m, kept) == (2, 0, (0, 2))
    star = Graph(5, [(0, i) for i in range(1, 5)])
    g, kept = without(star, 0)
    assert (g.n, g.m, kept) == (4, 0, (1, 2, 3, 4))
    # path 0-1-2-3 less vertex 1: old 2-3 becomes 1-2
    g, kept = without(path_graph(4), 1)
    assert (g.edges(), kept) == ([(1, 2)], (0, 2, 3))


def test_delete_edge_and_readd_roundtrip():
    k3 = complete_graph(3)
    p3 = k3.delete_edge(0, 2)
    assert p3.m == 2 and p3.degree(1) == 2
    assert Graph(3, p3.edges() + [(0, 2)]) == k3
    with pytest.raises(ValueError):
        p3.delete_edge(0, 2)


def test_average_degree():
    assert cycle_graph(6).average_degree() == 2
    assert complete_graph(5).average_degree() == 4
    assert path_graph(4).average_degree() == Fraction(3, 2)
    with pytest.raises(ValueError):
        Graph(0).average_degree()


def test_average_degree_bounds():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8))
        avg = g.average_degree()
        assert 0 <= avg <= g.n - 1


def test_induced_subgraph_keeps_edges():
    g = petersen_graph()
    h, kept = induced_subgraph(g, [0, 1, 2, 5])
    assert kept == (0, 1, 2, 5)
    assert h.n == 4
    assert h.m == sum(
        1 for u, v in g.edges() if u in kept and v in kept
    )


def test_induced_subgraph_matches_filtering_every_edge():
    rng = random.Random(2702)
    for _ in range(200):
        n = rng.randint(0, 30)
        g = random_graph(rng, n, rng.random())
        vertices = [v for v in range(n) if rng.random() < 0.6]
        rng.shuffle(vertices)
        kept = tuple(sorted(vertices))
        index = {v: i for i, v in enumerate(kept)}
        edges = [(index[u], index[v]) for u, v in g.edges()
                 if u in index and v in index]
        h, got = induced_subgraph(g, vertices + vertices[:3])
        assert got == kept
        reference = reference_adjacency(len(kept), edges)
        assert (h.n, h.adjacency, h.m) == (len(kept), *reference)


def test_named_graphs():
    assert petersen_graph().m == 15
    assert all(petersen_graph().degree(v) == 3 for v in range(10))
    kb = complete_bipartite_graph(2, 4)
    assert kb.n == 6 and kb.m == 8
    assert not kb.has_edge(0, 1)
    assert kb == Graph(6, kb.edges()[::-1])
    assert hash(kb) == hash(Graph(6, kb.edges()[::-1]))
    assert kb != kb.edges()
    assert repr(kb) == "Graph(n=6, m=8)"
    with pytest.raises(ValueError, match="^cycle needs at least 3 vertices$"):
        cycle_graph(2)
