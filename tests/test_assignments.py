"""List assignments: validity under both regimes, proper colorings."""

from __future__ import annotations

import random

import pytest

from listsep.assignments import (
    ListAssignment,
    SeparationParams,
    is_proper_coloring,
    is_valid_assignment,
    mask_of,
)
from listsep.constructions import build_gadget35
from listsep.graph import Graph, complete_graph, induced_subgraph, path_graph

K2 = Graph(2, [(0, 1)])


def test_regime_flag():
    assert SeparationParams(3, 5).regime == "union"
    assert SeparationParams(3, 3).regime == "union"
    assert SeparationParams(3, 2).regime == "intersection"
    with pytest.raises(ValueError):
        SeparationParams(0, 1)


def test_list_assignment_basics():
    L = ListAssignment.from_sets([{1, 2, 3}, {1, 2, 3}])
    assert L == ListAssignment([0b1110, 0b1110])
    assert hash(L) == hash(ListAssignment([0b1110, 0b1110]))
    assert L != [0b1110, 0b1110]
    assert repr(L) == "ListAssignment(0:[1, 2, 3], 1:[1, 2, 3])"
    assert L.colors(0) == (1, 2, 3)
    assert L.size(1) == 3
    with pytest.raises(ValueError):
        ListAssignment.from_sets([set(), {1}])
    with pytest.raises(ValueError, match="^negative color -1$"):
        mask_of([2, -1])
    # A negative mask is no color set: colors_of(-1) would never end.
    for bad in (0, -1):
        with pytest.raises(ValueError):
            ListAssignment([bad])


def test_identical_lists_valid_at_t_equal_k():
    L = ListAssignment.from_sets([{1, 2, 3}, {1, 2, 3}])
    assert is_valid_assignment(K2, L, SeparationParams(3, 3))
    bad = is_valid_assignment(K2, L, SeparationParams(3, 4))
    assert not bad
    assert bad.edge == (0, 1)


def test_small_list_reported():
    L = ListAssignment.from_sets([{1}, {1, 2, 3}])
    res = is_valid_assignment(K2, L, SeparationParams(3, 3))
    assert not res and res.vertex == 0


def test_gadget_edge_union_exactly_five():
    inst = build_gadget35()
    # a ring vertex with a 3-list against the hub's 4-list shares two colors
    assert is_valid_assignment(inst.graph, inst.lists, SeparationParams(3, 5))
    res = is_valid_assignment(inst.graph, inst.lists, SeparationParams(3, 6))
    assert not res
    u, v = res.edge
    union = set(inst.lists.colors(u)) | set(inst.lists.colors(v))
    assert len(union) == 5


def test_validity_ignores_edge_orientation():
    La = ListAssignment.from_sets([{0, 1}, {2, 3}, {0, 2}])
    g1 = Graph(3, [(0, 1), (1, 2)])
    g2 = Graph(3, [(1, 0), (2, 1)])
    p = SeparationParams(2, 4)
    assert is_valid_assignment(g1, La, p).ok == is_valid_assignment(g2, La, p).ok


def test_union_regime_superset_preserves_validity():
    rng = random.Random(23)
    p = SeparationParams(2, 3)
    for _ in range(50):
        n = rng.randint(2, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        sets = [set(rng.sample(range(6), rng.randint(2, 4))) for _ in range(n)]
        L = ListAssignment.from_sets(sets)
        if not is_valid_assignment(g, L, p):
            continue
        v = rng.randrange(n)
        grown = [set(s) for s in sets]
        grown[v].add(rng.randrange(7))
        assert is_valid_assignment(g, ListAssignment.from_sets(grown), p)


def test_intersection_regime_removal_preserves_validity():
    rng = random.Random(29)
    p = SeparationParams(2, 1)
    for _ in range(50):
        n = rng.randint(2, 6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(n, edges)
        sets = [set(rng.sample(range(8), rng.randint(2, 4))) for _ in range(n)]
        L = ListAssignment.from_sets(sets)
        if not is_valid_assignment(g, L, p):
            continue
        big = [v for v in range(n) if len(sets[v]) > p.k]
        if not big:
            continue
        v = rng.choice(big)
        shrunk = [set(s) for s in sets]
        shrunk[v].discard(rng.choice(sorted(shrunk[v])))
        assert is_valid_assignment(g, ListAssignment.from_sets(shrunk), p)


def test_proper_coloring_checks():
    single = Graph(1)
    L = ListAssignment.from_sets([{5}])
    assert is_proper_coloring(single, L, {0: 5})
    assert not is_proper_coloring(single, L, {0: 4})

    L2 = ListAssignment.from_sets([{1, 2}, {1, 2}])
    res = is_proper_coloring(K2, L2, {0: 1, 1: 1})
    assert not res and res.edge == (0, 1)
    assert is_proper_coloring(K2, L2, {0: 1, 1: 2})
    with pytest.raises(ValueError):
        is_proper_coloring(K2, L2, {0: 1})
    with pytest.raises(ValueError, match="^assignment covers 1 vertices, graph has 2$"):
        is_proper_coloring(K2, L, {0: 5, 1: 5})


def test_induced_subgraph_ids_carry_their_lists():
    L = ListAssignment.from_sets([{0}, {1}, {2}])
    h, kept = induced_subgraph(path_graph(3), [0, 2])
    dropped = ListAssignment([L.mask(v) for v in kept])
    assert len(dropped) == h.n
    assert dropped.colors(0) == (0,)
    assert dropped.colors(1) == (2,)


def test_coloring_on_k4():
    g = complete_graph(4)
    L = ListAssignment.from_sets([{0, 1, 2, 3}] * 4)
    assert is_proper_coloring(g, L, {0: 0, 1: 1, 2: 2, 3: 3})
