"""Constructed families: counts, validity, unsolvability."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from listsep.assignments import SeparationParams, is_valid_assignment
from listsep.constructions import build_book, build_gadget35, build_gadget_single
from listsep.graph import complete_bipartite_graph
from listsep.solver import SAT, UNSAT, solve
from listsep.assignments import ListAssignment


def test_book_2_3_is_k24():
    inst = build_book(2, 3)
    assert inst.graph == complete_bipartite_graph(2, 4)
    assert inst.lists.colors(0) == (0, 1)
    assert inst.lists.colors(1) == (2, 3)
    assert sorted(inst.lists.colors(v) for v in range(2, 6)) == [
        (0, 2), (0, 3), (1, 2), (1, 3)
    ]
    assert inst.lists.colors(2) == (0, 2)    # pages in transversal order
    assert is_valid_assignment(inst.graph, inst.lists, inst.params)


def test_book_counts_and_density():
    for k, t in [(2, 3), (2, 4), (3, 5), (3, 6), (4, 7)]:
        inst = build_book(k, t)
        pages = (t - k + 1) ** k
        assert inst.graph.n == k + pages
        assert inst.graph.m == k * pages
        assert inst.graph.average_degree() == Fraction(2 * k * pages, k + pages)
        assert is_valid_assignment(inst.graph, inst.lists, inst.params)
    assert build_book(2, 4).graph.average_degree() == Fraction(36, 11)


def test_book_is_bipartite_by_construction():
    inst = build_book(3, 5)
    g = inst.graph
    for u in range(3):
        for v in range(u + 1, 3):
            assert not g.has_edge(u, v)
    for u in range(3, g.n):
        for v in range(u + 1, g.n):
            assert not g.has_edge(u, v)


def test_book_density_approaches_2k_from_below():
    for k in (2, 3):
        for t in range(2 * k - 1, 2 * k + 6):
            assert build_book(k, t).graph.average_degree() < 2 * k


def test_book_small_t_padding():
    inst = build_book(3, 3)
    # list sizes below k are repaired by building at separation 2k-1
    assert inst.params == SeparationParams(3, 3)
    assert inst.note == "built at t'=5"
    assert inst.graph.n == 3 + 27
    assert is_valid_assignment(inst.graph, inst.lists, inst.params)
    assert build_book(2, 3).note == ""


def test_book_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_book(1, 5)
    with pytest.raises(ValueError):
        build_book(3, 2)
    # 10 + 21^10 vertices: refused before any page is built
    with pytest.raises(ValueError, match="more than 100000 vertices"):
        build_book(10, 30)


def test_book_small_instances_unsolvable():
    for k, t in [(2, 3), (2, 4), (3, 3)]:
        inst = build_book(k, t)
        assert solve(inst.graph, inst.lists).verdict == UNSAT


def test_gadget35_shape():
    inst = build_gadget35()
    assert inst.graph.n == 47
    assert inst.graph.m == 126
    assert inst.params == SeparationParams(3, 5)
    assert is_valid_assignment(inst.graph, inst.lists, inst.params)
    assert inst.lists.colors(0) == (0, 1, 2)      # endpoint lists A and B
    assert inst.lists.colors(1) == (3, 4, 5)
    assert inst.lists.colors(2) == (0, 3, 6, 9)   # ring vertex 2, a=0, b=3
    # each copy respects the planar edge bound: 14 <= 3*7 - 6
    assert 14 <= 3 * 7 - 6



def face_count(g, rotation) -> int:
    """Faces of the embedding given by `rotation`, each vertex's neighbors in
    counterclockwise order: the orbits of the darts (u, v) under
    (u, v) -> (v, w), where w follows u in v's rotation."""
    nxt = {}
    for v, ring in enumerate(rotation):
        assert sorted(ring) == list(g.neighbors(v))
        for i, u in enumerate(ring):
            nxt[u, v] = (v, ring[(i + 1) % len(ring)])
    faces, seen = 0, set()
    for dart in nxt:
        if dart not in seen:
            faces += 1
            while dart not in seen:
                seen.add(dart)
                dart = nxt[dart]
    return faces


def is_connected(g) -> bool:
    reached = {0}
    stack = [0]
    while stack:
        for u in g.neighbors(stack.pop()):
            if u not in reached:
                reached.add(u)
                stack.append(u)
    return len(reached) == g.n


def gadget_rotation(g, copies: int) -> list[list[int]]:
    """The rotation of a drawing with endpoint 0 above, endpoint 1 below and
    the copies side by side between them; in each copy ring vertex 2 is
    west, 3 north, 4 east, 5 south, and the hub is in the centre."""
    middle = 3 * (copies - 1) / 2
    at = [(middle, 100), (middle, -100)]
    for j in range(copies):
        at += [(3 * j - 1, 0), (3 * j, 1), (3 * j + 1, 0), (3 * j, -1), (3 * j, 0)]

    def angle(v, u):
        return math.atan2(at[u][1] - at[v][1], at[u][0] - at[v][0])

    return [sorted(g.neighbors(v), key=lambda u: angle(v, u)) for v in range(g.n)]


def test_gadgets_are_planar():
    # A connected graph with a rotation system of V - E + F = 2 faces is
    # embedded in the plane: 8 faces inside each copy, and one between or
    # around each of the nine copies.
    for inst, copies, faces in [(build_gadget35(), 9, 81),
                                (build_gadget_single(0, 1, (2, 3, 4, 5)), 1, 9)]:
        g = inst.graph
        rotation = gadget_rotation(g, copies)
        assert is_connected(g)
        assert face_count(g, rotation) == faces
        assert g.n - g.m + faces == 2
        hub = rotation[6]
        hub[0], hub[1] = hub[1], hub[0]    # no longer a plane embedding
        assert g.n - g.m + face_count(g, rotation) != 2

def test_gadget_single_blocks_and_relaxes():
    inst = build_gadget_single(0, 1, (2, 3, 4, 5))
    assert inst.graph.n == 7 and inst.graph.m == 14
    assert solve(inst.graph, inst.lists).verdict == UNSAT
    # a fifth hub color frees the instance
    relaxed_sets = [inst.lists.colors(v) for v in range(len(inst.lists))]
    relaxed_sets[6] = (2, 3, 4, 5, 6)
    relaxed = ListAssignment.from_sets(relaxed_sets)
    assert solve(inst.graph, relaxed).verdict == SAT
    with pytest.raises(ValueError):
        build_gadget_single(0, 0, (2, 3, 4, 5))
