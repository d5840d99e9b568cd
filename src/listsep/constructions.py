"""Non-(k,t)-choosable graph families with their adversarial list assignments."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .assignments import ListAssignment, SeparationParams
from .graph import MAX_VERTICES, Graph


@dataclass(frozen=True)
class ConstructedInstance:
    graph: Graph
    lists: ListAssignment
    params: SeparationParams
    note: str = ""


def build_book(k: int, t: int) -> ConstructedInstance:
    """k independent centers with disjoint (t-k+1)-lists, plus one page vertex
    per transversal of those lists, adjacent to every center and owning
    exactly its transversal as a list.

    Every center/page union has size exactly t, the graph is bipartite with
    n = k + (t-k+1)^k and m = k*(t-k+1)^k, and no list coloring exists: the
    page indexed by the centers' colors has nothing left. For k <= t < 2k-1
    the stated list sizes would drop below k, so the t' = 2k-1 instance is
    built instead and re-tagged (its assignment is also a valid
    (k,t)-assignment); the note records the actual construction parameter.
    Raises ValueError when n would exceed MAX_VERTICES, before any page is
    built.
    """
    if k < 2:
        raise ValueError("book construction needs k >= 2")
    if t < k:
        raise ValueError("book construction needs t >= k")
    t_eff = max(t, 2 * k - 1)
    block = t_eff - k + 1
    pages = 1
    for _ in range(k):    # stops at the cap, so a huge k costs one step
        pages *= block
        if k + pages > MAX_VERTICES:
            raise ValueError(
                f"book({k},{t}) has more than {MAX_VERTICES} vertices"
            )
    center_lists = [range(i * block, (i + 1) * block) for i in range(k)]
    transversals = list(itertools.product(*center_lists))

    n = k + len(transversals)
    edges = [(c, k + j) for j in range(len(transversals)) for c in range(k)]
    graph = Graph(n, edges)

    lists = ListAssignment.from_sets([*center_lists, *transversals])
    note = f"built at t'={t_eff}" if t_eff != t else ""
    return ConstructedInstance(graph, lists, SeparationParams(k, t), note)


# One gadget copy: endpoints 0 (color a) and 1 (color b), ring 2-3-4-5 around
# hub 6. Endpoint 0 attaches to ring vertices 2,3,4; endpoint 1 to 2,4,5.
_GADGET_EDGES: tuple[tuple[int, int], ...] = (
    (0, 2), (0, 3), (0, 4),
    (1, 2), (1, 4), (1, 5),
    (2, 3), (3, 4), (4, 5), (2, 5),   # ring
    (2, 6), (3, 6), (4, 6), (5, 6),   # hub spokes
)


def _gadget_lists(a: int, b: int, cs: tuple[int, int, int, int]):
    c1, c2, c3, c4 = cs
    return (
        (a, b, c4, c1),        # ring vertex 2
        (a, c1, c2),           # ring vertex 3
        (a, b, c2, c3),        # ring vertex 4
        (b, c3, c4),           # ring vertex 5
        (c1, c2, c3, c4),      # hub
    )


def build_gadget35() -> ConstructedInstance:
    """Planar graph with a (3,5)-list assignment admitting no coloring.

    Two endpoint vertices carry disjoint 3-lists A and B; for each pair
    (a, b) in A x B one 5-vertex gadget copy (7 vertices, 14 edges with its
    endpoints) is attached, with interior lists over {a, b, c1..c4} for four
    shared extra colors. Whatever colors the endpoints take, the matching
    copy forces all of c1..c4 onto the ring around its hub, and the hub's
    list is exactly {c1..c4}. Totals: 47 vertices, 126 edges.
    """
    a_colors = (0, 1, 2)
    b_colors = (3, 4, 5)
    cs = (6, 7, 8, 9)

    sets: list[tuple[int, ...]] = [a_colors, b_colors]
    edges: list[tuple[int, int]] = []
    for a, b in itertools.product(a_colors, b_colors):
        base = len(sets)
        local = {0: 0, 1: 1}
        for off in range(5):
            local[2 + off] = base + off
        for u, v in _GADGET_EDGES:
            edges.append((local[u], local[v]))
        for off, colors in enumerate(_gadget_lists(a, b, cs)):
            sets.append(colors)
    graph = Graph(len(sets), edges)
    lists = ListAssignment.from_sets(sets)
    return ConstructedInstance(graph, lists, SeparationParams(3, 5))


def build_gadget_single(
    a: int, b: int, cs: tuple[int, int, int, int]
) -> ConstructedInstance:
    """One 7-vertex gadget copy with singleton endpoint lists {a} and {b},
    standing in for a precoloring of the endpoints."""
    colors = (a, b, *cs)
    if len(set(colors)) != 6 or min(colors) < 0:
        raise ValueError("gadget needs six distinct nonnegative colors")
    sets = [(a,), (b,), *_gadget_lists(a, b, cs)]
    graph = Graph(7, list(_GADGET_EDGES))
    lists = ListAssignment.from_sets(sets)
    return ConstructedInstance(graph, lists, SeparationParams(3, 5))
