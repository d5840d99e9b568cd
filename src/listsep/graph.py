"""Immutable simple-graph core: degrees, neighborhoods, deletions, density,
and the one k-core peel."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import compress
from typing import Iterable, Sequence

# The most vertices a graph may have; a graph file or book past it is a
# usage error, refused before anything is allocated.
MAX_VERTICES = 100_000

# An error message prints at most this many characters of a number.
_NUMBER_MAX = 20


def short_number(x: int) -> str:
    """x in decimal for an error message, cut to a short prefix."""
    text = str(x)
    return text if len(text) <= _NUMBER_MAX else text[:_NUMBER_MAX] + "..."


class Graph:
    """Simple undirected graph on dense vertex ids 0..n-1.

    Each neighborhood is stored once, as a sorted tuple of vertex ids. The
    constructor builds one list per vertex in input order, sorted at the
    end, and finds repeated edges in one set of edge keys, with no set per
    vertex. It checks each edge for range, self-loops and duplicates as it
    reads it, so its error names the first bad edge.

    Instances are immutable; ``delete_edge`` and ``induced_subgraph``
    return new graphs, so callers can hold G, G-u, G-v and G-uv side by
    side. ``induced_subgraph`` renumbers the kept vertices in id order, so
    G-v maps w -> w for w < v and w -> w-1 for w > v.
    """

    __slots__ = ("n", "m", "_nbrs")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise ValueError(
                f"{short_number(n)} vertices exceed the limit of {MAX_VERTICES}"
            )
        adj: list[list[int]] = [[] for _ in range(n)]
        # Edge {u, v} with u < v has the key u*n + v, below n^2 once the
        # range check has passed.
        seen: set[int] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({short_number(u)},{short_number(v)})"
                                 f" out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.m = len(seen)
        del seen   # free the keys before the tuples are built
        for nbrs in adj:
            nbrs.sort()
        self._nbrs = tuple(map(tuple, adj))

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Every vertex's sorted neighbor tuple, indexed by vertex id."""
        return self._nbrs

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._nbrs[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._nbrs[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._nbrs[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self._nbrs[u] if u < v]

    def common_neighbor_count(self, u: int, v: int) -> int:
        """|N(u) & N(v)|; u and v need not be adjacent but must differ."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("common_neighbor_count requires two distinct vertices")
        return len(set(self._nbrs[u]).intersection(self._nbrs[v]))

    def delete_edge(self, u: int, v: int) -> Graph:
        if not self.has_edge(u, v):
            raise ValueError(f"edge ({u},{v}) not present")
        key = (min(u, v), max(u, v))
        return Graph(self.n, [e for e in self.edges() if e != key])

    def average_degree(self) -> Fraction:
        """2m/n as an exact rational."""
        if self.n == 0:
            raise ValueError("average degree of the empty graph is undefined")
        return Fraction(2 * self.m, self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._nbrs == other._nbrs

    def __hash__(self) -> int:
        return hash((self.n, self._nbrs))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices.

    Returns (subgraph, kept) where kept is the sorted tuple of original ids;
    new id i corresponds to kept[i].
    """
    kept = tuple(sorted(set(vertices)))
    for v in kept:
        g._check_vertex(v)
    index = {v: i for i, v in enumerate(kept)}
    nbrs = g._nbrs
    edges = [(i, index[u]) for i, v in enumerate(kept)
             for u in nbrs[v] if u > v and u in index]
    return Graph(len(kept), edges), kept


@dataclass(frozen=True)
class KernelResult:
    kernel_vertices: tuple[int, ...]   # surviving original ids, sorted
    order: tuple[int, ...]             # removed original ids, in removal order

    @property
    def empty(self) -> bool:
        return not self.kernel_vertices


def greedy_kernel(g: Graph, k: int | Sequence[int]) -> KernelResult:
    """Delete the lowest-id vertex of degree below its limit until none is left.

    k is every vertex's limit, or a sequence of one limit per vertex. With
    one limit k the survivors form the k-core. An empty kernel certifies
    that every (k,t)-assignment of g is colorable: replaying the removal
    order backwards always leaves a free color. Degrees only fall, so a
    vertex stays removable once it is. A scan walks the ids upward and
    removes each removable vertex it reaches; a vertex that becomes
    removable behind the scan goes on a min-heap, which is emptied before
    the scan moves on, since everything on it has a lower id than anything
    ahead. That yields the same order as rescanning from id 0 after each
    removal, in O(n + m) plus O(log n) per vertex that goes on the heap; a
    vertex removable from the start never does. Raises ValueError for a
    sequence whose length is not n, and for a limit below 1, where the peel
    certifies nothing.
    """
    limit = [k] * g.n if isinstance(k, int) else list(k)
    if len(limit) != g.n:
        raise ValueError(f"{len(limit)} limits for {g.n} vertices")
    if min(limit, default=1) < 1 or isinstance(k, int) and k < 1:
        raise ValueError("k must be at least 1")
    nbrs = g._nbrs
    # A vertex is removable while its degree less its limit is negative.
    slack = [len(nb) - lim for nb, lim in zip(nbrs, limit)]
    alive = [True] * g.n
    order = []
    heap: list[int] = []    # removable vertices behind the scan
    for i in range(g.n):
        if slack[i] >= 0:
            continue
        v = i    # alive: only vertices behind the scan have been removed
        while True:
            alive[v] = False
            order.append(v)
            for u in nbrs[v]:
                if alive[u]:
                    slack[u] -= 1
                    if slack[u] == -1 and u < i:
                        heappush(heap, u)
            if not heap:
                break
            v = heappop(heap)
    return KernelResult(tuple(compress(range(g.n), alive)), tuple(order))


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """Parts {0..a-1} and {a..a+b-1}."""
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def petersen_graph() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))          # outer cycle
        edges.append((i, 5 + i))                # spokes
        edges.append((5 + i, 5 + (i + 2) % 5))  # inner pentagram
    return Graph(10, edges)


def icosahedron_graph() -> Graph:
    """Icosahedron as a pentagonal antiprism capped by two apexes."""
    edges = []
    for i in range(5):
        edges.append((0, 1 + i))                        # top apex
        edges.append((11, 6 + i))                       # bottom apex
        edges.append((1 + i, 1 + (i + 1) % 5))          # upper pentagon
        edges.append((6 + i, 6 + (i + 1) % 5))          # lower pentagon
        edges.append((1 + i, 6 + i))                    # antiprism band
        edges.append((1 + i, 6 + (i + 1) % 5))
    return Graph(12, edges)
