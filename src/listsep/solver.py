"""Exhaustive list-coloring search.

Depth-first search that always branches on the uncolored vertex with the
smallest ratio of remaining candidate colors to static degree (dom/deg,
Bessière and Régin, CP 1996), ties to the lowest id; vertices whose list is a
single color from the start come first, so a singleton list pins its vertex's
color. Every assignment prunes neighbor candidate sets and immediately
propagates vertices whose candidate set shrinks to a single color. The search
runs in one loop over an explicit stack of decision frames with a single undo
trail, so its depth is not bounded by Python's recursion limit.

A vertex whose list has more colors than it has neighbors can be colored
last (the greedy argument behind degeneracy choosability: Erdős, Rubin and
Taylor, 1979). When some list outnumbers its vertex's degree, `solve`
peels with `greedy_kernel`, each vertex's list size as its limit, searches
only the kernel that is left, and then colors the peeled vertices in
reverse removal order, each with the lowest color of its list that no
colored neighbor holds; one is always free, because at its removal the
vertex had fewer neighbors left than colors. An uncolorable kernel is an
uncolorable graph, and each greedily colored vertex is one node, so a graph
that peels completely still takes n nodes. Whether anything peels is read
off the search's own keys (a key above 1), so a solve with no such vertex,
which is every solve of the choosability decider, pays one max() for it.

Failures backjump on the graph. When a decision runs out of colors, the
uncolored component that contained its vertex just before the decision has
no coloring that agrees with the colors on its boundary, so the search
returns to the deepest decision that colored a boundary vertex rather than
to the previous decision (graph-based backjumping, the cheap end of Prosser's
conflict-directed backjumping). The skipped decisions cannot change that
boundary, so their subtrees hold no coloring and every verdict is exact.
It pays off when a failing part of the graph is independent of decisions
made before it: K5,5 with lists {0,1} on one side and {2,3} on the other,
next to a disjoint K4 with lists {4,5,6}, is refuted in 25 nodes instead of
the 17,406 it takes to refute the K4 again under each of the 1,024
colorings of K5,5.

Witness order and node counts are implementation details; every SAT witness
is a proper coloring. Branching on high-degree vertices first refutes the
book(3,7) of the constructions in 155 nodes, book(4,7) in 340 and the
47-vertex gadget in 84, also on each of 30 random relabelings of its
vertices.

Coloring a vertex of degree HUB_DEGREE (16) or more visits only the
neighbors whose list holds the color, the way a SAT solver visits only the
clauses a literal occurs in (Moskewicz et al., "Chaff", DAC 2001); no other
neighbor can lose it. Each such occurrence list is built the first time its
vertex takes its color, from the lists the search started with, and kept
for the rest of the search, so it never holds more vertices than the walks
it replaces have visited. Each trail entry records the key it replaced,
and an unwind restores the keys from the trail. A center of book(4,7) has
256 pages, 64 of which hold any one of its colors. Refuting book(4,7) takes
3.0 ms of CPU time in `solve`, book(4,9) 29 ms and book(5,9) 0.24 s, against
3.6, 40 and 350 ms when every coloring walked all neighbors and every
unwind recomputed its keys.

Picking the next vertex costs O(log n) while the search moves forward. A
lazy min-heap of (key, vertex) entries is fed from the undo trail: each pick
pushes the current key of every uncolored vertex the trail gained since the
previous pick, and drops entries at the top that no longer match their
vertex's key. A pick scans all n keys instead when the search has unwound
below the previous pick, which leaves entries missing from the heap, or
when the trail grew by more than n/16 entries since that pick, where the
pushes would cost more than the scan; below 16 vertices every pick scans.
The heap is rebuilt only after eight picks in a row could have used it,
about what a rebuild costs in scans, so a search that backtracks every few
picks keeps to the scan. Both ways pick the same vertex, so node counts and
witnesses do not depend on which one ran. The 100,000-vertex prism
C50000 x K2 with lists {0,1,2}, where no vertex peels, is colored in 100,000
nodes and about 0.5 s, one pick per node; a scan at every pick took minutes
on a path of that size. The 100,000-vertex path with the same lists peels
completely and takes 100,000 nodes and 0.065-0.075 s (process CPU time of
`solve`, Python 3.11, 2-CPU x86_64 machine).

No randomization; verdicts and node counts are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .assignments import Coloring, ListAssignment
from .budget import RESOURCE_LIMIT, BudgetExceeded, Meter
from .graph import Graph, greedy_kernel, induced_subgraph

SAT = "SAT"
UNSAT = "UNSAT"

INF = float("inf")
# Scans that cost about as much as building the heap from all n keys
# (5 at 100 to 1,000 vertices, 11 at 100,000, measured with Python 3.11 on
# a 2-CPU x86_64 machine).
REBUILD_SCANS = 8
# From this degree up, coloring a vertex visits only the neighbors whose
# starting list holds the color (_Search.occ). Below it the walk over every
# neighbor is short, and the choosability decider's many small solves pay
# one len() per colored vertex and build no index.
HUB_DEGREE = 16


@dataclass(frozen=True)
class SolveResult:
    verdict: str                 # SAT, UNSAT or RESOURCE_LIMIT
    witness: Coloring | None     # present iff SAT
    nodes_explored: int


class _Search:
    """One search for one list-coloring instance: every vertex assignment is
    one node, charged to the meter as it is made.

    The trail holds (w, 0, k) for a coloring of w and (w, bit, k) for a
    color removed from w's candidates, where k is w's key just before the
    entry, so an unwind puts each key back without recomputing it; a frame
    is [vertex, untried colors, trail length before its decision].

    `occ` maps (w, bit), for a vertex w of degree HUB_DEGREE or more that
    has been colored bit, to w's neighbors whose candidates at the start,
    kept in `start` because `cand` changes in place, hold bit, in neighbor
    order. Candidates only shrink from the start, so no other neighbor can
    lose bit, and the search visits the same vertices in the same order as
    a walk over all of w's neighbors. An entry is made the first time its
    pair is colored, where the walk it replaces would have visited every
    neighbor, so `occ` never holds more vertices than the search has
    visited; a search whose vertices all have smaller degrees builds none.

    key[v] is INF once v is colored and |cand[v]| / deg[v] before, where
    deg[v] is v's degree (1 if isolated), or INF for a vertex whose list is
    a single color from the start, so that its key is 0. Propagation colors
    every other vertex the moment its candidates shrink to one color, so
    between decisions no other uncolored vertex is a singleton.

    `heap` holds (key, vertex) entries: for each vertex uncolored at trail
    length `seen`, the trail length at the previous pick, one that matches
    its key at that point; entries whose key no longer matches are dropped
    when they reach the top. It is None when it has to be rebuilt: at the
    start, after an unwind below `seen`, which restores keys it lacks, and
    after a pick whose trail growth exceeded `step`, n // 16, where the
    pushes would cost more than a scan. `streak` counts the picks since
    then that scanned on a smaller growth. A rebuild costs about
    REBUILD_SCANS scans, so it waits for that many: a search that
    backtracks every few picks keeps scanning, and one that stopped
    backtracking pays the rebuild once.
    """

    __slots__ = ("nbrs", "cand", "start", "occ", "color", "deg", "key",
                 "depth", "trail", "meter", "heap", "seen", "step", "streak")

    def __init__(self, g: Graph, cand: list[int], meter: Meter):
        """Search g with `cand`, one nonempty candidate set per vertex."""
        self.nbrs = nbrs = g.adjacency
        self.cand = cand
        self.start = cand[:]
        self.occ: dict[tuple[int, int], tuple[int, ...]] = {}
        self.color = [-1] * g.n
        self.deg = deg = [INF if c & (c - 1) == 0 else len(nb) or 1
                          for c, nb in zip(cand, nbrs)]
        self.key = [c.bit_count() / d for c, d in zip(cand, deg)]
        self.depth = [0] * g.n    # decision depth that colored each vertex
        self.trail: list[tuple[int, int, float]] = []
        self.meter = meter
        self.heap: list[tuple[float, int]] | None = None
        self.seen = 0
        self.step = g.n // 16
        self.streak = 0

    def pick(self) -> int:
        """Uncolored vertex with the smallest |cand| / deg, lowest id on
        ties; -1 when every vertex is colored.

        Correctly rounded division is monotone, so float keys never order
        two fractions the wrong way round; they could only tie different
        ones. But fractions a/b < c/d differ by at least 1/(b*d), that is by
        at least 1/(b*c) of c/d, which is more than two float spacings while
        counts times degrees stay below 2**51, so each rounds to its own
        float: the keys order exactly as the fractions do. The heap orders
        the same keys, and the (key, vertex) tuples break ties by the
        lowest id, so it picks what the scan picks.
        """
        key = self.key
        if self.step:    # from 16 vertices up; below, every pick scans
            trail = self.trail
            end = len(trail)
            grown = end - self.seen
            self.seen = end
            heap = self.heap
            if grown > self.step:
                self.heap = None
                self.streak = 0
            elif heap is not None or self.streak >= REBUILD_SCANS:
                if heap is None:
                    heap = self.heap = [(k, v) for v, k in enumerate(key)
                                        if k != INF]
                    heapify(heap)
                else:
                    for w, _, _ in trail[end - grown:]:
                        k = key[w]
                        if k != INF:
                            heappush(heap, (k, w))
                while heap:
                    k, v = heap[0]
                    if key[v] == k:
                        return v
                    heappop(heap)
                return -1
            else:
                self.streak += 1
        best = min(key) if key else INF    # min() with default= is slower
        return -1 if best == INF else key.index(best)

    def assign(self, v: int, bit: int, d: int) -> bool:
        """Assign v at decision depth d and propagate forced singletons;
        False on a wipeout."""
        cand = self.cand
        color = self.color
        deg = self.deg
        key = self.key
        depth = self.depth
        nbrs = self.nbrs
        trail = self.trail
        occ = self.occ
        start = self.start
        spend = self.meter.spend
        stack = [(v, bit)]
        while stack:
            # w is uncolored: it is pushed once, when it first has one candidate.
            w, b = stack.pop()
            color[w] = b.bit_length() - 1
            trail.append((w, 0, key[w]))
            key[w] = INF
            depth[w] = d
            spend(1)
            touched = nbrs[w]
            if len(touched) >= HUB_DEGREE:
                touched = occ.get((w, b))
                if touched is None:
                    touched = occ[w, b] = tuple(u for u in nbrs[w]
                                                if start[u] & b)
            for u in touched:
                if color[u] < 0 and cand[u] & b:
                    cu = cand[u] = cand[u] & ~b
                    trail.append((u, b, key[u]))
                    if cu & (cu - 1) == 0:
                        if cu == 0:
                            return False
                        stack.append((u, cu))
                    else:
                        key[u] = cu.bit_count() / deg[u]
        return True

    def unwind(self, mark: int) -> None:
        cand = self.cand
        color = self.color
        key = self.key
        trail = self.trail
        for w, b, k in reversed(trail[mark:]):
            if b:
                cand[w] |= b
            else:
                color[w] = -1
            key[w] = k
        del trail[mark:]
        if mark < self.seen:
            self.heap = None    # it lacks the keys this unwind restored
            self.streak = 0

    def jump_target(self, v: int, limit: int) -> int:
        """Deepest decision, at most `limit`, that colored a neighbor of the
        uncolored component containing v; 0 when none did.

        It is called once every decision deeper than `limit` is undone, so no
        colored vertex is deeper than `limit`, and the walk over v's
        component may stop at the first neighbor colored at depth `limit`:
        no vertex it has yet to reach can beat it. That is the common,
        chronological answer.
        """
        color = self.color
        depth = self.depth
        nbrs = self.nbrs
        best = 0
        color[v] = -2    # visited
        queue = [v]
        for w in queue:
            for u in nbrs[w]:
                c = color[u]
                if c >= 0:
                    if depth[u] > best:
                        best = depth[u]
                elif c == -1:
                    color[u] = -2
                    queue.append(u)
            if best == limit:
                break
        for u in queue:
            color[u] = -1
        return best

    def run(self) -> bool:
        """True once every vertex is colored, with the coloring left in
        `color`; False when no coloring exists."""
        pick = self.pick
        assign = self.assign
        cand = self.cand
        trail = self.trail
        v = pick()
        if v < 0:
            return True
        frames = [[v, cand[v], 0]]
        while frames:
            frame = frames[-1]
            v, untried, mark = frame
            if len(trail) > mark:
                self.unwind(mark)
            if untried:
                bit = untried & -untried
                frame[1] = untried ^ bit
                if assign(v, bit, len(frames)):
                    w = pick()
                    if w < 0:
                        return True
                    frames.append([w, cand[w], len(trail)])
                continue
            frames.pop()
            # Skip every decision that left v's component and its boundary
            # unchanged.
            if frames:
                del frames[self.jump_target(v, len(frames)):]
        return False


def _color_peeled(g: Graph, cand: list[int], kept: tuple[int, ...],
                  kernel_color: list[int], order: tuple[int, ...]) -> list[int]:
    """g's coloring from the kernel's: kernel vertex kept[i] takes
    kernel_color[i], and the vertices of `order` are colored last to first,
    each with the lowest of its candidates that no colored neighbor holds.

    `order` is the removal order of `greedy_kernel` under the limits
    |cand[v]|: when v was removed it had fewer neighbors left than
    candidates, and those are exactly the neighbors colored before it here,
    so a candidate is always free.
    """
    color = [-1] * g.n
    for v, c in zip(kept, kernel_color):
        color[v] = c
    nbrs = g.adjacency
    for v in reversed(order):
        taken = 0
        for u in nbrs[v]:
            c = color[u]
            if c >= 0:
                taken |= 1 << c
        free = cand[v] & ~taken
        color[v] = (free & -free).bit_length() - 1
    return color


def solve(
    g: Graph, lists: ListAssignment, meter: Meter | None = None
) -> SolveResult:
    """Decide existence of a proper list coloring; SAT comes with a witness.

    A singleton list pins its vertex's color: the search colors it before
    any decision. When some list has more colors than its vertex has
    neighbors, `greedy_kernel` peels every vertex that can be colored last,
    the search runs on the kernel that is left, and the peeled vertices are
    colored greedily after it, one node each, all charged just before they
    are colored; an uncolorable kernel means an uncolorable graph. Every
    search node is charged to `meter` (default: an unlimited `Meter()`) as
    it is made, and the verdict is RESOURCE_LIMIT once it runs out.
    """
    if len(lists) != g.n:
        raise ValueError(f"assignment covers {len(lists)} vertices, graph has {g.n}")
    if meter is None:
        meter = Meter()
    start = meter.nodes
    cand = [lists.mask(v) for v in range(g.n)]
    st = _Search(g, cand, meter)
    order = kept = ()
    # A key above 1 is a list longer than its vertex's degree.
    if st.key and max(st.key) > 1:
        peel = greedy_kernel(g, [c.bit_count() for c in cand])
        order = peel.order
        h, kept = induced_subgraph(g, peel.kernel_vertices)
        st = _Search(h, [cand[v] for v in kept], meter)
    try:
        if not st.run():
            return SolveResult(UNSAT, None, meter.nodes - start)
        color = st.color
        if order:
            meter.spend(len(order))    # one node per peeled vertex
            color = _color_peeled(g, cand, kept, color, order)
    except BudgetExceeded:
        return SolveResult(RESOURCE_LIMIT, None, meter.nodes - start)
    return SolveResult(SAT, dict(enumerate(color)), meter.nodes - start)
