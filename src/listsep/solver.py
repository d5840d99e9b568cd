"""Exhaustive list-coloring search.

Depth-first search that always branches on the uncolored vertex with the
smallest ratio of remaining candidate colors to static degree (dom/deg,
Bessière and Régin, CP 1996), ties to the lowest id; vertices whose list is a
single color from the start (precolored ones included) come first. Every
assignment prunes neighbor candidate sets and immediately propagates vertices
whose candidate set shrinks to a single color. The search runs in one loop
over an explicit stack of decision frames with a single undo trail, so its
depth is not bounded by Python's recursion limit.

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

No randomization; verdicts and node counts are reproducible.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Mapping

from .assignments import Coloring, ListAssignment
from .budget import RESOURCE_LIMIT, Budget, BudgetExceeded, Meter
from .graph import Graph

SAT = "SAT"
UNSAT = "UNSAT"

INF = float("inf")


def _unlimited() -> Meter:
    return Meter(Budget(max_nodes=sys.maxsize))


@dataclass(frozen=True)
class SolveResult:
    verdict: str                 # SAT, UNSAT or RESOURCE_LIMIT
    witness: Coloring | None     # present iff SAT
    nodes_explored: int


class _Search:
    """Shared state for one search; every vertex assignment is one node,
    charged to the meter as it is made.

    The trail holds (w, 0) for a coloring of w and (w, bit) for a color
    removed from w's candidates; a frame is [vertex, untried colors, trail
    length before its decision, colorings counted before it].

    key[v] is INF once v is colored and |cand[v]| / deg[v] before, where
    deg[v] is v's degree (1 if isolated) or INF for a vertex whose list is a
    single color from the start, so that its key is 0. Propagation colors
    every other vertex the moment its candidates shrink to one color, so
    between decisions no other uncolored vertex is a singleton.
    """

    __slots__ = ("nbrs", "cand", "color", "deg", "key", "depth", "trail", "meter")

    def __init__(
        self,
        g: Graph,
        lists: ListAssignment,
        fixed: Mapping[int, int],
        meter: Meter,
    ):
        if len(lists) != g.n:
            raise ValueError(
                f"assignment covers {len(lists)} vertices, graph has {g.n}"
            )
        self.nbrs = nbrs = [g.neighbors(v) for v in range(g.n)]
        self.cand = cand = [lists.mask(v) for v in range(g.n)]
        self.color = [-1] * g.n
        self.depth = [0] * g.n    # decision depth that colored each vertex
        self.trail: list[tuple[int, int]] = []
        self.meter = meter
        for v, c in fixed.items():
            if not (0 <= v < g.n):
                raise ValueError(f"fixed vertex {v} out of range")
            if c < 0 or not (lists.mask(v) >> c) & 1:
                raise ValueError(f"fixed color {c} not in list of vertex {v}")
            cand[v] = 1 << c
        self.deg = [INF if c & (c - 1) == 0 else len(nb) or 1
                    for c, nb in zip(cand, nbrs)]
        self.key = [c.bit_count() / d for c, d in zip(cand, self.deg)]

    def pick(self) -> int:
        """Uncolored vertex with the smallest |cand| / deg, lowest id on
        ties; -1 when every vertex is colored.

        Correctly rounded division is monotone, so float keys never order
        two fractions the wrong way round; they could only tie different
        ones. But fractions a/b < c/d differ by at least 1/(b*d), that is by
        at least 1/(b*c) of c/d, which is more than two float spacings while
        counts times degrees stay below 2**51, so each rounds to its own
        float: the keys order exactly as the fractions do.
        """
        key = self.key
        best = min(key)
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
        spend = self.meter.spend
        stack = [(v, bit)]
        while stack:
            w, b = stack.pop()
            if color[w] >= 0:
                continue
            color[w] = b.bit_length() - 1
            key[w] = INF
            depth[w] = d
            trail.append((w, 0))
            spend(1)
            for u in nbrs[w]:
                if color[u] < 0 and cand[u] & b:
                    cu = cand[u] = cand[u] & ~b
                    trail.append((u, b))
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
        deg = self.deg
        key = self.key
        trail = self.trail
        for w, b in reversed(trail[mark:]):
            if b:
                cand[w] |= b
            else:
                color[w] = -1
            key[w] = cand[w].bit_count() / deg[w]
        del trail[mark:]

    def jump_target(self, v: int, limit: int, since: int) -> int:
        """Deepest decision, at most `limit`, that colored a neighbor of the
        uncolored component containing v; 0 when none did.

        The trail from `since` on holds the decision at depth `limit`. Its
        uncolored neighbors are marked first, so that the common,
        chronological answer comes as soon as the walk from v meets one,
        without scanning all of v's neighborhood.
        """
        color = self.color
        depth = self.depth
        nbrs = self.nbrs
        trail = self.trail
        touched = []    # uncolored vertices temporarily marked in color
        for i in range(since, len(trail)):
            w, b = trail[i]
            if not b:
                for u in nbrs[w]:
                    if color[u] == -1:
                        color[u] = -3    # uncolored neighbor of depth `limit`
                        touched.append(u)
        best = limit if color[v] == -3 else 0
        if not best:
            color[v] = -2    # visited
            touched.append(v)
            queue = [v]
            for w in queue:
                for u in nbrs[w]:
                    c = color[u]
                    if c >= 0:
                        if depth[u] > best:
                            best = depth[u]
                    elif c == -1:
                        color[u] = -2
                        touched.append(u)
                        queue.append(u)
                    elif c == -3:
                        best = limit
                if best == limit:
                    break
        for u in touched:
            color[u] = -1
        return best

    def run(self, cap: int) -> int:
        """Count colorings up to `cap`. When the cap is reached the last
        coloring found is left in `color`."""
        pick = self.pick
        assign = self.assign
        cand = self.cand
        trail = self.trail
        v = pick()
        if v < 0:
            return 1
        found = 0
        frames = [[v, cand[v], 0, 0]]
        while frames:
            frame = frames[-1]
            v, untried, mark, before = frame
            if len(trail) > mark:
                self.unwind(mark)
            if untried:
                bit = untried & -untried
                frame[1] = untried ^ bit
                if assign(v, bit, len(frames)):
                    w = pick()
                    if w < 0:
                        found += 1
                        if found >= cap:
                            return found
                    else:
                        frames.append([w, cand[w], len(trail), found])
                continue
            frames.pop()
            # A subtree that counted colorings backtracks chronologically;
            # an empty one may skip every decision that left v's component
            # and its boundary unchanged.
            if found == before and frames:
                del frames[self.jump_target(v, len(frames), frames[-1][2]):]
        return found


def solve_with_precolor(
    g: Graph,
    lists: ListAssignment,
    fixed: Mapping[int, int],
    meter: Meter | None = None,
) -> SolveResult:
    """Decide existence of a proper list coloring extending `fixed`.

    With a `meter`, every node is charged to it as it is made, and the
    verdict is RESOURCE_LIMIT once its budget runs out. Raises ValueError if
    a fixed color is not in the vertex's list.
    """
    if meter is None:
        meter = _unlimited()
    start = meter.nodes
    st = _Search(g, lists, fixed, meter)
    try:
        verdict = SAT if st.run(1) else UNSAT
    except BudgetExceeded:
        verdict = RESOURCE_LIMIT
    witness: Coloring | None = (
        {v: st.color[v] for v in range(g.n)} if verdict == SAT else None
    )
    return SolveResult(verdict, witness, meter.nodes - start)


def solve(
    g: Graph, lists: ListAssignment, meter: Meter | None = None
) -> SolveResult:
    """Decide existence of a proper list coloring; SAT comes with a witness."""
    return solve_with_precolor(g, lists, {}, meter)


def count_colorings(g: Graph, lists: ListAssignment, cap: int) -> int:
    """Exact number of proper list colorings, saturating at `cap`."""
    if cap < 1:
        raise ValueError("cap must be positive")
    return _Search(g, lists, {}, _unlimited()).run(cap)
