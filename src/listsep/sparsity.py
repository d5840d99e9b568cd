"""Exact maximum average degree and the exact-rational verification of the
sparsity discharging algebra.

Mad is found by Dinkelbach iteration over Goldberg's max-flow cut, started
from the densest core; the flow is a highest-label push-relabel max-flow
that runs phase 1 only and reads the min cut off its residual graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph, greedy_kernel


@dataclass(frozen=True)
class MadResult:
    value: Fraction                 # max over subgraphs of 2*e(H)/n(H)
    witness: tuple[int, ...]        # vertex set achieving it
    flow_calls: int                 # max-flow computations it took


class _PushRelabel:
    """Integer-capacity max flow by highest-label push-relabel, without
    recursion.

    It runs phase 1 only, which is all a min cut needs: it saturates the
    source's arcs, routes each node's excess straight to the sink where an
    arc allows, labels every node with its exact residual distance to the
    sink by one reverse BFS, and then discharges the highest-labelled active
    node first. The BFS is repeated after O(nodes + arcs) work, or once a
    label no node holds any more (a gap) shows that nothing above it reaches
    the sink: the BFS labels those nodes `size`, which takes them out of play.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, back: int = 0) -> None:
        """An arc u -> v of capacity cap, paired with v -> u of capacity back."""
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(back)

    def _distances(self, t: int) -> list[int]:
        """Each node's residual distance to t; size for the nodes that cannot
        reach t, the source among them once its arcs are saturated."""
        size, adj, to, cap = self.size, self.adj, self.to, self.cap
        dist = [size] * size
        dist[t] = 0
        frontier = [t]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for e in adj[v]:
                    u = to[e]
                    if dist[u] == size and cap[e ^ 1]:
                        dist[u] = d
                        nxt.append(u)
            frontier = nxt
        return dist

    def min_cut(self, s: int, t: int) -> tuple[int, list[bool]]:
        """The max flow value, and the source side of a min cut: side[v] is
        True exactly when v cannot reach t in the final residual graph."""
        size, adj, to, cap = self.size, self.adj, self.to, self.cap
        excess = [0] * size
        for e in adj[s]:
            c = cap[e]
            if c:
                cap[e] = 0
                cap[e ^ 1] += c
                excess[to[e]] += c
        for v in range(size):
            if excess[v] and v != t:
                for e in adj[v]:
                    if to[e] == t and cap[e]:
                        d = min(excess[v], cap[e])
                        cap[e] -= d
                        cap[e ^ 1] += d
                        excess[v] -= d
                        excess[t] += d
        # A relabel's work is its arc scan plus a fixed 12; this much work
        # between two BFS rounds keeps the labels close to exact.
        work_limit = 4 * (size + len(to))
        while True:
            # A round starts from exact labels; active[d] holds the active
            # nodes and count[d] the number of all nodes labelled d < size.
            # Only t has label 0, so level 0 is never discharged.
            label = self._distances(t)
            active: list[list[int]] = [[] for _ in range(size)]
            count = [0] * size
            for v in range(size):
                if label[v] < size:
                    count[label[v]] += 1
                    if excess[v]:
                        active[label[v]].append(v)
            current = [0] * size
            top = max((d for d in range(size) if active[d]), default=0)
            work = 0
            while top > 0 and work <= work_limit:
                if not active[top]:
                    top -= 1
                    continue
                u = active[top].pop()
                du = label[u]
                ex = excess[u]
                arcs = adj[u]
                degree = len(arcs)
                i = current[u]
                while True:
                    while i < degree:
                        e = arcs[i]
                        c = cap[e]
                        if c:
                            v = to[e]
                            if label[v] == du - 1:
                                d = ex if ex < c else c
                                cap[e] = c - d
                                cap[e ^ 1] += d
                                if not excess[v]:
                                    active[du - 1].append(v)
                                    if du - 1 > top:
                                        top = du - 1
                                excess[v] += d
                                ex -= d
                                if not ex:
                                    break
                        i += 1
                    if not ex:
                        break
                    # Relabel u to one above its lowest residual neighbour.
                    work += degree + 12
                    new = size
                    for e in arcs:
                        if cap[e]:
                            lv = label[to[e]] + 1
                            if lv < new:
                                new = lv
                    count[du] -= 1
                    if not count[du]:
                        # Gap: nothing above du reaches t; next BFS lifts it.
                        new = size
                        work = work_limit + 1
                    label[u] = new
                    if new == size:
                        break
                    count[new] += 1
                    du = new
                    i = 0
                excess[u] = ex
                current[u] = i
            if top <= 0:
                break
        label = self._distances(t)
        return excess[t], [d == size for d in label]


def _induced_edge_count(g: Graph, vertices: tuple[int, ...]) -> int:
    inside = set(vertices)
    return sum(1 for v in vertices for u in g.neighbors(v) if u in inside) // 2


def _denser_subgraph(
    g: Graph, vertices: tuple[int, ...], guess: Fraction
) -> tuple[int, ...] | None:
    """A set S of the given vertices with e(S)/|S| > guess, or None if none
    exists.

    Network on the subgraph H they induce, with m = e(H): source -> v with
    capacity m, v -> sink with capacity m + 2*guess - d_H(v), and capacity 1
    both ways on each edge; a min cut below n(H)*m corresponds to a subgraph
    denser than the guess. Capacities are scaled by the guess's denominator
    to stay integral.
    """
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    a, b = guess.numerator, guess.denominator
    net = _PushRelabel(n + 2)
    s, t = n, n + 1
    degree = [0] * n
    for i, v in enumerate(vertices):
        for u in g.neighbors(v):
            j = index.get(u)
            if j is not None:
                degree[i] += 1
                if j > i:
                    net.add_edge(i, j, b, b)
    m = sum(degree) // 2
    for i in range(n):
        net.add_edge(s, i, m * b)
        net.add_edge(i, t, m * b + 2 * a - degree[i] * b)
    flow, side = net.min_cut(s, t)
    if flow >= n * m * b:
        return None
    return tuple(v for i, v in enumerate(vertices) if side[i])


def mad_exact(g: Graph) -> MadResult:
    """Maximum of 2*e(H)/n(H) over nonempty subgraphs, exactly.

    Dinkelbach iteration over Goldberg's max-flow cut, with the flow by
    push-relabel, started from the densest core. A densest subgraph S* has
    degree at least rho* = e(S*)/|S*| at each of its vertices, inside S*; so
    if rho* exceeds the current density rho, S* lies in the
    (floor(rho)+1)-core. While that core is denser than rho, the iteration
    moves to it. Then one flow on the core either finds a set S denser than
    rho, and the iteration moves to S and its density e(S)/|S|, or shows
    that no set is denser. Densities rise strictly and take finitely many
    values, so the loop ends, and it ends only when no set is denser: the
    last set is a densest subgraph.

    `flow_calls` counts the flow computations only; core moves are free.
    Which densest set is returned as the witness is an implementation
    detail.
    """
    if g.n == 0:
        raise ValueError("Mad of the empty graph is undefined")
    if g.m == 0:
        return MadResult(Fraction(0), (0,), 0)
    best = tuple(range(g.n))
    density = Fraction(g.m, g.n)
    flow_calls = 0
    while True:
        # Never empty: a graph of density rho > 0 has degeneracy above rho.
        core = greedy_kernel(g, math.floor(density) + 1).kernel_vertices
        core_density = Fraction(_induced_edge_count(g, core), len(core))
        if core_density > density:
            best, density = core, core_density
            continue
        flow_calls += 1
        denser = _denser_subgraph(g, core, density)
        if denser is None:
            return MadResult(2 * density, best, flow_calls)
        best = denser
        density = Fraction(_induced_edge_count(g, denser), len(denser))


def mad_bruteforce(g: Graph) -> MadResult:
    """Independent oracle: maximize 2*e(S)/|S| over all nonempty subsets."""
    if g.n == 0:
        raise ValueError("Mad of the empty graph is undefined")
    if g.n > 20:
        raise ValueError("brute force limited to n <= 20")
    # Its own bitmasks, so the oracle shares no code with mad_exact.
    adj = [sum(1 << u for u in g.neighbors(v)) for v in range(g.n)]
    best_val = Fraction(-1)
    best_set: tuple[int, ...] = ()
    for mask in range(1, 1 << g.n):
        size = mask.bit_count()
        twice_edges = 0   # sum of within-subset degrees = 2*e(S)
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            twice_edges += (adj[bit.bit_length() - 1] & mask).bit_count()
        val = Fraction(twice_edges, size)
        if val > best_val:
            best_val = val
            best_set = tuple(
                v for v in range(g.n) if (mask >> v) & 1
            )
    return MadResult(best_val, best_set, 0)


@dataclass(frozen=True)
class ChargeCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ChargeReport:
    k: int
    t: int
    threshold: Fraction          # the density threshold 2k - 2k^2/(t+1)
    checks: tuple[ChargeCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _ends(degrees: range) -> tuple[int, ...]:
    """The first and last degree of a range; none if it is empty."""
    return (degrees[0], degrees[-1]) if degrees else ()


def verify_charge_algebra(k: int, t: int) -> ChargeReport:
    """Exact-rational audit of the charge redistribution behind the sparsity
    bound: a graph of maximum average degree below 2k(1 - k/(t+1)) is
    (k,t)-choosable.

    Every vertex starts with charge d(v); vertices with d < c (where
    c = 2k - 2k^2/(t+1)) pull (c - d)/d from each neighbor. The checks
    confirm, over the relevant integer degree ranges, that everyone ends
    with charge at least c, which contradicts the average degree being
    below c.
    """
    if k < 2:
        raise ValueError("charge verification needs k >= 2")
    if t < 2 * k - 1:
        raise ValueError("charge verification needs t >= 2k - 1")
    c = 2 * k - Fraction(2 * k * k, t + 1)
    c_ceil = math.ceil(c)
    checks = []

    checks.append(
        ChargeCheck("threshold-vs-k", c >= k, f"c = {c} >= k = {k}")
    )

    # The receiver, sender-degree and mid-degree checks each cover a range
    # of degrees but test only its ends, which is exact: the first is an
    # identity in d, the second is monotone in d, and 2(t+1-d)d - (t+1)c
    # is concave in d.
    receivers = range(k, c_ceil)   # integer degrees strictly below c
    ok = all(d + d * Fraction(c - d, d) == c for d in _ends(receivers))
    named = f"{k}..{c_ceil - 1}" if receivers else "none"
    checks.append(
        ChargeCheck(
            "receiver-final-charge", ok, f"degrees {named} end with exactly c"
        )
    )

    bound = t + 1 - c
    ok = bound >= c and all(t + 1 - d > c for d in _ends(receivers))
    checks.append(
        ChargeCheck(
            "sender-degree-bound",
            ok,
            f"neighbors of receivers have degree >= t+1-c = {bound} >= c",
        )
    )

    # d * rate grows with d (rate > 0), so equality at the lowest degree
    # covers every degree above it.
    rate = Fraction(2 * k, t + 1)
    lowest = t + 1 - k
    ok = lowest * rate == c
    checks.append(
        ChargeCheck(
            "high-degree-sender",
            ok,
            f"final charge d*2k/(t+1) >= c for d >= {lowest}, equality at {lowest}",
        )
    )

    ok = all(
        2 * (t + 1 - d) * d - (t + 1) * c >= 0
        for d in _ends(range(c_ceil, t + 1 - k))
    )
    checks.append(
        ChargeCheck(
            "mid-degree-sender",
            ok,
            f"2(t+1-d)d - (t+1)c >= 0 for {c_ceil} <= d < {t + 1 - k}",
        )
    )

    disc_ok = (t + 1) * ((t + 1) - 2 * c) == (t + 1 - 2 * k) ** 2
    roots_ok = all(
        2 * (t + 1 - d) * d - (t + 1) * c == 0 for d in (k, t + 1 - k)
    )
    checks.append(
        ChargeCheck(
            "discriminant-identity",
            disc_ok and roots_ok,
            f"(t+1)(t+1-2c) = (t+1-2k)^2 with roots d in {{{k}, {t + 1 - k}}}",
        )
    )

    return ChargeReport(k, t, c, tuple(checks))
