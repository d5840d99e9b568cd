"""Exact maximum average degree and the exact-rational verification of the
sparsity discharging algebra."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graph import Graph


@dataclass(frozen=True)
class MadResult:
    value: Fraction                 # max over subgraphs of 2*e(H)/n(H)
    witness: tuple[int, ...]        # vertex set achieving it
    flow_calls: int                 # max-flow computations it took


class _Dinic:
    """Integer-capacity max flow by Dinic's blocking flows, without recursion."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.adj: list[list[int]] = [[] for _ in range(size)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _bfs(self, s: int, t: int) -> list[int] | None:
        level = [-1] * self.size
        level[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for e in self.adj[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        nxt.append(v)
            frontier = nxt
        return level if level[t] >= 0 else None

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push flow along the first s-t path of the level graph; 0 if none.

        Depth-first over the edges from it[u] on, with the path kept as a
        list of edge ids; a dead end advances its parent's edge pointer.
        """
        adj, to, cap = self.adj, self.to, self.cap
        path: list[int] = []
        u = s
        while u != t:
            edges = adj[u]
            i = it[u]
            while i < len(edges):
                e = edges[i]
                if cap[e] > 0 and level[to[e]] == level[u] + 1:
                    break
                i += 1
            it[u] = i
            if i < len(edges):
                path.append(e)
                u = to[e]
            elif path:
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                return 0
        pushed = min(cap[e] for e in path)
        for e in path:
            cap[e] -= pushed
            cap[e ^ 1] += pushed
        return pushed

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self._bfs(s, t)
            if level is None:
                return flow
            it = [0] * self.size
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                flow += pushed

    def source_side(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for e in self.adj[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen


def _induced_edge_count(g: Graph, vertices: tuple[int, ...]) -> int:
    inside = set(vertices)
    return sum(1 for v in vertices for u in g.neighbors(v) if u in inside) // 2


def _denser_subgraph(g: Graph, guess: Fraction) -> tuple[int, ...] | None:
    """A vertex set with e(S)/|S| > guess, or None if none exists.

    Network: source -> v with capacity m, v -> sink with capacity
    m + 2*guess - d(v), and capacity 1 both ways on each edge; a min cut
    below n*m corresponds to a subgraph denser than the guess. Capacities
    are scaled by the guess's denominator to stay integral.
    """
    n, m = g.n, g.m
    a, b = guess.numerator, guess.denominator
    net = _Dinic(n + 2)
    s, t = n, n + 1
    for v in range(n):
        net.add_edge(s, v, m * b)
        net.add_edge(v, t, m * b + 2 * a - g.degree(v) * b)
    for u, v in g.edges():
        net.add_edge(u, v, b)
        net.add_edge(v, u, b)
    flow = net.max_flow(s, t)
    if flow >= n * m * b:
        return None
    side = net.source_side(s)
    return tuple(sorted(v for v in side if v < n))


def mad_exact(g: Graph) -> MadResult:
    """Maximum of 2*e(H)/n(H) over nonempty subgraphs, exactly.

    Dinkelbach iteration over Goldberg's max-flow cut: start from the whole
    vertex set's density m/n; while the cut finds a set S denser than the
    current density, move to S and its density e(S)/|S|. Densities rise
    strictly and take finitely many values, so the loop ends, and it ends
    only when no set is denser: the last set is a densest subgraph.
    """
    if g.n == 0:
        raise ValueError("Mad of the empty graph is undefined")
    if g.m == 0:
        return MadResult(Fraction(0), (0,), 0)
    best = tuple(range(g.n))
    density = Fraction(g.m, g.n)
    flow_calls = 0
    while True:
        flow_calls += 1
        denser = _denser_subgraph(g, density)
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

    receivers = range(k, c_ceil)   # integer degrees strictly below c
    ok = all(d + d * Fraction(c - d, d) == c for d in receivers)
    checks.append(
        ChargeCheck(
            "receiver-final-charge",
            ok,
            f"degrees {list(receivers) or 'none'} end with exactly c",
        )
    )

    bound = t + 1 - c
    ok = bound >= c and all(t + 1 - d > c for d in receivers)
    checks.append(
        ChargeCheck(
            "sender-degree-bound",
            ok,
            f"neighbors of receivers have degree >= t+1-c = {bound} >= c",
        )
    )

    rate = Fraction(2 * k, t + 1)
    lowest = t + 1 - k
    ok = lowest * rate == c and all(
        d * rate >= c for d in range(lowest, lowest + 41)
    )
    checks.append(
        ChargeCheck(
            "high-degree-sender",
            ok,
            f"final charge d*2k/(t+1) >= c for d >= {lowest}, equality at {lowest}",
        )
    )

    ok = all(
        2 * (t + 1 - d) * d - (t + 1) * c >= 0 for d in range(c_ceil, t + 1 - k)
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
