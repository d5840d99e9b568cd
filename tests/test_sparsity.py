"""Densest-subgraph values, degeneracy peeling, charge algebra."""

from __future__ import annotations

import inspect
import math
import random
import sys
from fractions import Fraction

import pytest

from listsep.constructions import build_book, build_gadget35
from listsep.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    greedy_kernel,
    induced_subgraph,
    path_graph,
    petersen_graph,
)
from listsep.sparsity import (
    _denser_subgraph,
    _ends,
    _PushRelabel,
    mad_bruteforce,
    mad_exact,
    verify_charge_algebra,
)


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    return Graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_named_mad_values():
    assert mad_bruteforce(cycle_graph(5)).value == 2
    assert mad_bruteforce(complete_graph(5)).value == 4
    assert mad_bruteforce(complete_graph(4).delete_edge(0, 1)).value == Fraction(5, 2)
    assert mad_exact(petersen_graph()).value == 3
    assert mad_bruteforce(petersen_graph()).value == 3
    for n in (2, 5, 8):
        assert mad_exact(path_graph(n)).value == Fraction(2 * (n - 1), n)


def test_mad_guards():
    with pytest.raises(ValueError):
        mad_exact(Graph(0))
    with pytest.raises(ValueError):
        mad_bruteforce(Graph(0))
    with pytest.raises(ValueError):
        mad_bruteforce(Graph(21))
    assert mad_exact(Graph(3)).value == 0


def test_witness_density_equals_value():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 8))
        for result in (mad_exact(g), mad_bruteforce(g)):
            sub, _ = induced_subgraph(g, result.witness)
            if sub.n:
                assert Fraction(2 * sub.m, sub.n) == result.value
            assert result.value >= g.average_degree() if g.n else True


def test_exact_matches_bruteforce_on_random_graphs():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 16), rng.uniform(0.2, 0.8))
        result = mad_exact(g)
        assert result.value == mad_bruteforce(g).value
        sub, _ = induced_subgraph(g, result.witness)
        assert Fraction(2 * sub.m, sub.n) == result.value


def test_mad_does_not_recurse():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        assert mad_exact(path_graph(400)).value == Fraction(399, 200)
    finally:
        sys.setrecursionlimit(limit)


def test_tree_mad_takes_one_flow_call():
    # A tree's own density (n-1)/n is its maximum: no subtree is denser.
    rng = random.Random(23)
    for n in (2, 7, 40):
        tree = Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
        result = mad_exact(tree)
        assert result.value == Fraction(2 * (n - 1), n)
        assert result.flow_calls == 1
    assert mad_exact(Graph(3)).flow_calls == 0


def test_long_path_mad_takes_one_flow_call():
    # Push-relabel drains a path's excess to its two ends in one wave, where
    # a phase-per-path-length flow would take O(n^2).
    result = mad_exact(path_graph(20000))
    assert result.value == Fraction(19999, 10000)
    assert result.flow_calls == 1


def disjoint_union(*graphs: Graph) -> Graph:
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.n
    return Graph(offset, edges)


def pseudoforest(rng: random.Random, n: int) -> Graph:
    # Each vertex adds at most one edge, so no component has two cycles.
    edges = set()
    for v in range(n):
        u = rng.randrange(n)
        if u != v and rng.random() < 0.9:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def test_exact_matches_bruteforce_on_sparse_families():
    rng = random.Random(29)
    k4 = complete_graph(4)
    graphs = [path_graph(n) for n in range(2, 13)]
    graphs += [cycle_graph(n) for n in range(3, 13)]
    graphs += [pseudoforest(rng, rng.randint(2, 16)) for _ in range(40)]
    graphs += [
        disjoint_union(random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9)),
                       random_graph(rng, rng.randint(1, 6), rng.uniform(0.2, 0.9)),
                       pseudoforest(rng, rng.randint(1, 4)))
        for _ in range(30)
    ]
    # Several densest subgraphs: two K4s, apart or joined by a path, each
    # as dense as both together; a 5-cycle with a tail, as dense as the
    # cycle alone; two 5-cycles and a path.
    graphs += [
        disjoint_union(k4, k4),
        Graph(12, k4.edges() + [(u + 8, v + 8) for u, v in k4.edges()]
              + [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]),
        Graph(8, cycle_graph(5).edges() + [(4, 5), (5, 6), (6, 7)]),
        disjoint_union(cycle_graph(5), path_graph(3), cycle_graph(5)),
    ]
    for g in graphs:
        result = mad_exact(g)
        assert result.value == mad_bruteforce(g).value, g
        sub, _ = induced_subgraph(g, result.witness)
        assert Fraction(2 * sub.m, sub.n) == result.value


def brute_min_cut(size, s, t, arcs) -> tuple[int, set[int]]:
    """The least capacity of a cut over all source sides holding s, not t,
    and the union of the source sides of least capacity."""
    others = [v for v in range(size) if v not in (s, t)]
    best, union = None, set()
    for pick in range(1 << len(others)):
        side = {s} | {v for i, v in enumerate(others) if pick >> i & 1}
        cut = sum(c for u, v, c in arcs if u in side and v not in side)
        if best is None or cut < best:
            best, union = cut, set()
        if cut == best:
            union |= side
    return best, union


def test_push_relabel_matches_bruteforce_min_cut():
    rng = random.Random(37)
    parallel = antiparallel = 0
    for _ in range(2000):
        size = rng.randint(2, 10)
        s, t = rng.sample(range(size), 2)
        net = _PushRelabel(size)
        arcs = []   # (tail, head, capacity), both arcs of each pair
        for _ in range(rng.randint(0, 4 * size)):
            u, v = rng.sample(range(size), 2)
            cap, back = rng.choice((0, 0, 1, 2, 3, 7)), rng.choice((0, 0, 0, 1, 4))
            net.add_edge(u, v, cap, back)
            arcs += [(u, v, cap), (v, u, back)]
        pairs = [(u, v) for u, v, c in arcs[::2]]
        parallel += len(pairs) > len(set(pairs))
        antiparallel += any((v, u) in pairs for u, v in pairs)
        flow, side = net.min_cut(s, t)
        least, union = brute_min_cut(size, s, t, arcs)
        assert flow == least
        assert sum(c for u, v, c in arcs if side[u] and not side[v]) == flow
        # The nodes that cannot reach t form the largest min-cut source side.
        assert {v for v in range(size) if side[v]} == union
    assert parallel > 500 and antiparallel > 500


def goldberg_network(
    g: Graph, guess: Fraction, netted: bool
) -> tuple[_PushRelabel, int, int]:
    """Goldberg's network on the whole of g. In the offset form every vertex
    has a source arc of capacity m*b and a sink arc of capacity
    m*b + 2a - d(v)*b; netted, as `_denser_subgraph` builds it, each vertex
    keeps only the difference of the two, on the side where it is positive."""
    a, b = guess.numerator, guess.denominator
    net = _PushRelabel(g.n + 2)
    s, t = g.n, g.n + 1
    for u, v in g.edges():
        net.add_edge(u, v, b, b)
    for v in range(g.n):
        if not netted:
            net.add_edge(s, v, g.m * b)
            net.add_edge(v, t, g.m * b + 2 * a - g.degree(v) * b)
        elif g.degree(v) * b > 2 * a:
            net.add_edge(s, v, g.degree(v) * b - 2 * a)
        elif g.degree(v) * b < 2 * a:
            net.add_edge(v, t, 2 * a - g.degree(v) * b)
    return net, s, t


def test_push_relabel_cuts_goldberg_networks():
    # Networks of hundreds of nodes, where relabels empty labels (gaps) and
    # end rounds; the brute-force test above stops at 10 nodes.
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(30, 400)
        g = random_graph(rng, n, rng.uniform(2, 10) / (n - 1))
        for scale in (1, Fraction(5, 4), Fraction(3, 2), 2):
            guess = Fraction(g.m, n) * scale
            cuts = []
            for netted in (False, True):
                net, s, t = goldberg_network(g, guess, netted)
                arcs = [(net.to[e ^ 1], net.to[e], c) for e, c in enumerate(net.cap)]
                flow, side = net.min_cut(s, t)
                assert side[s] and not side[t]
                # A cut whose capacity equals a flow's value makes both optimal.
                assert sum(c for u, v, c in arcs if side[u] and not side[v]) == flow
                reach, stack = {t}, [t]
                while stack:
                    v = stack.pop()
                    for e in net.adj[v]:
                        u = net.to[e]
                        if u not in reach and net.cap[e ^ 1]:
                            reach.add(u)
                            stack.append(u)
                assert side == [v not in reach for v in range(net.size)]
                cuts.append((flow, side))
            # Netting shifts every cut by the same constant, so the largest
            # min-cut source side stays and the flow drops by that constant.
            (offset_flow, offset_side), (netted_flow, netted_side) = cuts
            assert netted_side == offset_side
            a, b = guess.numerator, guess.denominator
            assert offset_flow - netted_flow == sum(
                min(g.m * b, g.m * b + 2 * a - g.degree(v) * b) for v in range(n)
            )


def test_mad_monotone_under_subgraphs():
    rng = random.Random(19)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8))
        keep = [v for v in range(g.n) if rng.random() < 0.7]
        if not keep:
            continue
        h, _ = induced_subgraph(g, keep)
        assert mad_exact(h).value <= mad_exact(g).value


def test_book_density_sits_below_2k():
    for k, t in [(2, 3), (2, 5), (3, 5)]:
        inst = build_book(k, t)
        mad = mad_exact(inst.graph).value
        avg = inst.graph.average_degree()
        assert avg <= mad <= inst.graph.n - 1
        assert avg < 2 * k


def test_degeneracy_order():
    # greedy_kernel reports the degeneracy peel: its order and the k-core
    tree = greedy_kernel(path_graph(6), 2)
    assert tree.empty and len(tree.order) == 6

    stuck = greedy_kernel(complete_graph(4), 3)
    assert not stuck.empty
    assert stuck.kernel_vertices == (0, 1, 2, 3)

    gadget = build_gadget35().graph
    res = greedy_kernel(gadget, 6)
    assert res.empty
    # replay: every removal must have degree < 6 at its turn
    removed = set()
    for v in res.order:
        deg = sum(1 for u in gadget.neighbors(v) if u not in removed)
        assert deg < 6
        removed.add(v)


def test_denser_subgraph_reads_its_edge_count_off_the_cut():
    rng = random.Random(31)
    found = 0
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 12), rng.choice((0.1, 0.3, 0.5, 0.9)))
        vertices = tuple(sorted(rng.sample(range(g.n), rng.randint(1, g.n))))
        index = {v: i for i, v in enumerate(vertices)}
        local = [[index[u] for u in g.neighbors(v) if u in index] for v in vertices]
        h = induced_subgraph(g, vertices)[0]
        guess = rng.choice((Fraction(h.m, h.n) * rng.choice((Fraction(1, 2), 1, 2)),
                            Fraction(rng.randint(0, 2 * h.n), rng.randint(1, 5))))
        denser = _denser_subgraph(vertices, local, guess)
        if denser is None:
            assert mad_bruteforce(h).value <= 2 * guess
            continue
        found += 1
        witness, edges = denser
        assert set(witness) <= set(vertices)
        assert edges == induced_subgraph(g, witness)[0].m
        assert Fraction(edges, len(witness)) > guess
    assert found >= 100


def test_charge_algebra_named_instances():
    rep = verify_charge_algebra(4, 15)
    assert rep.threshold == 6
    assert rep.passed
    assert len(rep.checks) == 6

    rep = verify_charge_algebra(2, 3)
    assert rep.threshold == 2
    assert rep.passed

    rep = verify_charge_algebra(3, 11)
    assert rep.threshold == Fraction(9, 2)
    assert rep.passed


def test_charge_algebra_grid():
    for k in range(2, 7):
        for t in range(2 * k - 1, 31):
            assert verify_charge_algebra(k, t).passed, (k, t)


def scanned_charge_checks(k: int, t: int, c: Fraction):
    """(test, degree range) for each charge check that covers a range."""
    c_ceil = math.ceil(c)
    receivers = range(k, c_ceil)
    rate = Fraction(2 * k, t + 1)
    return [
        (lambda d: d + d * Fraction(c - d, d) == c, receivers),
        (lambda d: t + 1 - d > c, receivers),
        (lambda d: 2 * (t + 1 - d) * d - (t + 1) * c >= 0,
         range(c_ceil, t + 1 - k)),
        (lambda d: d * rate >= c, range(t + 1 - k, t + 1 - k + 41)),
    ]


def test_charge_checks_at_range_ends_match_full_scans():
    outcomes = set()
    for k in range(2, 9):
        for t in range(2 * k - 1, 90):
            c = 2 * k - Fraction(2 * k * k, t + 1)
            for shift in (0, Fraction(1, 3), Fraction(-1, 3)):
                for test, degrees in scanned_charge_checks(k, t, c + shift):
                    full = all(map(test, degrees))
                    assert all(map(test, _ends(degrees))) == full, (k, t, shift)
                    outcomes.add(full)
            assert verify_charge_algebra(k, t).passed, (k, t)
    assert outcomes == {True, False}


def test_charge_algebra_at_huge_t():
    rep = verify_charge_algebra(3, 10**12)
    assert rep.passed
    receivers = next(ch for ch in rep.checks if ch.name == "receiver-final-charge")
    assert receivers.detail == "degrees 3..5 end with exactly c"


def test_charge_algebra_guards():
    with pytest.raises(ValueError):
        verify_charge_algebra(1, 5)
    with pytest.raises(ValueError):
        verify_charge_algebra(3, 4)
