"""Reducible-edge scans, edge-reduction checks, kernels, randomized suite."""

from __future__ import annotations

import random

import pytest

from listsep.assignments import ListAssignment, SeparationParams
from listsep.choosability import CHOOSABLE, decide_choosable
from listsep.constructions import build_book, build_gadget35
from listsep.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    icosahedron_graph,
    path_graph,
    star_graph,
)
from listsep.reducibility import (
    CRITICAL_FAULT,
    HYPOTHESIS_NOT_MET,
    PASS,
    check_edge_reduction,
    find_reducible_edges,
    greedy_kernel,
    run_edge_reduction_suite,
)


def test_find_reducible_edges_regular_graphs():
    report = find_reducible_edges(cycle_graph(5), SeparationParams(3, 4))
    assert len(report.edges) == 5
    assert all(e.degree_sum == 4 and e.common_capped == 0 for e in report.edges)

    report = find_reducible_edges(complete_graph(4), SeparationParams(3, 4))
    assert len(report.edges) == 6
    assert all(e.degree_sum == 6 and e.common_capped == 2 for e in report.edges)

    report = find_reducible_edges(icosahedron_graph(), SeparationParams(3, 11))
    assert len(report.edges) == 30
    assert all(e.degree_sum == 10 and e.common == 2 for e in report.edges)


def test_find_reducible_edges_guards():
    with pytest.raises(ValueError):
        find_reducible_edges(cycle_graph(5), SeparationParams(2, 4))
    with pytest.raises(ValueError):
        find_reducible_edges(cycle_graph(5), SeparationParams(3, 2))


def test_reducible_edges_invariant_under_relabeling():
    g = star_graph(3).with_edge(1, 2)
    p = SeparationParams(3, 9)
    base = {(e.u, e.v) for e in find_reducible_edges(g, p).edges}
    perm = [3, 1, 0, 2]
    g2 = Graph(4, [(perm[u], perm[v]) for u, v in g.edges()])
    mapped = {
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for (u, v) in base
    }
    assert {(e.u, e.v) for e in find_reducible_edges(g2, p).edges} == mapped


def test_edge_reduction_pass_on_easy_instance():
    g = star_graph(4).with_edge(1, 2)
    lists = ListAssignment.from_sets(
        [set(range(5 * i, 5 * i + 5)) for i in range(5)], universe=25
    )
    res = check_edge_reduction(g, 1, 2, lists, SeparationParams(3, 9))
    assert res.verdict == PASS
    assert res.degree_sum == 4
    assert all(res.subinstance_sat)


def test_edge_reduction_hypothesis_failures():
    # adding a valid extra edge to an unsolvable book leaves G-uv unsolvable
    inst = build_book(3, 5)
    pages = {tuple(inst.lists.colors(v)): v for v in range(3, inst.graph.n)}
    u = pages[(0, 3, 6)]
    v = pages[(1, 4, 7)]
    g = inst.graph.with_edge(u, v)
    res = check_edge_reduction(g, u, v, inst.lists, inst.params)
    assert res.verdict == HYPOTHESIS_NOT_MET
    assert not res.subinstance_sat[2]

    # degree condition fails on a center-page edge of the plain book
    res = check_edge_reduction(
        inst.graph, 0, 3, inst.lists, inst.params
    )
    assert res.verdict == HYPOTHESIS_NOT_MET
    assert res.degree_sum > res.threshold


def test_edge_reduction_guards():
    g = cycle_graph(4)
    lists = ListAssignment.from_sets([set(range(6))] * 4, universe=6)
    with pytest.raises(ValueError):
        check_edge_reduction(g, 0, 2, lists, SeparationParams(3, 6))
    bad_lists = ListAssignment.from_sets([{0, 1}] * 4, universe=6)
    with pytest.raises(ValueError):
        check_edge_reduction(g, 0, 1, bad_lists, SeparationParams(3, 6))


def test_greedy_kernel():
    assert greedy_kernel(path_graph(5), 2).empty
    assert greedy_kernel(complete_graph(4), 4).empty
    res = greedy_kernel(build_gadget35().graph, 3)
    assert not res.empty
    assert res.kernel_vertices == tuple(range(47))   # every vertex keeps degree >= 3

    k4 = greedy_kernel(complete_graph(4), 3)
    assert k4.kernel_vertices == (0, 1, 2, 3)
    assert k4.order == ()


def test_kernel_removal_order_is_replayable():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 8)
        g = Graph(
            n,
            [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4],
        )
        k = rng.randint(1, 4)
        res = greedy_kernel(g, k)
        removed: set[int] = set()
        for v in res.order:
            deg = sum(1 for u in g.neighbors(v) if u not in removed)
            assert deg < k
            removed.add(v)
        assert set(res.kernel_vertices) == set(range(n)) - removed


def reference_kernel(g: Graph, k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The kernel's rule by its definition: rescan from id 0 after each removal."""
    degree = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    order = []
    while True:
        v = next((v for v in range(g.n) if alive[v] and degree[v] < k), None)
        if v is None:
            return tuple(order), tuple(u for u in range(g.n) if alive[u])
        alive[v] = False
        order.append(v)
        for u in g.neighbors(v):
            if alive[u]:
                degree[u] -= 1


def test_kernel_order_matches_rescan_reference():
    rng = random.Random(29)
    grid = Graph(225, [(r * 15 + c, r * 15 + c + 1) for r in range(15) for c in range(14)]
                 + [(r * 15 + c, r * 15 + c + 15) for r in range(14) for c in range(15)])
    cases = [(path_graph(500), 2), (grid, 3), (grid, 2)]
    for _ in range(300):
        n = rng.randint(0, 40)
        p = rng.uniform(0.02, 0.4)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        cases.append((g, rng.randint(0, 6)))
    for g, k in cases:
        res = greedy_kernel(g, k)
        assert (res.order, res.kernel_vertices) == reference_kernel(g, k)


def test_empty_kernel_certifies_choosable():
    p = SeparationParams(3, 5)
    for g in (path_graph(4), star_graph(5), cycle_graph(6)):
        assert greedy_kernel(g, p.k).empty
        assert decide_choosable(g, p).verdict == CHOOSABLE


def test_suite_reports_no_critical_faults():
    report = run_edge_reduction_suite(count=150, seed=424242)
    assert report.ok
    assert report.hypothesis_met == 150
    assert report.passed == 150
    assert report.critical_faults == ()


def test_suite_is_reproducible():
    a = run_edge_reduction_suite(count=40, seed=5)
    b = run_edge_reduction_suite(count=40, seed=5)
    assert a == b
