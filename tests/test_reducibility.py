"""Reducible-edge scans, edge-reduction checks, kernels, randomized suite."""

from __future__ import annotations

import random
from dataclasses import astuple, replace

import pytest

from listsep import reducibility
from listsep.assignments import ListAssignment, SeparationParams
from listsep.choosability import CHOOSABLE, decide_choosable
from listsep.cli import EXIT_NEGATIVE, main
from listsep.constructions import build_book, build_gadget35
from listsep.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    greedy_kernel,
    icosahedron_graph,
    path_graph,
)
from listsep.reducibility import (
    CRITICAL_FAULT,
    HYPOTHESIS_NOT_MET,
    PASS,
    check_edge_reduction,
    find_reducible_edges,
    run_edge_reduction_suite,
)
from listsep.solver import UNSAT, SolveResult


def test_find_reducible_edges_regular_graphs():
    edges = find_reducible_edges(cycle_graph(5), SeparationParams(3, 4))
    assert len(edges) == 5
    assert all(e.degree_sum == 4 and e.common_capped == 0 for e in edges)

    edges = find_reducible_edges(complete_graph(4), SeparationParams(3, 4))
    assert len(edges) == 6
    assert all(e.degree_sum == 6 and e.common_capped == 2 for e in edges)

    edges = find_reducible_edges(icosahedron_graph(), SeparationParams(3, 11))
    assert len(edges) == 30
    assert all(e.degree_sum == 10 and e.common == 2 for e in edges)


def test_find_reducible_edges_guards():
    with pytest.raises(ValueError):
        find_reducible_edges(cycle_graph(5), SeparationParams(2, 4))
    with pytest.raises(ValueError):
        find_reducible_edges(cycle_graph(5), SeparationParams(3, 2))


def test_reducible_edges_invariant_under_relabeling():
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])   # star K1,3 plus edge 12
    p = SeparationParams(3, 9)
    base = {(e.u, e.v) for e in find_reducible_edges(g, p)}
    perm = [3, 1, 0, 2]
    g2 = Graph(4, [(perm[u], perm[v]) for u, v in g.edges()])
    mapped = {
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for (u, v) in base
    }
    assert {(e.u, e.v) for e in find_reducible_edges(g2, p)} == mapped


def reference_reducible_edges(
    g: Graph, p: SeparationParams
) -> list[tuple[int, int, int, int, int]]:
    """The reducible edges by their definition, checked on every edge."""
    found = []
    for u, v in g.edges():
        a = g.common_neighbor_count(u, v)
        dsum = g.degree(u) + g.degree(v)
        if dsum <= p.t + min(a, 2):
            found.append((u, v, min(a, 2), a, dsum))
    return found


def scanned(g: Graph, p: SeparationParams) -> list[tuple[int, int, int, int, int]]:
    return [astuple(e) for e in find_reducible_edges(g, p)]


def edge_beside_the_cut(t: int, common: int, dsum: int) -> Graph:
    """Edge 01 with `common` common neighbors and d(0) + d(1) = dsum.

    The common neighbors are 2, 3, ...; vertex 0 gets leaves to reach the sum.
    """
    leaves = dsum - 2 - 2 * common
    n = 2 + common + leaves
    edges = [(0, 1)] + [(x, 2 + i) for i in range(common) for x in (0, 1)]
    edges += [(0, 2 + common + i) for i in range(leaves)]
    return Graph(n, edges)


def test_scan_matches_definition_on_random_graphs():
    rng = random.Random(1818)
    nonempty = 0
    for _ in range(400):
        n = rng.randint(2, 30)
        prob = rng.uniform(0.05, 0.9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < prob])
        for t in range(3, 20):
            p = SeparationParams(3, t)
            want = reference_reducible_edges(g, p)
            assert scanned(g, p) == want
            nonempty += bool(want)
    assert nonempty > 3500


def test_scan_matches_definition_on_structured_graphs():
    grid = Graph(144, [(r * 12 + c, r * 12 + c + 1) for r in range(12) for c in range(11)]
                 + [(r * 12 + c, r * 12 + c + 12) for r in range(11) for c in range(12)])
    rng = random.Random(18)
    tree = Graph(200, [(v, rng.randrange(v)) for v in range(1, 200)])
    stars = [Graph(40, [(hub, v) for v in range(40) if v != hub]) for hub in (0, 39)]
    for g in (grid, tree, complete_graph(7), complete_graph(12), *stars):
        for t in (*range(3, 20), 38, 39, 40):
            p = SeparationParams(3, t)
            assert scanned(g, p) == reference_reducible_edges(g, p)


@pytest.mark.parametrize("t", range(6, 12))
@pytest.mark.parametrize("common,above,passes", [
    (1, 1, True),    # d(u) + d(v) = t + 1 <= t + min(1, 2)
    (1, 2, False),   # d(u) + d(v) = t + 2 >  t + min(1, 2)
    (2, 2, True),    # d(u) + d(v) = t + 2 <= t + min(2, 2)
    (3, 2, True),    # the count is capped at 2
    (3, 3, False),   # d(u) + d(v) = t + 3: past the scan's cut
])
def test_scan_beside_the_degree_sum_cut(t, common, above, passes):
    p = SeparationParams(3, t)
    g = edge_beside_the_cut(t, common, t + above)
    want = (0, 1, min(common, 2), common, t + above)
    assert (want in scanned(g, p)) == passes
    assert scanned(g, p) == reference_reducible_edges(g, p)


def test_edge_reduction_pass_on_easy_instance():
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])   # K1,4 plus 12
    lists = ListAssignment.from_sets(
        [set(range(5 * i, 5 * i + 5)) for i in range(5)]
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
    g = Graph(inst.graph.n, inst.graph.edges() + [(u, v)])
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
    lists = ListAssignment.from_sets([set(range(6))] * 4)
    with pytest.raises(ValueError):
        check_edge_reduction(g, 0, 2, lists, SeparationParams(3, 6))
    bad_lists = ListAssignment.from_sets([{0, 1}] * 4)
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


def reference_kernel(g: Graph, limits: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The kernel's rule by its definition: rescan from id 0 after each
    removal for a vertex whose degree is below its limit."""
    degree = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    order = []
    while True:
        v = next((v for v in range(g.n) if alive[v] and degree[v] < limits[v]), None)
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
    # A path numbered outward from its middle and stars with the centre
    # first or last: vertices become removable behind the scan.
    n = 501
    middle_out = Graph(n, [(max(v - 2, 0), v) for v in range(1, n)])
    star_first = Graph(n, [(0, v) for v in range(1, n)])
    star_last = Graph(n, [(v, n - 1) for v in range(n - 1)])
    cases = [(path_graph(500), 2), (grid, 3), (grid, 2), (middle_out, 2),
             (star_first, 2), (star_last, 2), (star_first, 100)]
    for _ in range(300):
        n = rng.randint(0, 40)
        p = rng.uniform(0.02, 0.4)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        cases.append((g, rng.randint(0, 6)))
    # The same graphs again, with one limit per vertex drawn from 1 to 6.
    cases += [(g, [rng.randint(1, 6) for _ in range(g.n)]) for g, _ in cases]
    for g, k in cases:
        if isinstance(k, int) and k < 1:
            with pytest.raises(ValueError, match="k must be at least 1"):
                greedy_kernel(g, k)
            continue
        res = greedy_kernel(g, k)
        limits = [k] * g.n if isinstance(k, int) else k
        assert (res.order, res.kernel_vertices) == reference_kernel(g, limits)


def test_kernel_refuses_limits_it_cannot_use():
    g = path_graph(3)
    with pytest.raises(ValueError, match="^2 limits for 3 vertices$"):
        greedy_kernel(g, [1, 2])
    with pytest.raises(ValueError, match="^k must be at least 1$"):
        greedy_kernel(g, (2, 0, 2))


def test_empty_kernel_certifies_choosable():
    p = SeparationParams(3, 5)
    star = Graph(6, [(0, i) for i in range(1, 6)])
    for g in (path_graph(4), star, cycle_graph(6)):
        assert greedy_kernel(g, p.k).empty
        assert decide_choosable(g, p).verdict == CHOOSABLE


def test_suite_reports_no_critical_faults():
    report = run_edge_reduction_suite(count=150, seed=424242)
    assert report.ok
    assert report.hypothesis_met == 150
    assert report.passed == 150
    assert report.critical_faults == ()


def test_a_colorless_graph_is_a_critical_fault(monkeypatch):
    # The hypothesis holds at edge 01 of C4, and every subinstance is
    # solved for real; only the solve of the whole graph answers UNSAT.
    g = cycle_graph(4)
    lists = ListAssignment.from_sets([{0, 1, 2}, {3, 4, 5}] * 2)
    real = reducibility.solve

    def unsat_on_g(h, sub, *args):
        if h is g:
            return SolveResult(UNSAT, None, 0)
        return real(h, sub, *args)

    monkeypatch.setattr(reducibility, "solve", unsat_on_g)
    result = check_edge_reduction(g, 0, 1, lists, SeparationParams(3, 5))
    assert result.verdict == CRITICAL_FAULT
    assert result.subinstance_sat == (True, True, True)


def test_suite_reports_a_fault(monkeypatch, capsys):
    # The first instance that meets the hypothesis is reported as a fault.
    real = reducibility.check_edge_reduction
    faulted = []

    def fault_once(*args):
        result = real(*args)
        if result.verdict == PASS and not faulted:
            faulted.append(result)
            return replace(result, verdict=CRITICAL_FAULT)
        return result

    monkeypatch.setattr(reducibility, "check_edge_reduction", fault_once)
    report = run_edge_reduction_suite(count=3)
    assert len(report.critical_faults) == 1
    assert report.passed == 2 and not report.ok
    faulted.clear()
    argv = ["--format", "machine", "prop31-suite", "--count", "3"]
    assert main(argv) == EXIT_NEGATIVE
    lines = capsys.readouterr().out.splitlines()
    assert "critical_faults=1" in lines and "overall=FAIL" in lines


def test_suite_is_reproducible():
    a = run_edge_reduction_suite(count=40, seed=5)
    b = run_edge_reduction_suite(count=40, seed=5)
    assert a == b
