"""Backtracking solver: soundness, completeness against a product-space
oracle, determinism, precoloring, and counting."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

import pytest

from listsep.assignments import ListAssignment, SeparationParams, is_proper_coloring
from listsep.budget import CLOCK_EVERY, RESOURCE_LIMIT, Budget, Meter
from listsep.choosability import decide_choosable
from listsep.constructions import build_book, build_gadget35
from listsep.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    icosahedron_graph,
    path_graph,
)
from listsep.solver import (
    SAT,
    UNSAT,
    _Search,
    count_colorings,
    solve,
    solve_with_precolor,
)

RECORD = Path(__file__).parent / "data" / "solver_record.json"


def oracle_decide(g: Graph, lists: ListAssignment) -> bool:
    """Independent oracle: try every point of the product space."""
    choices = [lists.colors(v) for v in range(g.n)]
    edges = g.edges()
    for combo in itertools.product(*choices):
        if all(combo[u] != combo[v] for u, v in edges):
            return True
    return False


def oracle_count(g: Graph, lists: ListAssignment) -> int:
    choices = [lists.colors(v) for v in range(g.n)]
    edges = g.edges()
    return sum(
        1
        for combo in itertools.product(*choices)
        if all(combo[u] != combo[v] for u, v in edges)
    )


def random_instance(rng: random.Random, max_n: int = 5):
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = Graph(n, edges)
    sets = [set(rng.sample(range(6), rng.randint(1, 3))) for _ in range(n)]
    return g, ListAssignment.from_sets(sets, universe=6)


def recorded_instance(index: int):
    """Instance `index` of the seeded set in tests/data/solver_record.json.

    The record holds (verdict, witness by vertex, nodes) for each instance and
    for four books, as the recursive chronological fail-first search (the
    solver before backjumping and dom/deg ordering) found them. Verdicts
    must still match it; witnesses and node counts are implementation
    details, so only the record's node total bounds the current solver.
    """
    rng = random.Random(f"solver-record:{index}")
    n = rng.randint(2, 9)
    p = rng.choice((0.3, 0.5, 0.7))
    universe = rng.randint(3, 5)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    sets = [set(rng.sample(range(universe), rng.randint(2, 3))) for _ in range(n)]
    return Graph(n, edges), ListAssignment.from_sets(sets, universe=universe)


K2 = Graph(2, [(0, 1)])


def test_two_vertex_cases():
    assert solve(K2, ListAssignment.from_sets([{1}, {1}])).verdict == UNSAT
    res = solve(K2, ListAssignment.from_sets([{1}, {2}]))
    assert res.verdict == SAT
    assert res.witness == {0: 1, 1: 2}


def test_book_is_unsolvable():
    inst = build_book(2, 3)
    assert solve(inst.graph, inst.lists).verdict == UNSAT


def test_sat_witnesses_are_proper():
    rng = random.Random(101)
    for _ in range(200):
        g, lists = random_instance(rng)
        res = solve(g, lists)
        if res.verdict == SAT:
            assert is_proper_coloring(g, lists, res.witness)


def test_completeness_against_product_oracle():
    rng = random.Random(55)
    for _ in range(300):
        g, lists = random_instance(rng)
        assert (solve(g, lists).verdict == SAT) == oracle_decide(g, lists)


def test_verdict_invariant_under_relabeling():
    rng = random.Random(77)
    for _ in range(60):
        g, lists = random_instance(rng)
        perm = list(range(g.n))
        rng.shuffle(perm)
        mapped_edges = [(perm[u], perm[v]) for u, v in g.edges()]
        g2 = Graph(g.n, mapped_edges)
        sets2 = [None] * g.n
        for v in range(g.n):
            sets2[perm[v]] = lists.colors(v)
        lists2 = ListAssignment.from_sets(sets2, universe=lists.universe)
        assert solve(g, lists).verdict == solve(g2, lists2).verdict


def test_deterministic_node_counts():
    inst = build_book(2, 4)
    first = solve(inst.graph, inst.lists)
    second = solve(inst.graph, inst.lists)
    assert first.nodes_explored == second.nodes_explored


def test_precolor_extends_or_rejects():
    g = path_graph(3)
    lists = ListAssignment.from_sets([{5}, {5, 7}, {5}], universe=8)
    # center forced to the only color shared with both singleton ends
    assert solve_with_precolor(g, lists, {1: 5}).verdict == UNSAT
    assert solve_with_precolor(g, lists, {1: 7}).verdict == SAT
    with pytest.raises(ValueError):
        solve_with_precolor(g, lists, {1: 6})
    with pytest.raises(ValueError):
        solve_with_precolor(g, lists, {7: 5})


def test_own_witness_as_precolor_is_sat():
    rng = random.Random(13)
    for _ in range(50):
        g, lists = random_instance(rng)
        res = solve(g, lists)
        if res.verdict == SAT:
            again = solve_with_precolor(g, lists, res.witness)
            assert again.verdict == SAT


def test_gadget_blocks_its_own_color_pair():
    inst = build_gadget35()
    assert solve_with_precolor(inst.graph, inst.lists, {0: 0, 1: 3}).verdict == UNSAT


def test_count_colorings():
    single = Graph(1)
    assert count_colorings(single, ListAssignment.from_sets([{1, 2, 3}]), 100) == 3
    assert count_colorings(K2, ListAssignment.from_sets([{1, 2}, {1, 2}]), 100) == 2
    c4 = cycle_graph(4)
    L = ListAssignment.from_sets([{1, 2}] * 4)
    assert count_colorings(c4, L, 100) == 2
    assert count_colorings(c4, L, 1) == 1
    with pytest.raises(ValueError):
        count_colorings(c4, L, 0)


def test_count_matches_oracle():
    rng = random.Random(31)
    for _ in range(150):
        g, lists = random_instance(rng, max_n=4)
        assert count_colorings(g, lists, 10_000) == oracle_count(g, lists)


def test_count_matches_oracle_up_to_n8():
    rng = random.Random(808)
    for _ in range(40):
        n = rng.randint(6, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = Graph(n, edges)
        sets = [set(rng.sample(range(5), rng.randint(1, 3))) for _ in range(n)]
        lists = ListAssignment.from_sets(sets, universe=5)
        assert count_colorings(g, lists, 10_000) == oracle_count(g, lists)
        assert (solve(g, lists).verdict == SAT) == oracle_decide(g, lists)


def test_recorded_verdicts_and_proper_witnesses_in_fewer_nodes():
    record = json.loads(RECORD.read_text(encoding="utf-8"))
    recorded_total = total = 0
    for i, (verdict, _, nodes) in enumerate(record["random"]):
        g, lists = recorded_instance(i)
        res = solve(g, lists)
        assert res.verdict == verdict, i
        if res.verdict == SAT:
            assert is_proper_coloring(g, lists, res.witness), i
        recorded_total += nodes
        total += res.nodes_explored
    assert recorded_total == 1_250
    assert total <= recorded_total
    for key, (verdict, _, _) in record["books"].items():
        inst = build_book(*map(int, key.split(",")))
        assert solve(inst.graph, inst.lists).verdict == verdict, key


def reference_pick(self) -> int:
    """dom/deg pick as a plain scan: the first uncolored vertex with at most
    one candidate, else the smallest |cand| / deg compared as integer cross
    products, lowest id on ties."""
    best, best_count, best_deg = -1, 0, 1
    for v, nbrs in enumerate(self.nbrs):
        if self.color[v] < 0:
            count, deg = self.cand[v].bit_count(), len(nbrs) or 1
            if count <= 1:
                return v
            if best < 0 or count * best_deg < best_count * deg:
                best, best_count, best_deg = v, count, deg
    return best


def test_pick_matches_reference_scan(monkeypatch):
    rng = random.Random(2024)
    cases = []
    for _ in range(3_000):
        n = rng.randint(1, 18)
        p = rng.choice((0.15, 0.3, 0.5))
        universe = rng.randint(3, 5)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < p]
        sets = [set(rng.sample(range(universe), rng.randint(1, 3)))
                for _ in range(n)]
        lists = ListAssignment.from_sets(sets, universe=universe)
        v = rng.randrange(n)
        fixed = {v: rng.choice(lists.colors(v))} if rng.random() < 0.3 else {}
        cases.append((Graph(n, edges), lists, fixed))

    def run_all():
        out = []
        for g, lists, fixed in cases:
            res = solve_with_precolor(g, lists, fixed)
            count = count_colorings(g, lists, 10_000) if g.n <= 8 else None
            out.append((res, count))
        return out

    mine = run_all()
    monkeypatch.setattr(_Search, "pick", reference_pick)
    assert run_all() == mine
    for (g, lists, _), (_, count) in zip(cases, mine):
        if count is not None:
            assert count == oracle_count(g, lists)


def test_book37_is_refuted_without_a_budget():
    inst = build_book(3, 7)
    res = solve(inst.graph, inst.lists)
    assert (res.verdict, res.nodes_explored) == (UNSAT, 155)


def test_gadget35_backjumps_over_independent_copies():
    inst = build_gadget35()
    res = solve(inst.graph, inst.lists)
    assert res.verdict == UNSAT
    assert res.nodes_explored <= 100


def test_backjumping_skips_an_independent_colorable_part():
    # K5,5 (lists {0,1} on one side, {2,3} on the other) has 1,024
    # colorings and dom/deg colors it first; the disjoint K4 from three
    # colors then fails. Backtracking chronologically would refute the K4
    # again under every coloring of K5,5 (17,406 nodes).
    k55 = [(u, v) for u in range(5) for v in range(5, 10)]
    k4 = [(u, v) for u in range(10, 14) for v in range(u + 1, 14)]
    lists = ListAssignment.from_sets([{0, 1}] * 5 + [{2, 3}] * 5 + [{4, 5, 6}] * 4)
    res = solve(Graph(14, k55 + k4), lists)
    assert res.verdict == UNSAT
    assert res.nodes_explored <= 100


def test_gadget35_node_count_does_not_depend_on_labelling():
    inst = build_gadget35()
    g, n = inst.graph, inst.graph.n
    counts = set()
    rng = random.Random(35)
    for _ in range(30):
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
        sets = [None] * n
        for v in range(n):
            sets[perm[v]] = inst.lists.colors(v)
        lists = ListAssignment.from_sets(sets, universe=inst.lists.universe)
        res = solve(relabeled, lists)
        assert res.verdict == UNSAT
        counts.add(res.nodes_explored)
    assert counts == {84}


def test_long_path_needs_no_recursion():
    n = 3000
    g = path_graph(n)
    lists = ListAssignment.from_sets([{0, 1, 2}] * n)
    res = solve(g, lists)
    assert res.verdict == SAT
    assert is_proper_coloring(g, lists, res.witness)
    assert count_colorings(g, lists, 10) == 10


def test_solve_budget_cuts_off_and_is_charged_exactly():
    # K8 from seven colors is symmetric, so no vertex order shortens its
    # search below the 1,024 nodes between two clock reads.
    g, lists = complete_graph(8), ListAssignment.from_sets([range(7)] * 8)
    full = solve(g, lists)
    assert (full.verdict, full.nodes_explored) == (UNSAT, 13_699)
    meter = Meter(Budget(max_nodes=100))
    res = solve(g, lists, meter)
    assert (res.verdict, res.witness, res.nodes_explored) == (RESOURCE_LIMIT, None, 101)
    assert meter.nodes == 101
    meter = Meter(Budget(max_nodes=full.nodes_explored, max_seconds=3600))
    assert solve(g, lists, meter) == full
    assert meter.nodes == full.nodes_explored
    res = solve(g, lists, Meter(Budget(max_seconds=0)))
    assert (res.verdict, res.nodes_explored) == (RESOURCE_LIMIT, CLOCK_EVERY)


def test_decide_cannot_overrun_its_budget():
    # The icosahedron's first solve at (3,5) makes nodes 657 to 668 of the
    # decision, so the budgets from 656 to 667 run out inside it.
    ico, p = icosahedron_graph(), SeparationParams(3, 5)
    for max_nodes in range(650, 675):
        verdict = decide_choosable(ico, p, Budget(max_nodes=max_nodes))
        assert verdict.verdict == RESOURCE_LIMIT
        assert verdict.nodes_used == max_nodes + 1
    verdict = decide_choosable(ico, p, Budget(max_seconds=0))
    assert verdict.verdict == RESOURCE_LIMIT
    assert verdict.nodes_used == CLOCK_EVERY
