"""Backtracking solver: soundness, completeness against a product-space
oracle, determinism, singleton lists that pin a color and the peel of
vertices whose lists outnumber their degrees."""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from listsep import solver
from listsep.assignments import ListAssignment, SeparationParams, is_proper_coloring
from listsep.budget import CLOCK_EVERY, RESOURCE_LIMIT, Meter
from listsep.choosability import decide_choosable
from listsep.constructions import build_book, build_gadget35
from listsep.graph import (
    MAX_VERTICES,
    Graph,
    complete_graph,
    greedy_kernel,
    icosahedron_graph,
    path_graph,
)
from listsep.solver import SAT, UNSAT, SolveResult, _Search, solve

RECORD = Path(__file__).parent / "data" / "solver_record.json"


def oracle_decide(g: Graph, lists: ListAssignment) -> bool:
    """Independent oracle: try every point of the product space."""
    choices = [lists.colors(v) for v in range(g.n)]
    edges = g.edges()
    for combo in itertools.product(*choices):
        if all(combo[u] != combo[v] for u, v in edges):
            return True
    return False


def random_instance(rng: random.Random, max_n: int = 5):
    n = rng.randint(1, max_n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = Graph(n, edges)
    sets = [set(rng.sample(range(6), rng.randint(1, 3))) for _ in range(n)]
    return g, ListAssignment.from_sets(sets)


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
    return Graph(n, edges), ListAssignment.from_sets(sets)


def pin(lists: ListAssignment, fixed: dict[int, int]) -> ListAssignment:
    """`lists` with each fixed vertex's list cut to its fixed color."""
    return ListAssignment([1 << fixed[v] if v in fixed else lists.mask(v)
                           for v in range(len(lists))])


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
        lists2 = ListAssignment.from_sets(sets2)
        assert solve(g, lists).verdict == solve(g2, lists2).verdict


def test_deterministic_node_counts():
    inst = build_book(2, 4)
    first = solve(inst.graph, inst.lists)
    second = solve(inst.graph, inst.lists)
    assert first.nodes_explored == second.nodes_explored


def test_pinned_center_extends_or_rejects():
    g = path_graph(3)
    lists = ListAssignment.from_sets([{5}, {5, 7}, {5}])
    # center pinned to the only color shared with both singleton ends
    assert solve(g, pin(lists, {1: 5})).verdict == UNSAT
    assert solve(g, pin(lists, {1: 7})).verdict == SAT


def test_own_witness_as_precolor_is_sat():
    rng = random.Random(13)
    for _ in range(50):
        g, lists = random_instance(rng)
        res = solve(g, lists)
        if res.verdict == SAT:
            again = solve(g, pin(lists, res.witness))
            assert again.verdict == SAT


def test_gadget_blocks_its_own_color_pair():
    inst = build_gadget35()
    assert solve(inst.graph, pin(inst.lists, {0: 0, 1: 3})).verdict == UNSAT


def assert_matches_oracle(g: Graph, lists: ListAssignment, res) -> None:
    assert (res.verdict == SAT) == oracle_decide(g, lists)
    if res.verdict == SAT:
        assert is_proper_coloring(g, lists, res.witness)


def test_count_matches_oracle():
    rng = random.Random(31)
    for _ in range(150):
        g, lists = random_instance(rng, max_n=4)
        assert_matches_oracle(g, lists, solve(g, lists))


def test_count_matches_oracle_up_to_n8():
    rng = random.Random(808)
    for _ in range(40):
        n = rng.randint(6, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.4]
        g = Graph(n, edges)
        sets = [set(rng.sample(range(5), rng.randint(1, 3))) for _ in range(n)]
        lists = ListAssignment.from_sets(sets)
        assert_matches_oracle(g, lists, solve(g, lists))


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


def checked_runs(monkeypatch, run_all):
    """run_all() with every pick checked against reference_pick as it is
    made; a second run with reference_pick in its place must agree."""
    pick = _Search.pick

    def checked_pick(self):
        v = pick(self)
        assert v == reference_pick(self)
        return v

    monkeypatch.setattr(_Search, "pick", checked_pick)
    mine = run_all()
    monkeypatch.setattr(_Search, "pick", reference_pick)
    assert run_all() == mine
    return mine


def test_pick_matches_reference_scan(monkeypatch):
    # Sizes run across 16 vertices, below which every pick scans.
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
        lists = ListAssignment.from_sets(sets)
        v = rng.randrange(n)
        fixed = {v: rng.choice(lists.colors(v))} if rng.random() < 0.3 else {}
        cases.append((Graph(n, edges), pin(lists, fixed)))
    cases.append((Graph(0), ListAssignment([])))

    def run_all():
        return [solve(g, lists) for g, lists in cases]

    mine = checked_runs(monkeypatch, run_all)
    assert mine[-1] == SolveResult(SAT, {}, 0)
    for (g, lists), res in zip(cases, mine):
        if res.verdict == SAT:
            assert is_proper_coloring(g, lists, res.witness)
        if g.n <= 8:
            assert (res.verdict == SAT) == oracle_decide(g, lists)


def relabeled(g: Graph, lists: ListAssignment, rng: random.Random):
    """g and its lists with the vertices renamed by a random permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    sets = [None] * g.n
    for v in range(g.n):
        sets[perm[v]] = lists.colors(v)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return Graph(g.n, edges), ListAssignment.from_sets(sets)


def test_heap_pick_matches_reference_scan(monkeypatch):
    # From 16 vertices up, picks on forward runs come from a heap. The
    # instances mix forward runs with backtracking. In the first shape
    # every key is 1 and ties go to the lowest id, so a path whose lists
    # alternate between two disjoint pairs is colored first, one vertex a
    # pick, long enough for the heap to be built; the clique after it then
    # fails while the heap is in use, so its unwinds must drop the heap.
    rng = random.Random(2025)
    cases = []
    for _ in range(12):
        n, m = rng.randint(128, 300), rng.randint(5, 8)
        edges = [(v - 1, v) for v in range(1, n)]
        edges += [(u, v) for u in range(n, n + m) for v in range(u + 1, n + m)]
        lists = ListAssignment.from_sets(
            [{0, 1} if v % 2 else {2, 3} for v in range(n)]
            + [range(m - 1)] * m)
        cases.append((Graph(n + m, edges), lists))
    for shape in ("path", "tree", "grid", "gnp"):
        for _ in range(12):
            n = rng.randint(64, 600)
            if shape == "path":
                edges = [(v - 1, v) for v in range(1, n)]
            elif shape == "tree":
                edges = [(rng.randrange(v), v) for v in range(1, n)]
            elif shape == "grid":
                c = rng.randint(4, 24)
                n -= n % c
                edges = ([(v, v + 1) for v in range(n) if v % c < c - 1]
                         + [(v, v + c) for v in range(n - c)])
            else:
                p = rng.uniform(2, 6) / (n - 1)
                edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < p]
            universe = rng.randint(3, 5)
            lists = ListAssignment.from_sets(
                [rng.sample(range(universe), rng.randint(2, min(4, universe)))
                 for _ in range(n)])
            v = rng.randrange(n)
            fixed = {v: rng.choice(lists.colors(v))} if rng.random() < 0.3 else {}
            cases.append((Graph(n, edges), pin(lists, fixed)))
    books = [build_book(k, t) for k, t in ((3, 6), (3, 7), (4, 7))]
    for inst in books + [build_gadget35()] * 4:
        cases.append(relabeled(inst.graph, inst.lists, rng))

    def run_all():
        return [solve(g, lists, Meter(max_nodes=4 * g.n))
                for g, lists in cases]

    mine = checked_runs(monkeypatch, run_all)
    sat = [(res.nodes_explored, g.n) for (g, _), res in zip(cases, mine)
           if res.verdict == SAT]
    assert any(nodes > n for nodes, n in sat)
    assert any(nodes == n for nodes, n in sat)
    assert {res.verdict for res in mine} == {SAT, UNSAT, RESOURCE_LIMIT}
    for (g, lists), res in zip(cases, mine):
        if res.verdict == SAT:
            assert is_proper_coloring(g, lists, res.witness)


def test_book37_is_refuted_without_a_budget():
    # The solver's docstring and the README give both counts.
    for k, t, nodes in ((3, 7, 155), (4, 7, 340)):
        inst = build_book(k, t)
        res = solve(inst.graph, inst.lists)
        assert (res.verdict, res.nodes_explored) == (UNSAT, nodes)


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
        lists = ListAssignment.from_sets(sets)
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


def test_longest_path_is_colored_without_backtracking():
    # Every vertex peels, and each greedily colored one is a node.
    n = MAX_VERTICES
    g = path_graph(n)
    lists = ListAssignment.from_sets([{0, 1, 2}] * n)
    res = solve(g, lists)
    assert (res.verdict, res.nodes_explored) == (SAT, n)
    assert is_proper_coloring(g, lists, res.witness)


def test_longest_prism_is_colored_by_the_heap_pick():
    # C50000 x K2 is 3-regular, so with 3-color lists no vertex peels and
    # the search picks every vertex: one node each, from the heap; a scan
    # at every pick took minutes on the path.
    half = MAX_VERTICES // 2
    g = Graph(2 * half, [(v, (v + 1) % half) for v in range(half)]
              + [(half + v, half + (v + 1) % half) for v in range(half)]
              + [(v, half + v) for v in range(half)])
    assert len(greedy_kernel(g, 3).kernel_vertices) == g.n
    lists = ListAssignment.from_sets([{0, 1, 2}] * g.n)
    res = solve(g, lists)
    assert (res.verdict, res.nodes_explored) == (SAT, g.n)
    assert is_proper_coloring(g, lists, res.witness)


def peeled_instance(rng: random.Random):
    """A core, then up to five vertices hung on it one at a time, each on
    one or two earlier vertices (pendant trees) or on none (isolated), with
    lists of one to three colors. The core is K4 from three colors or
    book(2,3), both uncolorable, or a random graph on up to four vertices
    with lists of one to four colors, so lists longer than the degree and
    singletons of degree 0 both occur."""
    shape = rng.choice(("K4", "book", "random"))
    if shape == "K4":
        n, edges = 4, complete_graph(4).edges()
        sets = [{0, 1, 2}] * 4
    elif shape == "book":
        inst = build_book(2, 3)
        n, edges = inst.graph.n, inst.graph.edges()
        sets = [inst.lists.colors(v) for v in range(n)]
    else:
        n = rng.randint(1, 4)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.6]
        sets = [rng.sample(range(4), rng.randint(1, 4)) for _ in range(n)]
    for v in range(n, n + rng.randint(0, 5)):
        edges += [(u, v) for u in rng.sample(range(v), rng.randint(0, min(2, v)))]
        sets.append(rng.sample(range(4), rng.randint(1, 3)))
    return Graph(len(sets), edges), ListAssignment.from_sets(sets)


def test_peeled_instances_match_product_oracle(monkeypatch):
    # The solver's peel is recorded, so the nodes of the greedy extension
    # are known: the last len(order) nodes of a SAT solve.
    peels = []

    def recorded(g, k):
        peels.append(greedy_kernel(g, k))
        return peels[-1]

    monkeypatch.setattr(solver, "greedy_kernel", recorded)
    rng = random.Random(3535)
    seen = set()
    for _ in range(250):
        g, lists = peeled_instance(rng)
        peels.clear()
        res = solve(g, lists)
        assert_matches_oracle(g, lists, res)
        if not peels:
            continue
        assert len(peels) == 1
        kernel, order = peels[0].kernel_vertices, peels[0].order
        seen.add((res.verdict, bool(kernel)))
        if not kernel:
            assert res.nodes_explored == g.n
        if res.verdict != SAT:
            continue
        for j in range(res.nodes_explored - len(order), res.nodes_explored):
            cut = solve(g, lists, Meter(max_nodes=j))
            assert cut == SolveResult(RESOURCE_LIMIT, None, j + 1)
        assert solve(g, lists, Meter(max_nodes=res.nodes_explored)) == res
    assert seen == {(SAT, False), (SAT, True), (UNSAT, True)}


def test_solve_budget_cuts_off_and_is_charged_exactly():
    # K8 from seven colors is symmetric, so no vertex order shortens its
    # search below the 1,024 nodes between two clock reads.
    g, lists = complete_graph(8), ListAssignment.from_sets([range(7)] * 8)
    full = solve(g, lists)
    assert (full.verdict, full.nodes_explored) == (UNSAT, 13_699)
    meter = Meter(max_nodes=100)
    res = solve(g, lists, meter)
    assert (res.verdict, res.witness, res.nodes_explored) == (RESOURCE_LIMIT, None, 101)
    assert meter.nodes == 101
    meter = Meter(max_nodes=full.nodes_explored, max_seconds=3600)
    assert solve(g, lists, meter) == full
    assert meter.nodes == full.nodes_explored
    res = solve(g, lists, Meter(max_seconds=0))
    assert (res.verdict, res.nodes_explored) == (RESOURCE_LIMIT, CLOCK_EVERY)


def test_decide_cannot_overrun_its_budget():
    # The icosahedron's first solve at (3,5) makes nodes 657 to 668 of the
    # decision, so the budgets from 656 to 667 run out inside it.
    ico, p = icosahedron_graph(), SeparationParams(3, 5)
    for max_nodes in range(650, 675):
        verdict = decide_choosable(ico, p, Meter(max_nodes=max_nodes))
        assert verdict.verdict == RESOURCE_LIMIT
        assert verdict.nodes_used == max_nodes + 1
    verdict = decide_choosable(ico, p, Meter(max_seconds=0))
    assert verdict.verdict == RESOURCE_LIMIT
    assert verdict.nodes_used == CLOCK_EVERY
