"""Choosability decisions: named verdicts, oracle cross-checks, budgets."""

from __future__ import annotations

import itertools
import random
import time
from types import SimpleNamespace

from listsep import budget, choosability
from listsep.assignments import ListAssignment, SeparationParams, is_valid_assignment
from listsep.budget import CLOCK_EVERY, BudgetExceeded, Meter
from listsep.choosability import (
    CHOOSABLE,
    NOT_CHOOSABLE,
    RESOURCE_LIMIT,
    Budget,
    decide_choosable,
    verify_not_choosable,
)
from listsep.constructions import build_book, build_gadget35
from listsep.graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    icosahedron_graph,
    induced_subgraph,
)
from listsep.reducibility import greedy_kernel
from listsep.solver import UNSAT, solve


def oracle_box_witness(g: Graph, p: SeparationParams, extra_colors=2, extra_size=1):
    """Brute force without canonicalization: scan every assignment whose lists
    come from a fixed box (sizes k..k+extra_size over k+extra_colors colors)
    and return a valid unsolvable one if any exists."""
    universe = p.k + extra_colors
    pool = []
    for size in range(p.k, p.k + extra_size + 1):
        pool += list(itertools.combinations(range(universe), size))
    for combo in itertools.product(pool, repeat=g.n):
        lists = ListAssignment.from_sets(combo, universe=universe)
        if not is_valid_assignment(g, lists, p):
            continue
        if solve(g, lists).verdict == UNSAT:
            return lists
    return None


def test_even_cycles_are_2_2_choosable():
    p = SeparationParams(2, 2)
    assert decide_choosable(cycle_graph(4), p).verdict == CHOOSABLE
    assert decide_choosable(cycle_graph(6), p).verdict == CHOOSABLE


def test_odd_cycles_are_not_2_2_choosable():
    p = SeparationParams(2, 2)
    for n in (3, 5):
        verdict = decide_choosable(cycle_graph(n), p)
        assert verdict.verdict == NOT_CHOOSABLE
        assert verify_not_choosable(cycle_graph(n), verdict.witness, p)


def test_k4_not_3_3_choosable():
    p = SeparationParams(3, 3)
    verdict = decide_choosable(complete_graph(4), p)
    assert verdict.verdict == NOT_CHOOSABLE
    assert verify_not_choosable(complete_graph(4), verdict.witness, p)


def test_k24_not_2_3_choosable():
    g = complete_bipartite_graph(2, 4)
    p = SeparationParams(2, 3)
    verdict = decide_choosable(g, p)
    assert verdict.verdict == NOT_CHOOSABLE
    assert verify_not_choosable(g, verdict.witness, p)


def test_union_monotonicity_of_witnesses():
    # a witness for separation t' certifies every t with k <= t <= t'
    g = complete_bipartite_graph(2, 4)
    witness = decide_choosable(g, SeparationParams(2, 3)).witness
    assert verify_not_choosable(g, witness, SeparationParams(2, 2))


def test_low_degree_vertices_are_padded_into_witnesses():
    # K4 plus an isolated vertex: the core decides, the isolated vertex gets
    # a fresh list in the returned witness
    g = Graph(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    p = SeparationParams(3, 3)
    verdict = decide_choosable(g, p)
    assert verdict.verdict == NOT_CHOOSABLE
    assert verify_not_choosable(g, verdict.witness, p)
    assert verdict.witness.size(4) >= 3


def test_empty_kernel_means_choosable():
    rng = random.Random(41)
    p = SeparationParams(3, 5)
    for _ in range(25):
        n = rng.randint(1, 7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
        ]
        g = Graph(n, edges)
        if greedy_kernel(g, p.k).empty:
            result = decide_choosable(g, p)
            assert result.verdict == CHOOSABLE
            assert result.assignments_tested == 0


def test_choosable_verdict_stable_under_relabeling():
    perm = [2, 0, 3, 1]
    edges = [(perm[u], perm[v]) for u, v in cycle_graph(4).edges()]
    assert decide_choosable(Graph(4, edges), SeparationParams(2, 2)).verdict == CHOOSABLE


def test_budget_exhaustion_is_reported_not_coerced():
    verdict = decide_choosable(
        cycle_graph(6), SeparationParams(2, 2), Budget(max_nodes=5)
    )
    assert verdict.verdict == RESOURCE_LIMIT
    assert verdict.witness is None


def test_clock_is_read_once_per_1024_nodes(monkeypatch):
    reads = []

    def monotonic():
        reads.append(None)
        return time.monotonic()

    monkeypatch.setattr(budget, "time", SimpleNamespace(monotonic=monotonic))
    p = SeparationParams(3, 5)
    for g, max_nodes, expected in ((complete_bipartite_graph(3, 3), 10_000_000, 285),
                                   (complete_graph(5), 100_000, 98)):
        reads.clear()
        verdict = decide_choosable(g, p, Budget(max_nodes, max_seconds=3600))
        assert len(reads) == 1 + min(verdict.nodes_used, max_nodes) // CLOCK_EVERY
        assert len(reads) == expected


def test_metering_leaves_counts_of_runs_within_budget():
    g, p = complete_bipartite_graph(3, 3), SeparationParams(3, 5)
    for limits in (Budget(), Budget(max_nodes=290_930, max_seconds=3600)):
        verdict = decide_choosable(g, p, limits)
        assert verdict.verdict == CHOOSABLE
        assert (verdict.assignments_tested, verdict.nodes_used) == (216, 290_930)


def test_budgeted_counts_of_graphs_past_the_budget():
    p, limits = SeparationParams(3, 5), Budget(max_nodes=400_000)
    for g, tested in ((complete_graph(5), 701), (icosahedron_graph(), 2_534),
                      (complete_bipartite_graph(4, 4), 0)):
        verdict = decide_choosable(g, p, limits)
        assert (verdict.verdict, verdict.assignments_tested, verdict.nodes_used) == (
            RESOURCE_LIMIT, tested, 400_001)
        assert verdict.witness is None


def test_plain_k_choosability_at_t_equal_k():
    # at t = k the decision coincides with plain k-choosability
    p = SeparationParams(2, 2)
    assert decide_choosable(Graph(3, [(0, 1), (1, 2)]), p).verdict == CHOOSABLE
    assert decide_choosable(complete_graph(3), p).verdict == NOT_CHOOSABLE
    assert decide_choosable(complete_graph(3), SeparationParams(3, 3)).verdict == CHOOSABLE


def test_agrees_with_box_oracle_on_small_graphs():
    rng = random.Random(99)
    params = [SeparationParams(2, 2), SeparationParams(2, 3), SeparationParams(3, 3),
              SeparationParams(2, 1)]
    for _ in range(12):
        n = rng.randint(2, 4)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6
        ]
        g = Graph(n, edges)
        for p in params:
            mine = decide_choosable(g, p)
            boxed = oracle_box_witness(g, p)
            if boxed is not None:
                assert mine.verdict == NOT_CHOOSABLE
            if mine.verdict == NOT_CHOOSABLE:
                assert verify_not_choosable(g, mine.witness, p)


def test_verify_not_choosable_cases():
    inst = build_gadget35()
    assert verify_not_choosable(inst.graph, inst.lists, SeparationParams(3, 5))
    # same lists fail validity at separation 6, so they certify nothing there
    assert not verify_not_choosable(inst.graph, inst.lists, SeparationParams(3, 6))

    # distinct singleton-extended lists: trivially solvable, so not a witness
    g = complete_graph(3)
    lists = ListAssignment.from_sets([{0, 3}, {1, 3}, {2, 3}])
    assert not verify_not_choosable(g, lists, SeparationParams(2, 2))


def test_book_witnesses_verify_for_their_parameters():
    for k, t in [(2, 3), (2, 4)]:
        inst = build_book(k, t)
        assert verify_not_choosable(inst.graph, inst.lists, inst.params)


def reference_candidate_sets(used: int, size: int) -> list[tuple[int, ...]]:
    """The enumerator's canonical color sets as tuples, sorted."""
    out = []
    for fresh in range(size + 1):
        old_needed = size - fresh
        if old_needed > used:
            continue
        new_block = tuple(range(used, used + fresh))
        for old in itertools.combinations(range(used), old_needed):
            out.append(old + new_block)
    out.sort()
    return out


def reference_tight_assignments(h: Graph, p: SeparationParams, meter: Meter):
    """The enumeration by its definition: every candidate built from its color
    tuple, checked against each earlier neighbor, and every ready vertex's
    safe-vertex and removable-color test rerun from its whole neighborhood."""
    n = h.n
    k, t = p.k, p.t
    union = p.regime == "union"
    if union:
        size_ranges = [range(k, min(h.degree(v), t) + 1) for v in range(n)]
    else:
        size_ranges = [range(k, k + 1)] * n
    edges = h.edges()
    nbrs = [h.neighbors(v) for v in range(n)]
    earlier = [[u for u in nbrs[v] if u < v] for v in range(n)]
    ready: list[list[int]] = [[] for _ in range(n)]
    for w in range(n):
        ready[max(w, *nbrs[w])].append(w)

    masks = [0] * n

    def prunable(i: int) -> bool:
        for w in ready[i]:
            nbr_union = 0
            for u in nbrs[w]:
                nbr_union |= masks[u]
            if masks[w] & ~nbr_union:
                return True
            if union and masks[w].bit_count() > k:
                mw = masks[w]
                rest = mw
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    trimmed = mw & ~bit
                    if all(
                        (trimmed | masks[u]).bit_count() >= t for u in nbrs[w]
                    ):
                        return True
        return False

    for sizes in itertools.product(*size_ranges):
        if union and any(sizes[u] + sizes[v] < t for u, v in edges):
            continue
        levels = [(iter(reference_candidate_sets(0, sizes[0])), 0)]
        while levels:
            i = len(levels) - 1
            candidates, before = levels[i]
            for cols in candidates:
                meter.spend(1)
                m = 0
                for c in cols:
                    m |= 1 << c
                ok = True
                for u in earlier[i]:
                    if union:
                        if (m | masks[u]).bit_count() < t:
                            ok = False
                            break
                    elif (m & masks[u]).bit_count() > t:
                        ok = False
                        break
                if not ok:
                    continue
                masks[i] = m
                if not prunable(i):
                    break
            else:
                levels.pop()
                continue
            now = max(before, m.bit_length())
            if i + 1 == n:
                yield tuple(masks), now
            else:
                levels.append((iter(reference_candidate_sets(now, sizes[i + 1])), now))


def seeded_cases(count: int, seed: int):
    """(core, params) for `count` random graphs whose k-core is nonempty,
    n <= 8, k 1..3 and t 0..7, so both regimes occur."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(2, 8)
        density = rng.choice((0.5, 0.7, 0.9, 1.0))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
        ]
        p = SeparationParams(rng.randint(1, 3), rng.randint(0, 7))
        g = Graph(n, edges)
        kept = greedy_kernel(g, p.k).kernel_vertices
        if kept:
            count -= 1
            yield induced_subgraph(g, kept)[0], p


def enumeration_record(enumerate_on, h: Graph, p: SeparationParams, max_nodes: int):
    """Every (masks, universe, nodes charged) the enumeration yields within
    max_nodes, then the nodes charged when it ended."""
    meter = Meter(Budget(max_nodes=max_nodes))
    out = []
    try:
        for masks, universe in enumerate_on(h, p, meter):
            out.append((masks, universe, meter.nodes))
    except BudgetExceeded:
        pass
    return out, meter.nodes


# Small decisions to cut at every node count up to their end, as (graph,
# params, nodes the whole decision takes).
CUT_CASES = [
    (complete_bipartite_graph(2, 4), SeparationParams(2, 3), 293),
    (cycle_graph(5), SeparationParams(2, 2), 13),
    (complete_graph(4), SeparationParams(3, 3), 19),
]


def test_enumeration_matches_reference():
    regimes, shared = set(), {}
    cases = [(h, p, 3_000) for h, p in seeded_cases(300, 2024)] + [
        (g, p, max_nodes) for g, p, full in CUT_CASES for max_nodes in range(full + 1)
    ]
    for h, p, max_nodes in cases:
        regimes.add(p.regime)
        mine = enumeration_record(
            lambda h, p, meter: choosability._tight_assignments(h, p, meter, shared),
            h, p, max_nodes,
        )
        assert mine == enumeration_record(reference_tight_assignments, h, p, max_nodes)
    assert regimes == {"union", "intersection"}


def test_candidate_masks_match_reference_sets():
    for used in range(6):
        for size in range(5):
            expected = reference_candidate_sets(used, size)
            assert choosability._candidate_masks(used, size) == [
                sum(1 << c for c in cols) for cols in expected
            ]


def test_decisions_match_reference_enumeration(monkeypatch):
    cases = list(seeded_cases(60, 2025)) + [
        (complete_graph(5), SeparationParams(3, 5)),
        (complete_bipartite_graph(3, 3), SeparationParams(3, 5)),
        (cycle_graph(5), SeparationParams(2, 2)),
        (complete_graph(4), SeparationParams(3, 1)),
    ]

    def reference(h, p, meter, candidates):
        return reference_tight_assignments(h, p, meter)

    runs = [(g, p, Budget(max_nodes)) for max_nodes in (1_000, 50_000) for g, p in cases]
    for g, p, full in CUT_CASES:
        verdict = decide_choosable(g, p)
        assert (verdict.verdict, verdict.nodes_used) == (NOT_CHOOSABLE, full)
        runs += [(g, p, Budget(max_nodes)) for max_nodes in range(full + 1)]
    mine = [decide_choosable(g, p, limits) for g, p, limits in runs]
    with monkeypatch.context() as patch:
        patch.setattr(choosability, "_tight_assignments", reference)
        assert mine == [decide_choosable(g, p, limits) for g, p, limits in runs]
