"""Choosability decisions: named verdicts, oracle cross-checks, budgets."""

from __future__ import annotations

import itertools
import random

from listsep.assignments import ListAssignment, SeparationParams, is_valid_assignment
from listsep.choosability import (
    CHOOSABLE,
    NOT_CHOOSABLE,
    RESOURCE_LIMIT,
    Budget,
    decide_choosable,
    verify_not_choosable,
)
from listsep.constructions import build_book, build_gadget35
from listsep.graph import Graph, complete_bipartite_graph, complete_graph, cycle_graph
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


def test_metering_leaves_counts_of_runs_within_budget():
    g, p = complete_bipartite_graph(3, 3), SeparationParams(3, 5)
    for limits in (Budget(), Budget(max_nodes=290_930, max_seconds=3600)):
        verdict = decide_choosable(g, p, limits)
        assert verdict.verdict == CHOOSABLE
        assert (verdict.assignments_tested, verdict.nodes_used) == (216, 290_930)


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
