"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated runtime tolerance."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from listsep.assignments import ListAssignment, SeparationParams, is_valid_assignment
from listsep.budget import Meter
from listsep.choosability import (
    CHOOSABLE,
    NOT_CHOOSABLE,
    decide_choosable,
    verify_not_choosable,
)
from listsep.constructions import build_book, build_gadget35
from listsep.graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    petersen_graph,
)
from listsep.reducibility import run_edge_reduction_suite
from listsep.solver import SAT, UNSAT, solve
from listsep.sparsity import mad_bruteforce, mad_exact, verify_charge_algebra
from listsep.tuple_audit import FAILS_INEQ1, full_audit

GOLDEN = Path(__file__).parent / "data" / "tuple_table_golden.txt"


def _normalize(text: str) -> list[str]:
    return [" ".join(line.split()) for line in text.strip().splitlines()]


def _report(index: int, label: str, elapsed: float, bound: float | None) -> None:
    budget = f" [{elapsed:.2f}s < {bound:g}s]" if bound else f" [{elapsed:.2f}s]"
    print(f"criterion {index}: PASS {label}{budget}")


def test_criterion_1_tuple_table_reproduction():
    start = time.monotonic()
    report = full_audit()
    assert len(report.rows) == 77
    assert all(row.verdict == FAILS_INEQ1 for row in report.rows)
    golden = GOLDEN.read_text(encoding="utf-8")
    assert _normalize(report.render()) == _normalize(golden)
    elapsed = time.monotonic() - start
    assert elapsed < 1
    _report(1, "77 tuples, all fail (1) at their minimum degree, golden diff empty",
            elapsed, 1)


def test_criterion_2_planar_gadget_witness():
    start = time.monotonic()
    inst = build_gadget35()
    assert inst.graph.n == 47
    assert inst.graph.m == 126
    assert is_valid_assignment(inst.graph, inst.lists, SeparationParams(3, 5))
    assert solve(inst.graph, inst.lists).verdict == UNSAT
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _report(2, "47-vertex planar gadget: valid (3,5)-assignment, no coloring",
            elapsed, 10)


def test_criterion_3_book_witnesses():
    for k, t in [(2, 3), (2, 4), (3, 5), (3, 6)]:
        start = time.monotonic()
        inst = build_book(k, t)
        pages = (t - k + 1) ** k
        assert inst.graph.n == k + pages
        assert inst.graph.m == k * pages
        assert is_valid_assignment(inst.graph, inst.lists, SeparationParams(k, t))
        assert solve(inst.graph, inst.lists).verdict == UNSAT
        assert inst.graph.average_degree() == Fraction(2 * k * pages, k + pages)
        elapsed = time.monotonic() - start
        assert elapsed < 5
        _report(3, f"book({k},{t}): counts, validity, no coloring, exact density",
                elapsed, 5)


def test_criterion_4_charge_algebra_grid():
    start = time.monotonic()
    for k in range(2, 7):
        for t in range(2 * k - 1, 31):
            report = verify_charge_algebra(k, t)
            assert len(report.checks) == 6
            assert report.passed, (k, t)
    assert verify_charge_algebra(4, 15).threshold == 6
    elapsed = time.monotonic() - start
    assert elapsed < 1
    _report(4, "charge algebra passes all six checks on the (k,t) grid",
            elapsed, 1)


def test_criterion_5_mad_oracle_equivalence():
    start = time.monotonic()
    assert mad_exact(complete_graph(5)).value == 4 == mad_bruteforce(complete_graph(5)).value
    assert mad_exact(petersen_graph()).value == 3 == mad_bruteforce(petersen_graph()).value
    assert mad_exact(cycle_graph(5)).value == 2 == mad_bruteforce(cycle_graph(5)).value
    rng = random.Random(90125)
    for _ in range(100):
        n = rng.randint(1, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < rng.uniform(0.2, 0.9)
        ]
        g = Graph(n, edges)
        assert mad_exact(g).value == mad_bruteforce(g).value
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(5, "exact Mad equals subset-enumeration oracle on 100 seeded graphs",
            elapsed, 30)


def test_criterion_6_choosability_verdicts():
    start = time.monotonic()
    cases = [
        (cycle_graph(4), SeparationParams(2, 2), CHOOSABLE),
        (cycle_graph(6), SeparationParams(2, 2), CHOOSABLE),
        (cycle_graph(3), SeparationParams(2, 2), NOT_CHOOSABLE),
        (cycle_graph(5), SeparationParams(2, 2), NOT_CHOOSABLE),
        (complete_bipartite_graph(2, 4), SeparationParams(2, 3), NOT_CHOOSABLE),
        (complete_graph(4), SeparationParams(3, 3), NOT_CHOOSABLE),
    ]
    for g, p, expected in cases:
        meter = Meter(10_000_000)    # a meter counts up, so one per decision
        verdict = decide_choosable(g, p, meter)
        assert verdict.verdict == expected, (g, p)
        assert verdict.nodes_used <= meter.max_nodes
        if expected == NOT_CHOOSABLE:
            assert verify_not_choosable(g, verdict.witness, p)
    elapsed = time.monotonic() - start
    _report(6, "choosability verdicts and revalidated witnesses", elapsed, None)


def test_criterion_7_edge_reduction_suite():
    start = time.monotonic()
    report = run_edge_reduction_suite(count=1000)
    assert report.hypothesis_met == 1000
    assert report.critical_faults == ()
    assert report.passed == 1000
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(7, "1000 hypothesis-met instances, zero critical faults", elapsed, 60)


def test_criterion_8_solver_completeness():
    start = time.monotonic()
    rng = random.Random(8128)
    for _ in range(500):
        n = rng.randint(1, 5)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = Graph(n, edges)
        sets = [set(rng.sample(range(6), rng.randint(1, 3))) for _ in range(n)]
        lists = ListAssignment.from_sets(sets)
        mine = solve(g, lists).verdict == SAT
        oracle = any(
            all(combo[u] != combo[v] for u, v in g.edges())
            for combo in itertools.product(*(lists.colors(v) for v in range(n)))
        )
        assert mine == oracle
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(8, "backtracker matches product-space oracle on 500 seeded instances",
            elapsed, 30)
