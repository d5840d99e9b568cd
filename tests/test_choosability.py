"""Choosability decisions: named verdicts, oracle cross-checks, budgets."""

from __future__ import annotations

import itertools
import random
import time
from types import SimpleNamespace

import pytest

from listsep import budget, choosability, solver
from listsep.assignments import (
    ListAssignment,
    SeparationParams,
    is_proper_coloring,
    is_valid_assignment,
)
from listsep.budget import CLOCK_EVERY, BudgetExceeded, Meter
from listsep.choosability import (
    CHOOSABLE,
    NOT_CHOOSABLE,
    RESOURCE_LIMIT,
    ChoosabilityVerdict,
    decide_choosable,
    verify_not_choosable,
)
from listsep.constructions import build_book, build_gadget35
from listsep.graph import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    greedy_kernel,
    icosahedron_graph,
    induced_subgraph,
)
from listsep.solver import UNSAT, solve


def no_certificate(monkeypatch):
    """Leave every decision to the enumeration: no core gets an Alon-Tarsi
    certificate, and trying costs no node."""
    monkeypatch.setattr(choosability, "find_certificate", lambda h, p, meter: None)


def oracle_box_witness(g: Graph, p: SeparationParams, extra_colors=2, extra_size=1):
    """Brute force without canonicalization: scan every assignment whose lists
    come from a fixed box (sizes k..k+extra_size over k+extra_colors colors)
    and return a valid unsolvable one if any exists."""
    universe = p.k + extra_colors
    pool = []
    for size in range(p.k, p.k + extra_size + 1):
        pool += list(itertools.combinations(range(universe), size))
    for combo in itertools.product(pool, repeat=g.n):
        lists = ListAssignment.from_sets(combo)
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
    # Its block starts at the first color above every list of the core.
    core = 0
    for v in range(4):
        core |= verdict.witness.mask(v)
    assert verdict.witness.mask(4) == 0b111 << core.bit_length()


def test_padded_vertices_share_fresh_blocks():
    # A padded vertex takes the lowest fresh block no padded neighbor before
    # it holds, so the witness's colors stay few however many vertices pad.
    k4_isolated = Graph(2000, complete_graph(4).edges())
    k33_path = Graph(56, complete_bipartite_graph(3, 3).edges()
                     + [(v, v + 1) for v in range(6, 55)])
    for g, p, widest in [(k4_isolated, SeparationParams(3, 3), 6),
                         (k33_path, SeparationParams(2, 1), 9)]:
        verdict = decide_choosable(g, p)
        assert verdict.verdict == NOT_CHOOSABLE
        assert verify_not_choosable(g, verdict.witness, p)
        assert max(verdict.witness.mask(v).bit_length() for v in range(g.n)) <= widest


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
            assert result.nodes_used == 0
            assert result.witness is None


def test_choosable_verdict_stable_under_relabeling():
    perm = [2, 0, 3, 1]
    edges = [(perm[u], perm[v]) for u, v in cycle_graph(4).edges()]
    assert decide_choosable(Graph(4, edges), SeparationParams(2, 2)).verdict == CHOOSABLE


def test_budget_exhaustion_is_reported_not_coerced():
    verdict = decide_choosable(
        cycle_graph(6), SeparationParams(2, 2), Meter(max_nodes=5)
    )
    assert verdict.verdict == RESOURCE_LIMIT
    assert verdict.witness is None


def test_budget_stops_the_subset_and_profile_walks(monkeypatch):
    # No size profile of these passes the edge test, so the enumeration
    # draws subsets and profiles only: 4,095 + 1 and 127 + 22,194 of them.
    # Both have a certificate, found in 316 and 575 nodes, which the budget
    # stops too.
    cases = ((cycle_graph(12), SeparationParams(2, 5), 316, 4_096),
             (complete_graph(7), SeparationParams(3, 13), 575, 22_321))
    for g, p, certified, _ in cases:
        verdict = decide_choosable(g, p)
        assert (verdict.verdict, verdict.assignments_tested, verdict.nodes_used) == (
            CHOOSABLE, 0, certified)
        assert verdict.certificate
        verdict = decide_choosable(g, p, Meter(max_nodes=100))
        assert (verdict.verdict, verdict.nodes_used) == (RESOURCE_LIMIT, 101)
    no_certificate(monkeypatch)
    for g, p, _, nodes in cases:
        verdict = decide_choosable(g, p)
        assert (verdict.verdict, verdict.assignments_tested, verdict.nodes_used) == (
            CHOOSABLE, 0, nodes)
        assert verdict.certificate is None
        verdict = decide_choosable(g, p, Meter(max_nodes=100))
        assert (verdict.verdict, verdict.nodes_used) == (RESOURCE_LIMIT, 101)


def test_only_subsets_of_minimum_degree_k_get_a_subgraph(monkeypatch):
    # Of the 4,095 subsets of C12 only the whole cycle has minimum degree 2;
    # the others are drawn and charged but build no subgraph. The core's
    # certificate search, stubbed out here, is given the same subgraph.
    calls = []

    def counted(*args):
        calls.append(None)
        return induced_subgraph(*args)

    monkeypatch.setattr(choosability, "induced_subgraph", counted)
    no_certificate(monkeypatch)
    verdict = decide_choosable(cycle_graph(12), SeparationParams(2, 5))
    assert (verdict.verdict, verdict.nodes_used) == (CHOOSABLE, 4_096)
    assert len(calls) == 1


def test_clock_is_read_once_per_1024_nodes(monkeypatch):
    reads = []

    def monotonic():
        reads.append(None)
        return time.monotonic()

    monkeypatch.setattr(budget, "time", SimpleNamespace(monotonic=monotonic))
    p = SeparationParams(3, 5)
    # K5 has no certificate; K3,3 has one, so its enumeration runs without.
    for g, max_nodes, expected in ((complete_graph(5), 100_000, 98),
                                   (complete_bipartite_graph(3, 3), 10_000_000, 284)):
        reads.clear()
        verdict = decide_choosable(g, p, Meter(max_nodes, max_seconds=3600))
        assert len(reads) == 1 + min(verdict.nodes_used, max_nodes) // CLOCK_EVERY
        assert len(reads) == expected
        no_certificate(monkeypatch)


def test_metering_leaves_counts_of_runs_within_budget(monkeypatch):
    # The certificate, then the enumeration it saves.
    g, p = complete_bipartite_graph(3, 3), SeparationParams(3, 5)
    for tested, nodes in ((0, 30), (216, 289_806)):
        for meter in (None, Meter(max_nodes=nodes, max_seconds=3600)):
            verdict = decide_choosable(g, p, meter)
            assert verdict.verdict == CHOOSABLE
            assert (verdict.assignments_tested, verdict.nodes_used) == (tested, nodes)
        no_certificate(monkeypatch)


def test_budgeted_counts_of_graphs_past_the_budget(monkeypatch):
    # K5 and the icosahedron have no certificate. K4,4 has one, found in
    # 184 nodes; without it the enumeration runs out of the budget.
    p = SeparationParams(3, 5)
    k44 = complete_bipartite_graph(4, 4)
    verdict = decide_choosable(k44, p, Meter(max_nodes=400_000))
    assert (verdict.verdict, verdict.assignments_tested, verdict.nodes_used) == (
        CHOOSABLE, 0, 184)
    assert verdict.certificate == ((2,) * 8,)
    for g, tested in ((complete_graph(5), 711), (icosahedron_graph(), 2_576),
                      (k44, 0)):
        if g is k44:
            no_certificate(monkeypatch)
        verdict = decide_choosable(g, p, Meter(max_nodes=400_000))
        assert (verdict.verdict, verdict.assignments_tested, verdict.nodes_used) == (
            RESOURCE_LIMIT, tested, 400_001)
        assert verdict.witness is None
        assert verdict.certificate is None


def test_decisions_sharing_a_meter_charge_it_in_turn():
    # Each decision tries a certificate first (10 and 103 nodes), finds
    # none, and enumerates (15 and 21 nodes).
    c5, k4 = cycle_graph(5), complete_graph(4)
    meter = Meter()
    for g, p, used in ((c5, SeparationParams(2, 2), 25),
                       (k4, SeparationParams(3, 3), 124)):
        verdict = decide_choosable(g, p, meter)
        assert (verdict.verdict, verdict.nodes_used) == (NOT_CHOOSABLE, used)
    assert meter.nodes == 149
    # The second decision gets what the first left of 30 nodes: 5, and it
    # stops on the 6th, inside its certificate search.
    meter = Meter(30)
    assert decide_choosable(c5, SeparationParams(2, 2), meter).nodes_used == 25
    verdict = decide_choosable(k4, SeparationParams(3, 3), meter)
    assert (verdict.verdict, verdict.nodes_used) == (RESOURCE_LIMIT, 6)
    assert meter.nodes == 31


def test_decisions_without_a_meter_stop_at_the_default_limit():
    assert choosability.DEFAULT_MAX_NODES == 10_000_000
    verdict = decide_choosable(complete_graph(5), SeparationParams(3, 5))
    assert (verdict.verdict, verdict.nodes_used, verdict.assignments_tested) == (
        RESOURCE_LIMIT, 10_000_001, 5_442)


@pytest.mark.parametrize("limits,message", [
    ({"max_nodes": -1}, "max_nodes must be >= 0, got -1"),
    ({"max_seconds": -1}, "max_seconds must be >= 0, got -1"),
    ({"max_seconds": float("nan")}, "max_seconds must be >= 0, got nan"),
])
def test_meter_rejects_bad_limits(limits, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Meter(**limits)


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
        meter.spend(1)
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
            if i + 1 == n:
                yield tuple(masks)
            else:
                now = max(before, m.bit_length())
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
    """Every (masks, nodes charged) the enumeration yields within
    max_nodes, then the nodes charged when it ended."""
    meter = Meter(max_nodes=max_nodes)
    out = []
    try:
        for masks in enumerate_on(h, p, meter):
            out.append((masks, meter.nodes))
    except BudgetExceeded:
        pass
    return out, meter.nodes


# Small decisions to cut at every node count up to their end, as (graph,
# params, nodes the whole decision takes).
CUT_CASES = [
    (complete_bipartite_graph(2, 4), SeparationParams(2, 3), 229),
    (cycle_graph(5), SeparationParams(2, 2), 15),
    (complete_graph(4), SeparationParams(3, 3), 21),
]


def test_enumeration_matches_reference():
    regimes = set()
    cases = [(h, p, 3_000) for h, p in seeded_cases(300, 2024)] + [
        (g, p, max_nodes) for g, p, full in CUT_CASES for max_nodes in range(full + 1)
    ]
    for h, p, max_nodes in cases:
        regimes.add(p.regime)
        mine = enumeration_record(choosability._tight_assignments, h, p, max_nodes)
        assert mine == enumeration_record(reference_tight_assignments, h, p, max_nodes)
    assert regimes == {"union", "intersection"}


# The wheel W6: a 6-cycle on 0..5 and the hub 6, adjacent to all of them.
# The hub is last, so each rim vertex is ready only at the hub's level.
WHEEL6_HUB_LAST = Graph(
    7, [(v, (v + 1) % 6) for v in range(6)] + [(v, 6) for v in range(6)]
)

# K1,1,3, three triangles on the edge 1-3, with the pages 0, 2 and 4. At
# vertex 4's level the parent 3 is a ready vertex, need-only or trimmed by
# the profile, one of the ready hub 1's others, an earlier neighbor that
# can cut and one of vertex 4's own neighbors; at vertex 3's level the
# parent 2 is a ready page.
K113_HUBS_1_3 = Graph(5, [(1, 3)] + [(h, v) for h in (1, 3) for v in (0, 2, 4)])

# K3,3 with its sides numbered 0..2 and 3..5, and alternating. Side by side,
# the parent of vertices 1, 2 and 4 is no neighbor, no ready vertex and in
# no ready vertex's others, so their levels are folded whole; alternating,
# every parent is an earlier neighbor.
K33_ALTERNATING = Graph(6, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)])

# Dense graphs at (3,5) whose lists reach size > k, so the trimmed-list and
# need terms filter levels, cut at 200,000 nodes; K5 in the intersection
# regime, where every list has k colors, enumerated to its end (472,729
# nodes); W6 with its hub last at (3,6), whose rim lists have k colors,
# so the hub's level tests need-only ready vertices, cut at 200,000 nodes;
# K1,1,3 at (2,3), whose parent lists take every role in a level's tests,
# enumerated to its end (7,552 nodes); and K3,3 at (3,5) in both
# numberings, cut at 200,000 nodes; as (graph, params, max_nodes).
DENSE_CASES = [
    (complete_graph(5), SeparationParams(3, 5), 200_000),
    (icosahedron_graph(), SeparationParams(3, 5), 200_000),
    (complete_bipartite_graph(4, 4), SeparationParams(3, 5), 200_000),
    (complete_graph(5), SeparationParams(3, 2), 500_000),
    (WHEEL6_HUB_LAST, SeparationParams(3, 6), 200_000),
    (K113_HUBS_1_3, SeparationParams(2, 3), 10_000),
    (complete_bipartite_graph(3, 3), SeparationParams(3, 5), 200_000),
    (K33_ALTERNATING, SeparationParams(3, 5), 200_000),
]


def dense_enumeration(enumerate_on):
    """`enumeration_record` of each of DENSE_CASES."""
    return [enumeration_record(enumerate_on, *case) for case in DENSE_CASES]


def test_enumeration_matches_reference_on_dense_graphs():
    mine = dense_enumeration(choosability._tight_assignments)
    assert mine == dense_enumeration(reference_tight_assignments)
    assert all(masks for masks, _ in mine[:2])    # K5 and the icosahedron yield


def test_memoised_bitsets_match_their_definition(monkeypatch):
    """Each entry table[f, c] of a `_CandidateTable` is the bitset of its
    masks m with |m & f| <= c, whatever else that table holds for the
    same f, and each entry table.trimmed[f, bits, c] the bitset of those
    with |m & (f ^ x)| <= c for some color x of bits. The registry starts
    empty, so only the entries these enumerations make are checked."""
    tables = choosability._Tables()
    monkeypatch.setattr(choosability, "_tables", tables)
    dense_enumeration(choosability._tight_assignments)
    # Of the dense cases, only K1,1,3 reaches a profile with a list above k
    # colors next to a ready vertex; these reach many such profiles.
    for h, p in seeded_cases(100, 2024):
        enumeration_record(choosability._tight_assignments, h, p, 3_000)
    entries = trimmed = 0
    for (used, size), table in tables.items():
        fresh = choosability._CandidateTable(used, size)
        assert table.masks == fresh.masks
        for (f, c), bits in table.items():
            assert bits == fresh[f, c]
            assert bits == sum(
                1 << j for j, m in enumerate(fresh.masks) if (m & f).bit_count() <= c
            )
            entries += 1
        for (f, bits, c), cut in table.trimmed.items():
            colors = [1 << x for x in range(bits.bit_length()) if bits >> x & 1]
            assert colors and bits & f == bits
            assert cut == sum(
                1 << j for j, m in enumerate(fresh.masks)
                if any((m & (f ^ x)).bit_count() <= c for x in colors)
            )
            trimmed += 1
    assert entries and trimmed
    assert {c for table in tables.values() for _, c in table} - {0}


def test_table_masks_match_reference_sets():
    for used in range(6):
        for size in range(5):
            expected = reference_candidate_sets(used, size)
            assert choosability._CandidateTable(used, size).masks == [
                sum(1 << c for c in cols) for cols in expected
            ]


def test_table_counts_match_popcount():
    for used in range(7):
        for size in range(6):
            table = choosability._CandidateTable(used, size)
            # f also takes the color just past every candidate's.
            for f in range(1 << used + size + 1):
                counts = [(m & f).bit_count() for m in table.masks]
                for c in range(-1, size + 2):
                    expected = sum(1 << j for j, n in enumerate(counts) if n <= c)
                    assert table[f, c] == expected    # each key asked once


def test_last_mask_passes_every_cut():
    # The last candidate is all fresh colors, so it meets every earlier list
    # and no cut in `enter` can empty its level.
    for used in range(7):
        for size in range(6):
            table = choosability._CandidateTable(used, size)
            last = 1 << len(table.masks) - 1
            for f in range(1 << used):
                for c in range(size + 1):
                    assert table[f, c] & last


def test_decisions_match_reference_enumeration(monkeypatch):
    no_certificate(monkeypatch)
    cases = list(seeded_cases(60, 2025)) + [
        (complete_graph(5), SeparationParams(3, 5)),
        (complete_bipartite_graph(3, 3), SeparationParams(3, 5)),
        (cycle_graph(5), SeparationParams(2, 2)),
        (complete_graph(4), SeparationParams(3, 1)),
    ]

    # Each run is (graph, params, node limit), and gets a fresh meter.
    runs = [(g, p, max_nodes) for max_nodes in (1_000, 50_000) for g, p in cases]
    for g, p, full in CUT_CASES:
        verdict = decide_choosable(g, p)
        assert (verdict.verdict, verdict.nodes_used) == (NOT_CHOOSABLE, full)
        runs += [(g, p, max_nodes) for max_nodes in range(full + 1)]
    mine = [decide_choosable(g, p, Meter(max_nodes)) for g, p, max_nodes in runs]
    with monkeypatch.context() as patch:
        patch.setattr(choosability, "_tight_assignments", reference_tight_assignments)
        assert mine == [decide_choosable(g, p, Meter(max_nodes))
                        for g, p, max_nodes in runs]


def test_verdicts_do_not_depend_on_earlier_decisions(monkeypatch):
    """Decisions share the candidate tables of the process, so each must get
    the verdict it gets on an empty registry, also after the same decisions
    in reverse order have filled it."""
    cases = [(g, p) for g, p, _ in CUT_CASES] + list(seeded_cases(60, 2025)) + [
        (complete_bipartite_graph(3, 3), SeparationParams(3, 5)),
        (complete_graph(5), SeparationParams(3, 5)),
    ]
    alone = []
    for g, p in cases:
        monkeypatch.setattr(choosability, "_tables", choosability._Tables())
        alone.append(decide_choosable(g, p, Meter(50_000)))
    monkeypatch.setattr(choosability, "_tables", choosability._Tables())
    for g, p in reversed(cases):
        decide_choosable(g, p, Meter(50_000))
    assert [decide_choosable(g, p, Meter(50_000)) for g, p in cases] == alone
    assert {v.verdict for v in alone} == {CHOOSABLE, NOT_CHOOSABLE, RESOURCE_LIMIT}


def test_every_solve_goes_through_solve(monkeypatch):
    """The decider tests each assignment the pool misses by calling the
    solver's public `solve`, so a wrapper around it sees every one."""
    calls = []

    def counted(*args):
        calls.append(None)
        return solve(*args)

    monkeypatch.setattr(choosability, "solve", counted)
    no_certificate(monkeypatch)    # K3,3 has one, and its decision no solve
    verdict = decide_choosable(complete_bipartite_graph(3, 3), SeparationParams(3, 5))
    assert verdict.verdict == CHOOSABLE
    assert len(calls) == verdict.solves == 18


def test_decider_solves_peel_nothing(monkeypatch):
    """Every tight assignment has |L(v)| <= deg(v) on its subgraph, so no
    solve of the decider calls the solver's peel, and its node counts and
    witnesses are those of searching the whole subgraph. No vertex of
    these graphs has degree solver.HUB_DEGREE, so none of their searches
    builds an occurrence list either."""
    peels, solves, searches = [], [], []

    def counted_peel(*args):
        peels.append(None)
        return greedy_kernel(*args)

    def counted_solve(*args):
        solves.append(None)
        return solve(*args)

    class Recorded(solver._Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(solver, "greedy_kernel", counted_peel)
    monkeypatch.setattr(solver, "_Search", Recorded)
    monkeypatch.setattr(choosability, "solve", counted_solve)
    no_certificate(monkeypatch)
    runs = [(h, p, 50_000) for h, p in seeded_cases(100, 2035)] + [
        (g, SeparationParams(3, 5), 400_000)
        for g in (complete_graph(5), icosahedron_graph(),
                  complete_bipartite_graph(3, 3))]
    verdicts = {decide_choosable(g, p, Meter(max_nodes)).verdict
                for g, p, max_nodes in runs}
    assert verdicts == {CHOOSABLE, NOT_CHOOSABLE, RESOURCE_LIMIT}
    assert len(solves) > 500
    assert peels == []
    assert len(searches) == len(solves)
    assert not any(st.occ for st in searches)


def reference_decide(g: Graph, p: SeparationParams, meter: Meter):
    """`decide_choosable` without the coloring pool or the certificate:
    every tight assignment is solved. The meter is fresh, so its count is the decision's."""
    core_ids = greedy_kernel(g, p.k).kernel_vertices
    tested = 0
    try:
        for size in range(len(core_ids), 0, -1):
            for subset in itertools.combinations(core_ids, size):
                meter.spend(1)
                h, kept = induced_subgraph(g, subset)
                if min(h.degree(v) for v in range(h.n)) < p.k:
                    continue
                for masks in choosability._tight_assignments(h, p, meter):
                    tested += 1
                    verdict = solve(h, ListAssignment(masks), meter).verdict
                    if verdict == RESOURCE_LIMIT:
                        raise BudgetExceeded
                    if verdict == UNSAT:
                        witness = choosability._pad_witness(g, kept, masks, p)
                        return ChoosabilityVerdict(
                            NOT_CHOOSABLE, witness, tested, meter.nodes, tested
                        )
    except BudgetExceeded:
        return ChoosabilityVerdict(RESOURCE_LIMIT, None, tested, meter.nodes, tested)
    return ChoosabilityVerdict(CHOOSABLE, None, tested, meter.nodes, tested)


def test_pool_matches_running_every_assignment(monkeypatch):
    """A pooled coloring settles an assignment only when it colors it, so
    decisions keep the verdicts and witnesses of solving every assignment,
    stay decided under every budget that decides them without the pool, and
    never take more nodes."""
    hits, subgraphs = [], []

    def recorded_subgraph(g, vertices):
        h, kept = induced_subgraph(g, vertices)
        subgraphs.append(h)
        return h, kept

    class CheckedPool(choosability._ColoringPool):
        def __init__(self):
            super().__init__()
            self.h = subgraphs[-1]

        def fit(self, masks):
            if not super().fit(masks):
                return False
            col = self.colorings[0]
            assert all(bit & (bit - 1) == 0 for bit in col)   # one color each
            coloring = {v: bit.bit_length() - 1 for v, bit in enumerate(col)}
            assert all(masks[v] >> c & 1 for v, c in coloring.items())
            assert is_proper_coloring(self.h, ListAssignment(masks), coloring)
            hits.append(masks)
            return True

    monkeypatch.setattr(choosability, "induced_subgraph", recorded_subgraph)
    monkeypatch.setattr(choosability, "_ColoringPool", CheckedPool)
    no_certificate(monkeypatch)
    runs = [(g, p, max_nodes) for g, p in seeded_cases(60, 2027)
            for max_nodes in (1_000, 50_000)]
    for g, p, _ in CUT_CASES:
        full = reference_decide(g, p, Meter(10_000_000)).nodes_used
        runs += [(g, p, max_nodes) for max_nodes in range(full + 1)]
    outcomes, regimes = set(), set()
    for g, p, max_nodes in runs:
        mine = decide_choosable(g, p, Meter(max_nodes))
        ref = reference_decide(g, p, Meter(max_nodes))
        outcomes.add((mine.verdict, ref.verdict))
        regimes.add(p.regime)
        assert mine.nodes_used <= ref.nodes_used
        assert mine.solves <= mine.assignments_tested
        if ref.verdict != RESOURCE_LIMIT:
            assert (mine.verdict, mine.witness, mine.assignments_tested) == (
                ref.verdict, ref.witness, ref.assignments_tested)
        elif mine.verdict != RESOURCE_LIMIT:
            # The pool reached further within the budget: it must land where
            # running every assignment does without one.
            ref = reference_decide(g, p, Meter(max_nodes=10**9))
            assert (mine.verdict, mine.witness, mine.assignments_tested) == (
                ref.verdict, ref.witness, ref.assignments_tested)
    assert {(CHOOSABLE, CHOOSABLE), (NOT_CHOOSABLE, NOT_CHOOSABLE),
            (RESOURCE_LIMIT, RESOURCE_LIMIT),
            (NOT_CHOOSABLE, RESOURCE_LIMIT)} <= outcomes
    assert regimes == {"union", "intersection"}
    assert hits
