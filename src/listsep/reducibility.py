"""Reducible-edge scans, subinstance reduction checks, and greedy kernels."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .assignments import ListAssignment, SeparationParams, is_valid_assignment
# induced_subgraph is not used here, but perfbench/spans.py wraps it as
# `listsep.reducibility.induced_subgraph` for its traced run.
from .graph import Graph, induced_subgraph, peel
from .solver import SAT, solve

PASS = "PASS"
HYPOTHESIS_NOT_MET = "HYPOTHESIS_NOT_MET"
CRITICAL_FAULT = "CRITICAL_FAULT"

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class ReducibleEdge:
    u: int
    v: int
    common_capped: int       # min(|N(u) & N(v)|, 2), the value the bound uses
    common: int              # uncapped intersection size, for diagnostics
    degree_sum: int


@dataclass(frozen=True)
class ReducibleEdgeReport:
    params: SeparationParams
    edges: tuple[ReducibleEdge, ...]


def _require_union_regime(p: SeparationParams) -> None:
    if p.k < 3:
        raise ValueError("reducibility checks require k >= 3")
    if p.t < p.k:
        raise ValueError("reducibility checks require the union regime (t >= k)")


def find_reducible_edges(g: Graph, p: SeparationParams) -> ReducibleEdgeReport:
    """All edges uv with d(u) + d(v) <= t + min(|N(u) & N(v)|, 2)."""
    _require_union_regime(p)
    nbr_sets = [set(g.neighbors(v)) for v in range(g.n)]
    found = []
    for u, v in g.edges():
        a = len(nbr_sets[u] & nbr_sets[v])
        dsum = g.degree(u) + g.degree(v)
        if dsum <= p.t + min(a, 2):
            found.append(ReducibleEdge(u, v, min(a, 2), a, dsum))
    return ReducibleEdgeReport(p, tuple(found))


@dataclass(frozen=True)
class EdgeReductionResult:
    verdict: str             # PASS | HYPOTHESIS_NOT_MET | CRITICAL_FAULT
    degree_sum: int
    threshold: int           # t + min(a, 2)
    subinstance_sat: tuple[bool, bool, bool]   # G-u, G-v, G-uv


def check_edge_reduction(
    g: Graph, u: int, v: int, lists: ListAssignment, p: SeparationParams
) -> EdgeReductionResult:
    """Empirically validate the small-degree-sum edge reduction at edge uv.

    Hypothesis: G-u, G-v and G-uv are all list-colorable and
    d(u) + d(v) <= t + min(|N(u) & N(v)|, 2). When the hypothesis holds, G
    itself must be list-colorable; a PASS failure is reported as
    CRITICAL_FAULT and indicates an implementation bug.
    """
    _require_union_regime(p)
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    check = is_valid_assignment(g, lists, p)
    if not check:
        raise ValueError(f"assignment is not a valid (k,t)-assignment: {check.reason}")

    sub_sat = (
        solve(g.delete_vertex(u), lists.drop_vertex(u)).verdict == SAT,
        solve(g.delete_vertex(v), lists.drop_vertex(v)).verdict == SAT,
        solve(g.delete_edge(u, v), lists).verdict == SAT,
    )
    a = min(g.common_neighbor_count(u, v), 2)
    dsum = g.degree(u) + g.degree(v)
    threshold = p.t + a
    if not all(sub_sat) or dsum > threshold:
        return EdgeReductionResult(HYPOTHESIS_NOT_MET, dsum, threshold, sub_sat)
    if solve(g, lists).verdict == SAT:
        return EdgeReductionResult(PASS, dsum, threshold, sub_sat)
    return EdgeReductionResult(CRITICAL_FAULT, dsum, threshold, sub_sat)


@dataclass(frozen=True)
class KernelResult:
    kernel_vertices: tuple[int, ...]   # surviving original ids, sorted
    order: tuple[int, ...]             # removed original ids, in removal order

    @property
    def empty(self) -> bool:
        return not self.kernel_vertices


def greedy_kernel(g: Graph, k: int) -> KernelResult:
    """Peel the lowest-id vertex of degree < k until none remains.

    An empty kernel certifies that every (k,t)-assignment of g is colorable:
    replaying the removal order backwards always leaves a free color.
    """
    order, core = peel(g, k)
    return KernelResult(core, order)


@dataclass(frozen=True)
class SuiteReport:
    requested: int
    hypothesis_met: int
    passed: int
    critical_faults: tuple[int, ...]   # instance indices with a fault
    attempts: int
    seed: int

    @property
    def ok(self) -> bool:
        return not self.critical_faults and self.hypothesis_met >= self.requested


def _random_instance(
    rng: random.Random, max_n: int, k: int, t_values: tuple[int, ...]
) -> tuple[Graph, ListAssignment, SeparationParams, tuple[int, int]] | None:
    n = rng.randint(4, max_n)
    t = rng.choice(t_values)
    prob = rng.uniform(0.3, 0.6)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob
    ]
    if not edges:
        return None
    g = Graph(n, edges)

    universe = t + 2
    sets = [set(rng.sample(range(universe), rng.randint(k, k + 1))) for _ in range(n)]
    # Repair pass: adding fresh colors never breaks union validity, so grow
    # the smaller endpoint of any deficient edge until every union reaches t.
    fresh = universe
    for u, v in g.edges():
        while len(sets[u] | sets[v]) < t:
            target = u if len(sets[u]) <= len(sets[v]) else v
            sets[target].add(fresh)
            fresh += 1
    lists = ListAssignment.from_sets(sets, universe=fresh)
    edge = rng.choice(g.edges())
    return g, lists, SeparationParams(k, t), edge


def run_edge_reduction_suite(
    count: int = 1000,
    seed: int = DEFAULT_SEED,
    max_n: int = 7,
    k: int = 3,
    t_values: tuple[int, ...] = (5, 6, 7, 8),
) -> SuiteReport:
    """Randomized validation of the edge reduction on seeded instances.

    Generates instances until `count` of them meet the hypothesis; each
    instance uses its own seed derived from (seed, index) so runs are
    reproducible and order-independent. Raises ValueError when `count` is
    below 1 or `max_n` below 4, the fewest vertices an instance has.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if max_n < 4:
        raise ValueError(f"max_n must be at least 4, got {max_n}")
    met = 0
    passed = 0
    faults: list[int] = []
    attempts = 0
    i = 0
    limit = max(count * 200, 1000)
    while met < count and attempts < limit:
        rng = random.Random(seed * 1_000_003 + i)
        i += 1
        attempts += 1
        inst = _random_instance(rng, max_n, k, t_values)
        if inst is None:
            continue
        g, lists, p, (u, v) = inst
        result = check_edge_reduction(g, u, v, lists, p)
        if result.verdict == HYPOTHESIS_NOT_MET:
            continue
        met += 1
        if result.verdict == PASS:
            passed += 1
        else:
            faults.append(i - 1)
    return SuiteReport(count, met, passed, tuple(faults), attempts, seed)
