"""Reducible-edge scans and subinstance reduction checks."""

from __future__ import annotations

import random
from dataclasses import dataclass

from .assignments import ListAssignment, SeparationParams, is_valid_assignment
from .graph import Graph, induced_subgraph
from .solver import SAT, solve

PASS = "PASS"
HYPOTHESIS_NOT_MET = "HYPOTHESIS_NOT_MET"
CRITICAL_FAULT = "CRITICAL_FAULT"

DEFAULT_SEED = 1729
# The separation parameters the randomized edge-reduction suite samples.
SUITE_K = 3
SUITE_T_VALUES = (5, 6, 7, 8)
# The most vertices a suite instance may have: each instance draws its edges
# from all vertex pairs, and its solves run without a budget.
SUITE_MAX_N = 100


@dataclass(frozen=True)
class ReducibleEdge:
    u: int
    v: int
    common_capped: int       # min(|N(u) & N(v)|, 2), the value the bound uses
    common: int              # uncapped intersection size, for diagnostics
    degree_sum: int


def _require_union_regime(p: SeparationParams) -> None:
    if p.k < 3:
        raise ValueError("reducibility checks require k >= 3")
    if p.t < p.k:
        raise ValueError("reducibility checks require the union regime (t >= k)")


def find_reducible_edges(
    g: Graph, p: SeparationParams
) -> tuple[ReducibleEdge, ...]:
    """All edges uv with d(u) + d(v) <= t + min(|N(u) & N(v)|, 2).

    The edges come in the order of ``g.edges()``. No common-neighbor count
    brings a degree sum above t + 2 under the bound, so only the edges at
    or below it have their neighborhoods intersected. Each vertex's
    neighbor set is built once, the first time one of those edges needs
    it, and ``&`` walks the smaller of the two sets, so an edge costs at
    most min(d(u), d(v)) beyond that.
    """
    _require_union_regime(p)
    nbrs = g.adjacency
    degree = list(map(len, nbrs))
    sets: list[set[int] | None] = [None] * g.n
    found = []
    for u, nu in enumerate(nbrs):
        room = p.t + 2 - degree[u]   # the largest d(v) that can still pass
        for v in nu:
            if v > u and degree[v] <= room:
                su = sets[u]
                if su is None:
                    su = sets[u] = set(nu)
                sv = sets[v]
                if sv is None:
                    sv = sets[v] = set(nbrs[v])
                a = len(su & sv)
                dsum = degree[u] + degree[v]
                if dsum <= p.t + min(a, 2):
                    found.append(ReducibleEdge(u, v, min(a, 2), a, dsum))
    return tuple(found)


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

    def colorable_without(x: int) -> bool:
        """Whether G - x is colorable from the lists of the other vertices."""
        h, kept = induced_subgraph(g, [w for w in range(g.n) if w != x])
        sub = ListAssignment([lists.mask(w) for w in kept])
        return solve(h, sub).verdict == SAT

    sub_sat = (
        colorable_without(u),
        colorable_without(v),
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
    rng: random.Random, max_n: int
) -> tuple[Graph, ListAssignment, SeparationParams, tuple[int, int]] | None:
    n = rng.randint(4, max_n)
    k, t = SUITE_K, rng.choice(SUITE_T_VALUES)
    prob = rng.uniform(0.3, 0.6)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob
    ]
    if not edges:
        return None
    g = Graph(n, edges)

    sets = [set(rng.sample(range(t + 2), rng.randint(k, k + 1))) for _ in range(n)]
    # Repair pass: adding fresh colors never breaks union validity, so grow
    # the smaller endpoint of any deficient edge until every union reaches t.
    fresh = t + 2
    for u, v in g.edges():
        while len(sets[u] | sets[v]) < t:
            target = u if len(sets[u]) <= len(sets[v]) else v
            sets[target].add(fresh)
            fresh += 1
    lists = ListAssignment.from_sets(sets)
    edge = rng.choice(g.edges())
    return g, lists, SeparationParams(k, t), edge


def run_edge_reduction_suite(
    count: int = 1000,
    seed: int = DEFAULT_SEED,
    max_n: int = 7,
) -> SuiteReport:
    """Randomized validation of the edge reduction on seeded instances.

    Generates instances until `count` of them meet the hypothesis; each
    instance uses its own seed derived from (seed, index) so runs are
    reproducible and order-independent. Raises ValueError when `count` is
    below 1, or `max_n` is below 4, the fewest vertices an instance has, or
    above SUITE_MAX_N.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if max_n < 4:
        raise ValueError(f"max_n must be at least 4, got {max_n}")
    if max_n > SUITE_MAX_N:
        raise ValueError(f"max_n must be at most {SUITE_MAX_N}, got {max_n}")
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
        inst = _random_instance(rng, max_n)
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
